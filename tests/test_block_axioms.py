"""The axiom verifiers on the one chunked kernel against the per-sample
loops they replaced.

Each oracle below is the loop the library ran before its verifier became
a pass of ``framework._block_reports``. The properties compare the two
reports field by field: name, status, samples, mode, tolerance and notes,
then every witness in order, with its check name, detail, formatted inputs
and input types, and lhs, bound and margin bit for bit. Sample counts sit at
and around the chunk size: drawn ones around a small chunk size patched in,
and one example per verifier around the library's own; some inputs raise
DomainError on both paths.
"""

import math
import os
import struct
import subprocess
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from picardkit import (AlphaFunction, BVPProblem, CClassFunction,
                       DomainError, GeraghtyBeta, HYPOTHESIS_UNMET, IterationTrace,
                       PartialOrder, SimulationFunction, alpha_from_order,
                       check_alpha_orbit, check_cclass, check_geraghty, check_increasing,
                       check_order_axioms, check_ratio_bound, check_rhs_displacement_bound,
                       check_simulation_pointwise, check_simulation_sequences,
                       integral_operator,
                       natural_order, pointwise_order, scalar_metric, sup_metric)
from picardkit import framework
from picardkit.builtins import (alpha_box, beta_constant, beta_reciprocal,
                                cclass_a, cclass_c, compile_rhs_expression,
                                default_beta_probes, default_sequence_probes,
                                example31_map, rhs_const,
                                rhs_pi2sin, rhs_sin_plus_one, zeta1)
from picardkit.framework import CHUNK, GRID_EPS, MIN_TAIL, SCALAR_EPS
from picardkit.picard import _validate_iterate
from picardkit.report import Witness, format_inputs, VerificationReport
from picardkit.sampling import probe_pair, seeded_rng

from helpers import alpha_one, gate_value, make_report


# ---------------------------------------------------------------------------
# The verdict rule, restated: a row breaks its clause when its margin is
# below -tol, or, for a strict clause, when it is not above tol, so a nan
# margin breaks a strict clause and no other. Every oracle below decides each
# row it checks through ``breaks``, which ``deciding`` records.

_decided = None  # a list of (check, margin, broken) while ``deciding`` records


def breaks(check, margin, tol, strict=False):
    broken = not margin > tol if strict else margin < -tol
    if _decided is not None:
        _decided.append((check, margin, broken))
    return broken


@contextmanager
def deciding():
    """Record every row the oracles decide in the block."""
    global _decided
    _decided = []
    try:
        yield _decided
    finally:
        _decided = None


# ---------------------------------------------------------------------------
# Per-sample reference oracles: the loops the block verifiers replaced, each
# deciding a row on its own margin.

def oracle_simulation_pointwise(zeta, samples, tol=SCALAR_EPS):
    witnesses = []
    checked = 0
    for pair in samples:
        t, s = float(pair[0]), float(pair[1])
        if t < 0.0 or s < 0.0:
            raise DomainError(f"simulation-function samples must be nonnegative, got ({t}, {s})")
        if t == 0.0 and s == 0.0:
            checked += 1
            value = zeta(0.0, 0.0)
            margin = -abs(value)
            if breaks("simulation/origin", margin, tol):
                witnesses.append(Witness(
                    "simulation/origin", (0.0, 0.0), margin,
                    f"zeta(0, 0) = {value!r} is not 0", lhs=value, bound=0.0))
        elif t > 0.0 and s > 0.0:
            checked += 1
            value = zeta(t, s)
            margin = (s - t) - value
            if breaks("simulation/strict", margin, tol, strict=True):
                witnesses.append(Witness(
                    "simulation/strict", (t, s), margin,
                    f"zeta({t!r}, {s!r}) = {value!r} is not strictly below s - t = {s - t!r}",
                    lhs=value, bound=s - t))
    return make_report("simulation-pointwise", witnesses, checked, tolerance=tol)


def oracle_cclass(g, samples, tol=SCALAR_EPS):
    witnesses = []
    checked = 0
    c = float(g.c_g)
    for pair in samples:
        s, t = float(pair[0]), float(pair[1])
        if s < 0.0 or t < 0.0:
            raise DomainError(f"C-class samples must be nonnegative, got ({s}, {t})")
        checked += 1
        value = g(s, t)
        upper_margin = s - value
        if breaks("cclass/upper", upper_margin, tol):
            witnesses.append(Witness(
                "cclass/upper", (s, t), upper_margin,
                f"G({s!r}, {t!r}) = {value!r} exceeds s", lhs=value, bound=s))
        elif abs(value - s) <= tol and breaks("cclass/degenerate", -min(s, t), tol):
            witnesses.append(Witness(
                "cclass/degenerate", (s, t), -min(s, t),
                f"G = s at non-degenerate arguments s={s!r}, t={t!r}",
                lhs=value, bound=s))
        if c - value < -tol and breaks("cclass/benchmark", s - t, tol, strict=True):
            witnesses.append(Witness(
                "cclass/benchmark", (s, t), s - t,
                f"G({s!r}, {t!r}) = {value!r} exceeds c_g = {c!r} but s <= t",
                lhs=value, bound=c))
        if s <= tol and breaks("cclass/zero-row", c - value, tol):
            witnesses.append(Witness(
                "cclass/zero-row", (s, t), c - value,
                f"G({s!r}, {t!r}) = {value!r} exceeds c_g = {c!r} on the s = 0 row",
                lhs=value, bound=c))
    return make_report("cclass", witnesses, checked, tolerance=tol)


def oracle_simulation_sequences(zeta, sequence_pairs, tol=SCALAR_EPS, min_tail=MIN_TAIL):
    pairs = list(sequence_pairs)
    witnesses = []
    for index, (t_seq, s_seq) in enumerate(pairs):
        tn = np.asarray(t_seq, dtype=float)
        sn = np.asarray(s_seq, dtype=float)
        if tn.size == 0 or tn.size != sn.size:
            raise DomainError(f"probe pair {index} must be two non-empty sequences of equal length")
        if not (np.all(np.isfinite(tn)) and np.all(np.isfinite(sn))):
            raise DomainError(f"probe pair {index} contains non-finite terms")
        if float(tn.min()) <= 0.0 or float(sn.min()) <= 0.0:
            raise DomainError(f"probe pair {index} must be strictly positive")
        if zeta.sequence_axiom == "roldan" and not np.all(tn < sn):
            raise DomainError(f"probe pair {index} must satisfy t_n < s_n elementwise (roldan mode)")
        k = min(tn.size, max(tn.size // 4, min_tail))
        tails_t, tails_s = tn[-k:], sn[-k:]
        values = [zeta(float(a), float(b)) for a, b in zip(tails_t, tails_s)]
        best = int(np.argmax(values))
        estimate = float(values[best])
        if breaks("simulation/limit", -estimate, tol, strict=True):
            witnesses.append(Witness(
                "simulation/limit", (index, float(tails_t[best]), float(tails_s[best])),
                -estimate,
                f"tail limsup estimate {estimate!r} over {k} terms is not negative",
                lhs=estimate, bound=0.0))
    return make_report("simulation-limits", witnesses, len(pairs),
                       mode="falsification", tolerance=tol)


def oracle_geraghty(beta, samples, probe_sequences=(), tol=SCALAR_EPS, limit_tol=1e-9,
                    separation=1e-6, min_tail=MIN_TAIL):
    witnesses = []
    checked = 0
    for raw in samples:
        t = float(raw)
        if t < 0.0:
            raise DomainError(f"beta samples must be nonnegative, got {t}")
        checked += 1
        value = beta(t)
        # the margin from 0 below -tol, else the margin from 1
        margin, bound, text = ((value, 0.0, "below 0") if value < -tol
                               else (1.0 - value, 1.0, "not strictly below 1"))
        if breaks("geraghty/range", margin, tol, strict=True):
            witnesses.append(Witness(
                "geraghty/range", (t,), margin,
                f"beta({t!r}) = {value!r} is {text}", lhs=value, bound=bound))
    probes = list(probe_sequences)
    for index, seq in enumerate(probes):
        arr = np.asarray(seq, dtype=float)
        if arr.size == 0 or not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
            raise DomainError(f"beta probe {index} must be non-empty, finite and nonnegative")
        k = min(arr.size, max(arr.size // 4, min_tail))
        tail = arr[-k:]
        tail_beta = np.array([beta(float(u)) for u in tail])
        tail_min_t = float(tail.min())
        tail_min_beta = float(tail_beta.min())
        if tail_min_beta >= 1.0 - limit_tol and breaks("geraghty/limit", -tail_min_t,
                                                       -separation, strict=True):
            witnesses.append(Witness(
                "geraghty/limit", (index, tail_min_t), -tail_min_t,
                f"beta tends to 1 (tail min beta = {tail_min_beta!r}) while the "
                f"arguments stay above {tail_min_t!r}",
                lhs=tail_min_beta, bound=1.0))
    notes = ("range clause is exact; limit clause is falsification-only",) if probes else ()
    return make_report("geraghty", witnesses, checked + len(probes),
                       mode="falsification" if probes else "exact",
                       tolerance=tol, notes=notes)


def oracle_ratio_bound(trace, beta, tol=SCALAR_EPS):
    witnesses = []
    checked = 0
    for i, ratio in enumerate(trace.ratios):
        if ratio is None:
            continue
        checked += 1
        bound = beta(trace.gaps[i])
        margin = bound - ratio
        if breaks("picard/ratio", margin, tol):
            witnesses.append(Witness(
                # the gate makes the (step, gap) rows one float table
                "picard/ratio", (float(i), float(trace.gaps[i])), margin,
                f"gap ratio {ratio!r} exceeds beta(gap) = {bound!r} at step {i}",
                lhs=ratio, bound=bound))
    return make_report("ratio-bound", witnesses, checked, tolerance=tol)


def oracle_alpha_orbit(T, alpha, x0, n_max, tol=SCALAR_EPS):
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    orbit = [x0]
    for k in range(n_max):
        nxt = T(orbit[-1])
        _validate_iterate(nxt, k + 1, None)
        orbit.append(nxt)
    start_value = alpha(orbit[0], orbit[1])
    if start_value - 1.0 < -tol:
        return VerificationReport(
            name="alpha-orbit", status=HYPOTHESIS_UNMET, witnesses=[], samples=0,
            tolerance=tol,
            notes=(f"hypothesis unmet: alpha(x0, T(x0)) = {start_value!r} < 1",))
    witnesses = []
    checked = 0
    for n in range(len(orbit)):
        for m in range(n + 1, len(orbit)):
            checked += 1
            value = alpha(orbit[n], orbit[m])
            if breaks("alpha/orbit", value - 1.0, tol):
                witnesses.append(Witness(
                    "alpha/orbit", (n, m), value - 1.0,
                    f"alpha(x_{n}, x_{m}) = {value!r} falls below 1",
                    lhs=value, bound=1.0))
    return make_report("alpha-orbit", witnesses, checked, tolerance=tol)


def oracle_increasing(T, order, pairs):
    witnesses = []
    checked = 0
    for x, y in pairs:
        checked += 1
        if order(x, y) and breaks("order/increasing", float(order(T(x), T(y))) - 1.0, 0.0):
            witnesses.append(Witness(
                "order/increasing", (x, y), -1.0,
                "x <= y but Tx <= Ty fails", lhs=0.0, bound=1.0))
    return make_report("increasing", witnesses, checked)


def oracle_order_axioms(order, elements, d, tol=SCALAR_EPS):
    items = list(elements)
    witnesses = []
    checked = 0
    for x in items:
        checked += 1
        if breaks("order/reflexive", float(order(x, x)) - 1.0, 0.0):
            witnesses.append(Witness(
                "order/reflexive", (x,), -1.0, "leq(x, x) fails", lhs=0.0, bound=1.0))
    for x in items:
        for y in items:
            checked += 1
            if order(x, y) and order(y, x):
                gap = d(x, y)
                if breaks("order/antisymmetric", tol - gap, 0.0):
                    witnesses.append(Witness(
                        "order/antisymmetric", (x, y), tol - gap,
                        f"x <= y and y <= x but d(x, y) = {gap!r} > eps",
                        lhs=gap, bound=tol))
    for x in items:
        for y in items:
            for z in items:
                checked += 1
                if order(x, y) and order(y, z) and \
                        breaks("order/transitive", float(order(x, z)) - 1.0, 0.0):
                    witnesses.append(Witness(
                        "order/transitive", (x, y, z), -1.0,
                        "x <= y <= z but x <= z fails", lhs=0.0, bound=1.0))
    return make_report("order-axioms", witnesses, checked, tolerance=tol)


def oracle_rhs_displacement_bound(problem, triples, tol=GRID_EPS):
    witnesses = []
    checked = 0
    operator_cache = {}

    def operator_on_constant(value):
        if value not in operator_cache:
            constant = np.full(problem.n + 1, value)
            operator_cache[value] = integral_operator(problem, constant)
        return operator_cache[value]

    for t, a, b in triples:
        t, a, b = float(t), float(a), float(b)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"t = {t} outside [0, 1]")
        if gate_value(problem, a, b) <= 0.0:
            continue
        checked += 1
        index = int(round(t * problem.n))
        lhs = abs(float(problem.rhs(t, a)) - float(problem.rhs(t, b)))
        ta = float(operator_on_constant(a)[index])
        tb = float(operator_on_constant(b)[index])
        bound = max(abs(a - b), abs(a - ta), abs(b - tb))
        margin = bound - lhs
        if breaks("rhs/displacement", margin, tol):
            witnesses.append(Witness(
                "rhs/displacement", (t, a, b), margin,
                f"|f(t, a) - f(t, b)| = {lhs!r} exceeds the displacement max {bound!r}",
                lhs=lhs, bound=bound))
    return make_report("rhs-displacement-bound", witnesses, checked, tolerance=tol)


# ---------------------------------------------------------------------------
# Comparison

def _outcome(check, *args):
    """The report of ``check(*args)``, or DomainError if it raised one."""
    try:
        return check(*args)
    except DomainError:
        return DomainError


def _bits(value):
    return struct.pack("<d", value)


def assert_same_report(block, oracle):
    """The same report field by field, or DomainError on both paths."""
    if oracle is DomainError or block is DomainError:
        assert block is oracle
        return
    assert (block.name, block.status, block.samples, block.mode, block.tolerance,
            block.notes) == (oracle.name, oracle.status, oracle.samples, oracle.mode,
                             oracle.tolerance, oracle.notes)
    assert len(block.witnesses) == len(oracle.witnesses)
    for got, want in zip(block.witnesses, oracle.witnesses):
        assert (got.check, got.detail, format_inputs(got.inputs)) == \
            (want.check, want.detail, format_inputs(want.inputs))
        assert [type(v) for v in got.inputs] == [type(v) for v in want.inputs]
        assert type(got.margin) is type(got.lhs) is type(got.bound) is float
        for field in ("lhs", "bound", "margin"):
            assert _bits(getattr(got, field)) == _bits(float(getattr(want, field))), field


# sample counts around a chunk boundary, drawn under a small chunk size so
# that the per-sample oracles stay cheap
SMALL_CHUNK = 100
SIZES = [0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1]
small_chunk = st.just(SMALL_CHUNK)


@contextmanager
def chunk_size(chunk):
    """The library's real-sample chunk size set to ``chunk`` for the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(framework, "CHUNK", chunk)
        yield


# a sample set that raises a DomainError one draw in four
rarely = st.sampled_from([False, False, False, True])

# both zeros, exact ties, non-finite values and reals from the unit scale up
_REALS = [0.0, -0.0, 1e-13, 1e-5, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, math.nan]


def _real_pairs(seed, size, negative=False, finite=False):
    """``size`` pairs of Python floats: pool values (but nan if ``finite``)
    and uniform reals in [0, 4], one negative coordinate if ``negative``."""
    rng = seeded_rng(seed)
    pool = np.concatenate([_REALS[:-1] if finite else _REALS, rng.uniform(0.0, 4.0, 40)])
    rows = pool[rng.integers(0, pool.size, size=(size, 2))]
    if negative and size:
        rows[rng.integers(0, size), rng.integers(0, 2)] = -0.5
    return [tuple(row) for row in rows.tolist()]


def _scalar_only(fn):
    # written for single samples: math functions reject arrays
    return lambda *args: fn(*(float(a) for a in args))


ZETAS = [
    zeta1(0.5),
    SimulationFunction(lambda t, s: s - t, name="subtraction"),
    SimulationFunction(lambda t, s: 0.5 * s - t + 1e-9, name="shifted"),
    SimulationFunction(_scalar_only(lambda t, s: math.sqrt(s) - t - 1.0), name="scalar"),
    # infinite above s = 3: a DomainError on both paths
    SimulationFunction(lambda t, s: np.where(s > 3.0, np.inf, 0.5 * s - t), name="blow-up"),
]


@given(size=st.sampled_from(SIZES), chunk=small_chunk, seed=st.integers(0, 2 ** 32 - 1),
       zeta=st.sampled_from(ZETAS), negative=rarely, as_array=st.booleans())
@example(size=CHUNK + 1, chunk=CHUNK, seed=1, zeta=ZETAS[1], negative=False, as_array=False)
@example(size=SMALL_CHUNK, chunk=SMALL_CHUNK, seed=2, zeta=ZETAS[2], negative=False,
         as_array=True)
@settings(max_examples=25, deadline=None)
def test_simulation_pointwise_matches_the_per_sample_loop(size, chunk, seed, zeta, negative,
                                                          as_array):
    samples = _real_pairs(seed, size, negative)
    given_samples = np.array(samples).reshape(-1, 2) if as_array else samples
    with chunk_size(chunk):
        block = _outcome(check_simulation_pointwise, zeta, given_samples)
    assert_same_report(block, _outcome(oracle_simulation_pointwise, zeta, samples))


def test_simulation_pointwise_reads_minus_zero_as_the_origin():
    zeta = SimulationFunction(lambda t, s: s - t + 1.0, name="lifted")
    samples = [(-0.0, 0.0), (0.0, -0.0), (1.0, 0.0)]
    block = check_simulation_pointwise(zeta, samples)
    assert block.samples == 2  # the one-zero sample is not counted
    assert [w.inputs for w in block.witnesses] == [(0.0, 0.0)] * 2
    assert_same_report(block, oracle_simulation_pointwise(zeta, samples))


CCLASS = [
    cclass_a(0.0), cclass_a(0.5), cclass_c(1.0, 2.0),
    CClassFunction(lambda s, t: s + t, name="sum"),
    CClassFunction(lambda s, t: s + 0.0 * t, name="identity"),
    CClassFunction(lambda s, t: t, c_g=0.25, name="swap"),
    CClassFunction(_scalar_only(lambda s, t: s / (1.0 + math.exp(-t))), name="scalar"),
    # infinite past t = 3: a DomainError on both paths, as any G at a nan sample
    CClassFunction(lambda s, t: np.where(t > 3.0, np.inf, s - t), name="blow-up"),
]


# s - t a hair above tol where G exceeds c_g, and G a hair above c_g + tol
# on the s = 0 row: rows that the rule reads on their margins otherwise than
# ``s > t + tol`` and ``G > c_g + tol`` read them
BENCHMARK_EDGE = CClassFunction(lambda s, t: 0.0 * s + 1.0, name="one")
ZERO_ROW_EDGE = CClassFunction(lambda s, t: 0.0 * s + 1.000000000001, c_g=1.0, name="above-one")
real_pairs = st.builds(_real_pairs, st.integers(0, 2 ** 32 - 1), st.sampled_from(SIZES), rarely)


@given(samples=real_pairs, chunk=small_chunk, g=st.sampled_from(CCLASS),
       finite=st.sampled_from([True, True, False]))
@example(samples=_real_pairs(3, CHUNK + 1), chunk=CHUNK, g=CCLASS[5], finite=True)
@example(samples=_real_pairs(4, SMALL_CHUNK - 1), chunk=SMALL_CHUNK, g=CCLASS[4], finite=True)
@example(samples=[(1.000000000001, 1.0)], chunk=SMALL_CHUNK, g=BENCHMARK_EDGE, finite=True)
@example(samples=[(0.0, 1.0)], chunk=SMALL_CHUNK, g=ZERO_ROW_EDGE, finite=True)
@settings(max_examples=25, deadline=None)
def test_cclass_matches_the_per_sample_loop(samples, chunk, g, finite):
    if finite:  # a nan sample makes any of these G non-finite
        samples = [(0.0 if math.isnan(s) else s, 1.0 if math.isnan(t) else t)
                   for s, t in samples]
    with chunk_size(chunk):
        block = _outcome(check_cclass, g, samples)
    assert_same_report(block, _outcome(oracle_cclass, g, samples))


BETAS = [
    beta_reciprocal(), beta_constant(0.5),
    GeraghtyBeta(lambda t: 1.0 - t, name="descending"),  # negative past t = 1
    GeraghtyBeta(_scalar_only(lambda t: math.exp(-t)), name="scalar"),
    GeraghtyBeta(lambda t: np.where(t > 3.0, np.inf, 0.5), name="blow-up"),
]
PROBES = [(), default_beta_probes(), [np.full(40, 2.0), [0.5, math.nan]]]


@given(size=st.sampled_from(SIZES), chunk=small_chunk, seed=st.integers(0, 2 ** 32 - 1),
       beta=st.sampled_from(BETAS), probes=st.sampled_from(PROBES), negative=rarely)
@example(size=CHUNK, chunk=CHUNK, seed=5, beta=BETAS[2], probes=PROBES[1], negative=False)
@settings(max_examples=25, deadline=None)
def test_geraghty_matches_the_per_sample_loop(size, chunk, seed, beta, probes, negative):
    samples = [t for t, _ in _real_pairs(seed, size, negative, finite=True)]
    with chunk_size(chunk):
        block = _outcome(check_geraghty, beta, samples, probes)
    assert_same_report(block, _outcome(oracle_geraghty, beta, samples, probes))


def _message(check, *args):
    """The report of ``check(*args)``, or the message of the DomainError it
    raised."""
    try:
        return check(*args)
    except DomainError as exc:
        return str(exc)


def assert_same_outcome(block, oracle):
    """The same report, or the same DomainError message on both paths."""
    if isinstance(block, str) or isinstance(oracle, str):
        assert block == oracle
    else:
        assert_same_report(block, oracle)


# probe pairs: both defaults, equal constant sequences (a zero limsup for
# s - t) and sequences above s = 3, where the blow-up zeta is infinite
SEQUENCE_PROBES = [
    default_sequence_probes("classic"), default_sequence_probes("roldan"),
    [(np.full(40, 2.0), np.full(40, 2.0)), probe_pair(1.0, 7)],
    [probe_pair(3.0, 120, t_offset=-0.5, s_offset=0.5, start=2)],
]


@pytest.mark.parametrize("probes", range(len(SEQUENCE_PROBES)))
@pytest.mark.parametrize("zeta", ZETAS + [SimulationFunction(
    lambda t, s: s - t, name="roldan-subtraction", sequence_axiom="roldan")],
    ids=lambda zeta: zeta.name)
def test_simulation_sequences_match_the_per_term_loop(zeta, probes):
    pairs = SEQUENCE_PROBES[probes]
    assert_same_outcome(_message(check_simulation_sequences, zeta, pairs),
                        _message(oracle_simulation_sequences, zeta, pairs))


@pytest.mark.parametrize("beta", BETAS, ids=lambda beta: beta.name)
@pytest.mark.parametrize("probes", range(len(PROBES)))
def test_geraghty_limit_probes_match_the_per_term_loop(beta, probes):
    # the blow-up beta is infinite on the tail of np.full(40, 4.0)
    samples = [0.0, 0.5, 2.0]
    for seqs in (PROBES[probes], [np.full(40, 4.0)]):
        assert_same_outcome(_message(check_geraghty, beta, samples, seqs),
                            _message(oracle_geraghty, beta, samples, seqs))


def test_limit_probes_evaluate_each_tail_in_one_call():
    calls = []

    def counted(fn):
        return lambda *args: calls.append(np.shape(args[0])) or fn(*args)

    zeta = SimulationFunction(counted(lambda t, s: 0.5 * s - t), name="counted")
    check_simulation_sequences(zeta, default_sequence_probes())
    beta = GeraghtyBeta(counted(lambda t: 1.0 / (1.0 + t)), name="counted")
    check_geraghty(beta, [], default_beta_probes())
    # 200-term probes: a tail of 50 terms each, 3 probes per check
    assert calls == [(50,)] * 6
    # a tail of one term reaches the callable once too, as an array
    check_simulation_sequences(zeta, [probe_pair(2.0, length=1)])
    assert calls[6:] == [(1,)]


def _trace(seed, size, as_ints):
    """A trace with ``size`` defined ratios among omitted ones."""
    rng = seeded_rng(seed)
    omitted = size // 5
    gaps = rng.uniform(0.0, 1.0, size + omitted + 1)
    # a gap below the ratio floor omits the ratio that divides by it
    gaps[rng.choice(size + omitted, omitted, replace=False)] = 1e-14
    gaps = gaps.tolist()
    if as_ints:
        gaps = [int(10 * g) + 1 if g > 1e-14 else 0 for g in gaps]
    return IterationTrace(final=0.0, gaps=gaps, termination="max_iterations", residual=0.0)


# one ratio whose margin b - x = -1.0000889e-12 is below -tol, where
# x > b + tol does not hold: b + tol rounds up to x
RATIO_EDGE = 1.0872499829318458
EDGE_TRACE = IterationTrace(0.0, [1.0, RATIO_EDGE], "converged", 0.0)
EDGE_BETA = GeraghtyBeta(lambda t: np.full(np.shape(t), 1.0872499829308457), name="edge")
# within the default limit_tol (1e-9) of 1, and below 1 by more than SCALAR_EPS
LIMIT_EDGE = GeraghtyBeta(lambda t: np.full(np.shape(t), 1.0 - 5e-10), name="near-one")


@given(trace=st.builds(_trace, st.integers(0, 2 ** 32 - 1), st.sampled_from(SIZES),
                       st.booleans()),
       chunk=small_chunk, beta=st.sampled_from(BETAS))
@example(trace=_trace(6, CHUNK + 1, False), chunk=CHUNK, beta=BETAS[1])
@example(trace=EDGE_TRACE, chunk=SMALL_CHUNK, beta=EDGE_BETA)
@settings(max_examples=25, deadline=None)
def test_ratio_bound_matches_the_per_step_loop(trace, chunk, beta):
    with chunk_size(chunk):
        block = _outcome(check_ratio_bound, trace, beta)
    assert_same_report(block, _outcome(oracle_ratio_bound, trace, beta))


def test_a_ratio_a_hair_past_its_bound_fails():
    report = check_ratio_bound(EDGE_TRACE, EDGE_BETA)
    assert report.status == "fail"
    assert report.witnesses[0].margin == 1.0872499829308457 - RATIO_EDGE < -SCALAR_EPS


def _halving_map(x):
    return x / 2.0 + 0.25 if x < 2.0 else 0.5 * x


SCALAR_MAPS = [example31_map, _halving_map, lambda x: 3.0 * x, lambda x: 1.0 - x,
               lambda x: x + 0.3]
SCALAR_ALPHAS = [
    alpha_box(0.0, 1.0), alpha_one(), alpha_from_order(natural_order),
    AlphaFunction(lambda x, y: 1.0 if abs(x - y) <= 1.0 else 0.0, name="near"),
    # negative where x < y: a DomainError on both paths
    AlphaFunction(lambda x, y: x - y + 1.0, name="signed-gap"),
]
# the least alpha whose margin alpha - 1 is not below -tol, and the one below it
_ALPHA_HELD = 1.0 - SCALAR_EPS
ALPHA_EDGE = AlphaFunction(lambda x, y: np.where(
    np.abs(x - y) > 1.0, np.nextafter(_ALPHA_HELD, 0.0),
    np.where(np.abs(x - y) > 0.5, _ALPHA_HELD, 1.0)), name="edge")


def _with_chunk(shift, size, check, *args):
    """``check(*args)`` with the chunk size at ``size + shift`` (at the
    library's CHUNK if ``shift`` is None)."""
    with chunk_size(CHUNK if shift is None else max(size + shift, 1)):
        return _outcome(check, *args)


# orbit lengths whose index-pair counts (1, 3, 45 and 4095) the drawn shift
# puts at, just below or just above a chunk size; an orbit has at least one
# pair, so the size 0 does not occur. Under the library's CHUNK (shift None)
# these fit in one chunk, and the orbit of length 180 (16110 pairs) spans two.
@given(length=st.sampled_from([2, 3, 10, 91]), shift=st.sampled_from([-1, 0, 1, None]),
       mapping=st.sampled_from(SCALAR_MAPS), alpha=st.sampled_from(SCALAR_ALPHAS),
       x0=st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.5, -0.25]))
@example(length=180, shift=None, mapping=_halving_map, alpha=SCALAR_ALPHAS[0], x0=0.2)
@example(length=91, shift=None, mapping=SCALAR_MAPS[3], alpha=SCALAR_ALPHAS[2], x0=0.2)
@example(length=10, shift=0, mapping=SCALAR_MAPS[2], alpha=SCALAR_ALPHAS[0], x0=0.2)
@example(length=10, shift=1, mapping=SCALAR_MAPS[2], alpha=SCALAR_ALPHAS[3], x0=0.2)
@example(length=10, shift=-1, mapping=SCALAR_MAPS[3], alpha=SCALAR_ALPHAS[4], x0=0.2)
# orbit points 0.3 apart: alpha is 1 at the start, then at the tolerance
@example(length=10, shift=None, mapping=SCALAR_MAPS[4], alpha=ALPHA_EDGE, x0=0.0)
@settings(max_examples=60, deadline=None)
def test_alpha_orbit_matches_the_pair_loop(length, shift, mapping, alpha, x0):
    block = _with_chunk(shift, length * (length - 1) // 2,
                        check_alpha_orbit, mapping, alpha, x0, length - 1)
    assert_same_report(block, _outcome(oracle_alpha_orbit, mapping, alpha, x0, length - 1))


def test_alpha_orbit_on_grid_functions():
    c = np.linspace(0.0, 1.0, 9) ** 2
    order = alpha_from_order(pointwise_order)
    # an ascending orbit, one that oscillates about c / 2, and one that starts down
    for T, x0, status in ((lambda x: 0.5 * (x + c), np.zeros(9), "pass"),
                          (lambda x: c - x, np.zeros(9), "fail"),
                          (lambda x: 0.5 * x, np.ones(9), HYPOTHESIS_UNMET)):
        block = check_alpha_orbit(T, order, x0, 6)
        assert block.status == status
        assert_same_report(block, oracle_alpha_orbit(T, order, x0, 6))


def test_alpha_orbit_keeps_int_indices():
    report = check_alpha_orbit(lambda x: 3.0 * x, alpha_box(0.0, 1.0), 0.2, 5)
    assert (1, 2) in {w.inputs for w in report.witnesses}
    assert all(type(i) is int for w in report.witnesses for i in w.inputs)
    assert report.witnesses[0].detail.startswith("alpha(x_0, x_2) = 0.0")


ORDERS = [natural_order, PartialOrder(lambda x, y: abs(x - y) <= 1.0, name="near"),
          PartialOrder(lambda x, y: True, name="always"),
          PartialOrder(_scalar_only(lambda x, y: x <= y + 0.5), name="scalar")]


def _bad_above(limit):
    def T(x):
        if np.any(np.asarray(x) > limit):
            raise DomainError("left the carrier")
        return 0.5 * x + 0.2
    return T


@given(size=st.sampled_from(SIZES), chunk=small_chunk, seed=st.integers(0, 2 ** 32 - 1),
       mapping=st.sampled_from(SCALAR_MAPS + [_bad_above(3.5)]),
       order=st.sampled_from(ORDERS))
@example(size=CHUNK - 1, chunk=CHUNK, seed=10, mapping=_halving_map, order=ORDERS[1])
@settings(max_examples=25, deadline=None)
def test_increasing_matches_the_per_pair_loop(size, chunk, seed, mapping, order):
    pairs = _real_pairs(seed, size, finite=True)
    with chunk_size(chunk):
        block = _outcome(check_increasing, mapping, order, pairs)
    assert_same_report(block, _outcome(oracle_increasing, mapping, order, pairs))


def test_increasing_on_grid_functions():
    rng = seeded_rng(9)
    xs = rng.uniform(0.0, 1.0, (40, 7))
    pairs = [(x, x + shift) for x, shift in zip(xs, rng.uniform(-0.2, 0.4, (40, 1)))]
    for T in (lambda x: 0.5 * x + 0.1, lambda x: x[::-1], lambda x: 1.0 - x):
        block = check_increasing(T, pointwise_order, pairs)
        assert_same_report(block, oracle_increasing(T, pointwise_order, pairs))
        # the witnesses carry the sampled functions' node values
        assert {w.inputs[0].tobytes() for w in block.witnesses} <= \
            {x.tobytes() for x, _ in pairs}
    assert not block.passed  # a decreasing map breaks the order


# element counts n whose n, n**2 and n**3 tuples meet the drawn chunk size
@given(n=st.sampled_from([0, 1, 2, 5, 16]), shift=st.sampled_from([-1, 0, 1, None]),
       arity=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       order=st.sampled_from(ORDERS), finite=st.sampled_from([True, True, False]))
# 26**3 = 17576 triples span two of the library's chunks
@example(n=26, shift=None, arity=3, seed=7, order=ORDERS[1], finite=True)
@settings(max_examples=40, deadline=None)
def test_order_axioms_match_the_tuple_loops(n, shift, arity, seed, order, finite):
    rng = seeded_rng(seed)
    elements = rng.choice([0.0, 0.25, 0.5, 1.0, 1.25, 2.5, 3.0, math.inf], n).tolist()
    if finite:  # d(inf, inf) raises a DomainError
        elements = [min(x, 5.0) for x in elements]
    block = _with_chunk(shift, n ** arity, check_order_axioms, order, elements, scalar_metric)
    assert_same_report(block, _outcome(oracle_order_axioms, order, elements, scalar_metric))
    if block is not DomainError:
        assert block.samples == n + n ** 2 + n ** 3


def test_order_axioms_keep_the_elements_as_inputs():
    elements = [0, 1, 2]  # ints are stacked as floats at the gate
    near = PartialOrder(lambda x, y: abs(x - y) <= 1.0, name="near")
    block = check_order_axioms(near, elements, scalar_metric)
    assert_same_report(block, oracle_order_axioms(near, [0.0, 1.0, 2.0], scalar_metric))
    assert {w.check for w in block.witnesses} == {"order/antisymmetric", "order/transitive"}
    fns = [np.zeros(6), np.ones(6), np.linspace(0, 1, 6), np.linspace(1, 0, 6)]
    block = check_order_axioms(pointwise_order, fns, sup_metric)
    assert_same_report(block, oracle_order_axioms(pointwise_order, fns, sup_metric))
    assert block.passed


RHS = [lambda t, x: 2.0 * np.asarray(x, dtype=float), rhs_sin_plus_one, rhs_const(2.0),
       rhs_pi2sin, compile_rhs_expression("10*x*t"),
       # infinite past x = 1.5: the operator on such a constant raises a DomainError
       lambda t, x: np.where(np.asarray(x) > 1.5, np.inf, np.sin(3.0 * np.asarray(x)) * t)]
GATES = [None, lambda a, b: 1.2 - np.abs(a - b),
         _scalar_only(lambda a, b: 1.0 if a <= b + 0.5 else -1.0), lambda a, b: -1.0]
# t*n lands halfway between nodes at n = 4: round() goes to the even node
_TIMES = [0.0, 0.125, 0.375, 0.5, 0.625, 0.875, 1.0]


def _triples(seed, size, fault):
    rng = seeded_rng(seed)
    ts = np.concatenate([_TIMES, rng.uniform(0.0, 1.0, 10)])
    values = np.concatenate([[0.0, -0.0, 0.5, 1.0, -1.0, 2.0], rng.uniform(-2.0, 2.0, 20)])
    rows = np.stack([ts[rng.integers(0, ts.size, size)],
                     values[rng.integers(0, values.size, size)],
                     values[rng.integers(0, values.size, size)]], axis=-1)
    if fault and size:  # a time off [0, 1], or a value the operator rejects
        rows[rng.integers(0, size), {"t": 0, "nan": 1}[fault]] = \
            1.5 if fault == "t" else math.nan
    return [tuple(row) for row in rows.tolist()]


# at (0.5, 0, 1) the bound is |a - b| = 1 and |f(t, a) - f(t, b)| is the
# factor, whose margin 1 - factor is below -tol where factor > 1 + tol is not
def RHS_EDGE(t, x):
    return 1.000000001 * np.asarray(x, dtype=float)


@given(triples=st.builds(_triples, st.integers(0, 2 ** 32 - 1), st.sampled_from(SIZES),
                         st.sampled_from([None, None, "t", "nan"])),
       chunk=small_chunk, rhs=st.sampled_from(RHS), gate=st.sampled_from(GATES))
@example(triples=_triples(8, CHUNK + 1, None), chunk=CHUNK, rhs=RHS[0], gate=GATES[1])
@example(triples=_triples(9, SMALL_CHUNK, None), chunk=SMALL_CHUNK, rhs=RHS[2], gate=GATES[2])
@example(triples=[(0.5, 0.0, 1.0)], chunk=SMALL_CHUNK, rhs=RHS_EDGE, gate=None)
@settings(max_examples=25, deadline=None)
def test_rhs_displacement_matches_the_per_triple_loop(triples, chunk, rhs, gate):
    problem = BVPProblem(rhs=rhs, n=4, gate=gate)
    with chunk_size(chunk):
        block = _outcome(check_rhs_displacement_bound, problem, triples)
    assert_same_report(block, _outcome(oracle_rhs_displacement_bound, problem, triples))


def test_rhs_displacement_counts_only_gated_triples():
    problem = BVPProblem(rhs=lambda t, x: 2.0 * np.asarray(x, float), n=4,
                         gate=lambda a, b: 1.0 if a > b else -1.0)
    triples = [(0.125, 1.0, 0.0), (0.375, 0.0, 1.0), (0.625, 2.0, 1.0)]
    block = check_rhs_displacement_bound(problem, triples)
    assert block.samples == 2
    assert_same_report(block, oracle_rhs_displacement_bound(problem, triples))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rhs_displacement_applies_the_operator_to_the_constants_of_np_unique(monkeypatch, seed):
    # constants drawn from a small pool, so that they repeat, with zeros of
    # both signs: T applies once, to the constants np.unique gives (0.0 and
    # -0.0 as one), and the report is the one that np.unique's stack gives
    pool = np.array([0.0, -0.0, 0.5, -1.0, 2.0])
    rng = seeded_rng(seed)
    triples = np.column_stack([rng.integers(0, 5, 40) / 4.0, pool[rng.integers(0, 5, (40, 2))]])
    problem = BVPProblem(rhs=lambda t, x: 2.0 * np.asarray(x, float), n=4)
    evaluate, stacks = framework.evaluate_block, []

    def recorded(f, g, *args, unique=False):
        if f is g:  # the operator, on the stack of constants
            stacks.append(args[0])
            if unique:
                args = (np.repeat(np.unique(triples[:, 1:])[:, None], problem.n + 1, axis=1),)
        return evaluate(f, g, *args)

    monkeypatch.setattr(framework, "evaluate_block", recorded)
    block = check_rhs_displacement_bound(problem, triples)
    assert len(stacks) == 1 and np.array_equal(stacks[0][:, 0], np.unique(triples[:, 1:]))
    assert {math.copysign(1.0, x) for x in triples[:, 1:].ravel() if x == 0.0} == {-1.0, 1.0}
    monkeypatch.setattr(framework, "evaluate_block", partial(recorded, unique=True))
    assert_same_report(block, check_rhs_displacement_bound(problem, triples))
    assert_same_report(block, oracle_rhs_displacement_bound(problem, triples))
    # a nan constant: the same DomainError on both stacks
    triples[7, 2] = math.nan
    for unique in (False, True):
        monkeypatch.setattr(framework, "evaluate_block", partial(recorded, unique=unique))
        with pytest.raises(DomainError, match="^grid function contains non-finite values$"):
            check_rhs_displacement_bound(problem, triples)


def test_rhs_displacement_does_not_import_numpy_ma():
    # np.unique's first call imports numpy.ma (about 1.3 MB of modules)
    code = ("import sys\nfrom picardkit import BVPProblem, check_rhs_displacement_bound\n"
            "problem = BVPProblem(rhs=lambda t, x: x / 2.0, n=4)\n"
            "assert check_rhs_displacement_bound(problem, [(0.5, 1.0, 0.0), (0.5, 0.0, -0.0)])"
            ".passed\nassert 'numpy.ma' not in sys.modules\n")
    src = str(Path(framework.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# The verdict rule itself, on every oracle-backed verifier: the witnesses are
# exactly the rows whose margin breaks their clause's rule.

STRICT = {"simulation/strict", "simulation/limit", "geraghty/range", "geraghty/limit",
          "cclass/benchmark"}
# a limit probe breaks its rule where its least tail argument is at least the
# separation: its margin is minus that argument, under the tolerance -separation
TOLERANCES = {"geraghty/limit": -1e-6}


def _orbit_case(seed, size):
    mapping, alpha = SCALAR_MAPS[seed % 5], SCALAR_ALPHAS[seed // 5 % 5]
    return check_alpha_orbit, oracle_alpha_orbit, (mapping, alpha, 0.2, 1 + size % 20)


def _order_case(seed, size):
    elements = seeded_rng(seed).choice([0.0, 0.25, 0.5, 1.0, 1.25, 2.5, 3.0], size % 7)
    return check_order_axioms, oracle_order_axioms, (ORDERS[seed % 4], elements.tolist(),
                                                     scalar_metric)


def _rhs_case(seed, size):
    problem = BVPProblem(rhs=RHS[seed % 6], n=4, gate=GATES[seed % 4])
    return check_rhs_displacement_bound, oracle_rhs_displacement_bound, \
        (problem, _triples(seed, size, None))


# name: (seed, size) -> (verifier, its oracle, their arguments)
RULE_CASES = {
    "simulation-pointwise": lambda seed, size: (
        check_simulation_pointwise, oracle_simulation_pointwise,
        (ZETAS[seed % 5], _real_pairs(seed, size))),
    "simulation-limits": lambda seed, size: (
        check_simulation_sequences, oracle_simulation_sequences,
        (ZETAS[seed % 5], SEQUENCE_PROBES[seed % 4])),
    "cclass": lambda seed, size: (
        check_cclass, oracle_cclass, (CCLASS[seed % 8], _real_pairs(seed, size, finite=True))),
    "geraghty": lambda seed, size: (
        check_geraghty, oracle_geraghty,
        (BETAS[seed % 5], [t for t, _ in _real_pairs(seed, size, finite=True)])),
    "ratio-bound": lambda seed, size: (
        check_ratio_bound, oracle_ratio_bound, (_trace(seed, size, False), BETAS[seed % 5])),
    "alpha-orbit": _orbit_case,
    "increasing": lambda seed, size: (
        check_increasing, oracle_increasing,
        (SCALAR_MAPS[seed % 5], ORDERS[seed % 4], _real_pairs(seed, size, finite=True))),
    "order-axioms": _order_case,
    "rhs-displacement": _rhs_case,
    # the boundary rows of the properties above
    "edge: benchmark": lambda seed, size: (
        check_cclass, oracle_cclass, (BENCHMARK_EDGE, [(1.000000000001, 1.0)])),
    "edge: zero-row": lambda seed, size: (
        check_cclass, oracle_cclass, (ZERO_ROW_EDGE, [(0.0, 1.0)])),
    "edge: ratio": lambda seed, size: (
        check_ratio_bound, oracle_ratio_bound, (EDGE_TRACE, EDGE_BETA)),
    "edge: orbit": lambda seed, size: (
        check_alpha_orbit, oracle_alpha_orbit, (SCALAR_MAPS[4], ALPHA_EDGE, 0.0, 9)),
    "edge: displacement": lambda seed, size: (
        check_rhs_displacement_bound, oracle_rhs_displacement_bound,
        (BVPProblem(rhs=RHS_EDGE, n=4), [(0.5, 0.0, 1.0)])),
    # tails whose least argument is the separation and the floats either side
    "edge: limit": lambda seed, size: (
        check_geraghty, oracle_geraghty,
        (LIMIT_EDGE, [0.5], [np.full(30, t) for t in (1e-6, *np.nextafter(1e-6, [0.0, 1.0]))])),
}


@given(case=st.sampled_from(sorted(RULE_CASES)), seed=st.integers(0, 2 ** 32 - 1),
       size=st.sampled_from(SIZES))
@example(case="edge: benchmark", seed=0, size=0)
@example(case="edge: zero-row", seed=0, size=0)
@example(case="edge: ratio", seed=0, size=0)
@example(case="edge: orbit", seed=0, size=0)
@example(case="edge: displacement", seed=0, size=0)
@example(case="edge: limit", seed=0, size=0)
@settings(max_examples=60, deadline=None)
def test_the_witnesses_are_the_rows_that_break_the_rule(case, seed, size):
    check, oracle, args = RULE_CASES[case](seed, size)
    with chunk_size(SMALL_CHUNK):
        block = _outcome(check, *args)
    with deciding() as decided:
        want = _outcome(oracle, *args)
    if block is DomainError or want is DomainError:
        assert block is want
        return
    # every witness breaks its clause's rule on its own margin ...
    for w in block.witnesses:
        tol = 0.0 if w.check.startswith("order/") else TOLERANCES.get(w.check, block.tolerance)
        assert breaks(w.check, w.margin, tol, w.check in STRICT), w
    # ... and is one of the rows the oracle found to break it, so a passing
    # report has no such row
    broken = sorted((check, _bits(margin)) for check, margin, broke in decided if broke)
    assert sorted((w.check, _bits(w.margin)) for w in block.witnesses) == broken
    assert not block.passed or not broken
