"""Contraction-framework verifiers: worked examples with independently
computed expectations, witness replay, order-independence properties, and
the block verifiers against per-sample reference loops."""

import copy
import math
import random
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import picardkit
from picardkit import (CONVERGED, GRID_EPS, SCALAR_EPS, AlphaFunction, BVPProblem,
                       CClassFunction, ContractionBundle, DimensionError, DomainError,
                       GeraghtyBeta, IterationTrace, PicardConfig, SimulationFunction,
                       alpha_from_order, bvp_operator, check_alpha_admissible,
                       check_alpha_orbit, check_cclass, check_gate_limit,
                       check_gate_propagation, check_geraghty, check_increasing,
                       check_initial_point, check_operator_contraction, check_order_axioms,
                       check_ratio_bound, check_rhs_displacement_bound,
                       check_simulation_pointwise, check_simulation_sequences,
                       check_triangular_alpha,
                       natural_order, picard_iterate, pointwise_order, scalar_metric,
                       sup_metric, verify_contraction)
from picardkit.builtins import (alpha_box,
                                beta_constant, beta_reciprocal, bvp_bundle,
                                cclass_a, cclass_c, example31_bundle,
                                example31_map, resolve, rhs_sin_plus_one, rhs_zero, zeta1)
from picardkit import framework
from picardkit import report as report_module
from picardkit.bvp import alpha_from_gate, operator_contraction_check
from picardkit.framework import (CHUNK, MIN_TAIL, BlockCheck, alpha_admissible_check, check_pairs,
                                 contraction_check, evaluate_block)
from picardkit.metrics import rowwise
from picardkit.report import (CAVEAT, FAIL, HYPOTHESIS_UNMET, PASS, FailingRows,
                              VerificationReport, Witness, format_inputs,
                              render_text, report_rows)
from picardkit.sampling import Draw, Mesh, SampleStream, probe_pair, seeded_rng

from helpers import alpha_one, cclass_b, make_report, merge_reports, sort_key


def max_displacement(T, x, y, d):
    """Displacement gauge ``max{d(x, y), d(x, Tx), d(y, Ty)}``, one pair at a
    time: the reference for the gauge the block verifier computes."""
    return max(d(x, y), d(x, T(x)), d(y, T(y)))


class TestMaxDisplacement:
    def test_identity_map(self):
        # d(x, Tx) = d(y, Ty) = 0, so the gauge is just d(x, y)
        assert max_displacement(lambda x: x, 0.2, 0.9, scalar_metric) == pytest.approx(0.7)

    def test_shrink_map_endpoints(self):
        # T(x) = x/3 on [0, 1]: max{1, 2/3, 0} = 1
        assert max_displacement(lambda x: x / 3.0, 1.0, 0.0, scalar_metric) == 1.0

    def test_equal_points(self):
        # x = y = 0.9: max{0, 0.9 - 0.3, 0.9 - 0.3} = 0.6
        value = max_displacement(lambda x: x / 3.0, 0.9, 0.9, scalar_metric)
        assert value == pytest.approx(0.6, abs=1e-15)

    def test_mapping_leaving_domain_raises(self):
        with pytest.raises(DomainError):
            max_displacement(lambda x: float("inf"), 0.0, 1.0, scalar_metric)


class TestSimulationPointwise:
    def test_half_gain_passes(self):
        # zeta = 0.5 s - t: at (1, 2) value 0 < 1; at (0.1, 0.1) value -0.05 < 0
        zeta = zeta1(0.5)
        report = check_simulation_pointwise(zeta, [(1.0, 2.0), (0.1, 0.1)])
        assert report.passed and report.samples == 2

    def test_pure_subtraction_fails_everywhere(self):
        zeta = SimulationFunction(lambda t, s: s - t, name="subtraction")
        pairs = [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5)]
        report = check_simulation_pointwise(zeta, pairs)
        assert not report.passed
        assert len(report.witnesses) == len(pairs)  # equality is never strict

    def test_example31_gain_on_mesh(self):
        # (8/9) s - t stays below s - t by s/9 > 0 on the open square
        zeta = zeta1(8.0 / 9.0)
        pairs = Mesh(0.01, 1.0, 100)[:]
        report = check_simulation_pointwise(zeta, pairs)
        assert report.passed and report.samples == 10_000

    def test_origin_clause(self):
        shifted = SimulationFunction(lambda t, s: 0.5 * s - t + 1.0, name="shifted")
        report = check_simulation_pointwise(shifted, [(0.0, 0.0)])
        assert not report.passed
        assert report.witnesses[0].check == "simulation/origin"

    def test_negative_sample_rejected(self):
        with pytest.raises(DomainError):
            check_simulation_pointwise(zeta1(0.5), [(-1.0, 1.0)])


class TestSimulationSequences:
    def test_half_gain_common_limit(self):
        # t_n = s_n = 1 + 1/n: zeta -> 0.5 * 1 - 1 = -0.5
        zeta = zeta1(0.5)
        report = check_simulation_sequences(zeta, [probe_pair(1.0, 200)])
        assert report.passed and report.mode == "falsification"

    def test_subtraction_fails_under_one_sided_probe(self):
        # zeta = s - t with t_n = 1 - 1/n < s_n = 1: tail values 1/n -> 0,
        # so the limsup estimate is not negative; the estimate is the max
        # over the final quarter (n = 152..201), attained at n = 152
        zeta = SimulationFunction(lambda t, s: s - t, name="subtraction",
                                  sequence_axiom="roldan")
        probes = [probe_pair(1.0, 200, t_offset=-1.0, s_offset=0.0, start=2)]
        report = check_simulation_sequences(zeta, probes)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.lhs == pytest.approx(1.0 / 152.0, rel=1e-12)

    def test_constant_probes(self):
        # t_n = s_n = 2 for zeta1(8/9): value -2/9 < 0 throughout the tail
        zeta = zeta1(8.0 / 9.0)
        report = check_simulation_sequences(
            zeta, [probe_pair(2.0, 120, t_offset=0.0, s_offset=0.0)])
        assert report.passed

    def test_nonpositive_terms_rejected(self):
        with pytest.raises(DomainError):
            check_simulation_sequences(zeta1(0.5), [([0.0, 1.0], [1.0, 1.0])])

    def test_roldan_ordering_enforced(self):
        zeta = SimulationFunction(lambda t, s: 0.5 * s - t, sequence_axiom="roldan")
        with pytest.raises(DomainError):
            check_simulation_sequences(zeta, [probe_pair(1.0, 50)])  # t_n == s_n

    def test_a_non_finite_term_is_refused(self):
        with pytest.raises(DomainError) as raised:
            check_simulation_sequences(zeta1(0.5), [([1.0, np.nan], [1.0, 1.0])])
        assert str(raised.value) == "probe pair 0 contains non-finite terms"


def test_a_short_probe_reads_a_tail_of_at_least_one_term():
    # a quarter of 3 terms is none, and the floor of MIN_TAIL terms is more
    # than there are: the tail is the whole probe, not its last term
    assert MIN_TAIL > 3
    zeta = SimulationFunction(lambda t, s: s - t)
    report = check_simulation_sequences(zeta, [([1.0, 2.0, 1.0], [3.0, 2.5, 1.0])])
    assert [(w.inputs, w.detail) for w in report.witnesses] == [
        ((0, 1.0, 3.0), "tail limsup estimate 2.0 over 3 terms is not negative")]
    beta = GeraghtyBeta(lambda t: np.where(t > 0.5, 1.0, 0.5))
    report = check_geraghty(beta, [], [[1.0, 2.0, 2.0]])
    assert report.status == FAIL and report.witnesses[0].inputs == (0, 1.0)


@pytest.mark.parametrize("length, tail", [
    (1, 1), (3, 3), (MIN_TAIL - 1, MIN_TAIL - 1), (MIN_TAIL, MIN_TAIL), (MIN_TAIL + 1, MIN_TAIL),
    (4 * MIN_TAIL, MIN_TAIL), (4 * MIN_TAIL + 4, MIN_TAIL + 1), (200, 50)])
def test_a_probe_reads_its_last_quarter_and_at_least_min_tail_terms(length, tail):
    # the whole of a probe of up to MIN_TAIL terms, MIN_TAIL terms up to
    # 4 * MIN_TAIL + 3, then the last quarter; both limit checks read alike
    terms = np.arange(1.0, length + 1.0)  # increasing: a tail's least term is its first
    zeta = SimulationFunction(lambda t, s: s - t)
    report = check_simulation_sequences(zeta, [(terms, terms + 1.0)])
    assert [w.detail for w in report.witnesses] == [
        f"tail limsup estimate 1.0 over {tail} terms is not negative"]
    report = check_geraghty(GeraghtyBeta(lambda t: np.ones_like(t)), [], [terms])
    assert [w.inputs for w in report.witnesses] == [(0, float(length - tail + 1))]


class TestCClass:
    def test_subtraction_passes(self):
        samples = Mesh(0.0, 3.0, 20)[:]
        assert check_cclass(cclass_a(0.0), samples).passed

    def test_addition_fails_upper_bound(self):
        bad = CClassFunction(lambda s, t: s + t, c_g=0.0, name="addition")
        report = check_cclass(bad, [(1.0, 1.0), (0.0, 0.0)])
        assert not report.passed
        upper = [w for w in report.witnesses if w.check == "cclass/upper"]
        assert upper and upper[0].inputs == (1.0, 1.0)
        assert upper[0].lhs == 2.0 and upper[0].margin == -1.0

    def test_damped_ratio_family_passes(self):
        # G(s, t) = s / (1 + 2 t) with benchmark 2 / 3
        g = cclass_c(k=2.0, r=2.0)
        assert g.c_g == pytest.approx(2.0 / 3.0)
        samples = np.concatenate([Mesh(0.01, 5.0, 40)[:],
                                  [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)]])
        assert check_cclass(g, samples).passed

    def test_rational_offset_family_passes(self):
        samples = Mesh(0.0, 4.0, 25)[:]
        assert check_cclass(cclass_b(), samples).passed

    def test_benchmark_clause_catches_violation(self):
        # G = s + 1 exceeds any benchmark while s <= t remains possible
        bad = CClassFunction(lambda s, t: s + 1.0, c_g=0.5, name="lifted")
        report = check_cclass(bad, [(0.5, 2.0)])
        checks = {w.check for w in report.witnesses}
        assert "cclass/benchmark" in checks


class TestGeraghty:
    def test_reciprocal_range_fails_at_zero(self):
        # beta(t) = 1/(1+t) evaluates to exactly 1 at t = 0
        report = check_geraghty(beta_reciprocal(), [0.0, 0.5, 10.0])
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.inputs == (0.0,) and witness.lhs == 1.0
        # the other samples are fine: 2/3 and 1/11
        assert len(report.witnesses) == 1

    def test_constant_half_passes_with_probes(self):
        from picardkit.builtins import default_beta_probes
        report = check_geraghty(beta_constant(0.5), np.linspace(0.0, 10.0, 50),
                                default_beta_probes())
        assert report.passed

    def test_exponential_gain_passes_range(self):
        # range of 1 - exp(-1/(t+1)) on [0, 100] is inside (0, 1 - 1/e]
        beta = GeraghtyBeta(lambda t: 1.0 - np.exp(-1.0 / (t + 1.0)), name="expgain")
        report = check_geraghty(beta, np.linspace(0.0, 100.0, 200))
        assert report.passed

    def test_limit_probe_falsifies(self):
        # beta(t) = 1 - exp(-t) tends to 1 along t_n = n, which stays away
        # from 0: not a Geraghty gain
        beta = GeraghtyBeta(lambda t: 1.0 - np.exp(-t), name="saturating")
        probes = [np.arange(1.0, 201.0)]
        report = check_geraghty(beta, [0.0, 1.0], probes)
        assert any(w.check == "geraghty/limit" for w in report.witnesses)


class TestAlphaChecks:
    def test_box_indicator_admissible_for_shrink_map(self):
        pairs = Mesh(0.0, 3.0, 31)[:]
        report = check_alpha_admissible(example31_map, alpha_box(0.0, 1.0), pairs)
        assert report.passed

    def test_constant_weight_always_admissible(self):
        pairs = Mesh(-2.0, 2.0, 11)[:]
        assert check_alpha_admissible(lambda x: 3.0 * x, alpha_one(), pairs).passed

    def test_tripling_map_breaks_box_indicator(self):
        report = check_alpha_admissible(lambda x: 3.0 * x, alpha_box(0.0, 1.0),
                                        [(0.5, 0.5)])
        assert not report.passed
        assert report.witnesses[0].inputs == (0.5, 0.5)

    def test_triangular_box_indicator(self):
        triples = [(x, z, y) for x in (0.0, 0.5, 1.5)
                   for z in (0.0, 1.0) for y in (0.25, 2.0)]
        assert check_triangular_alpha(alpha_box(0.0, 1.0), triples).passed

    def test_triangular_constant(self):
        assert check_triangular_alpha(alpha_one(), [(0.0, 1.0, 2.0)]).passed

    def test_proximity_indicator_not_triangular(self):
        near = AlphaFunction(lambda x, y: 1.0 if abs(x - y) <= 1.0 else 0.0,
                             name="near")
        report = check_triangular_alpha(near, [(0.0, 1.0, 2.0)])
        assert not report.passed
        assert report.witnesses[0].inputs == (0.0, 1.0, 2.0)


class TestVerifyContraction:
    def test_reference_bundle_on_unit_square(self):
        bundle = example31_bundle()
        pairs = Mesh(0.0, 1.0, 51)[:]
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.passed

    def test_reference_bundle_outside_box_vacuous(self):
        # alpha = 0 there, so the left side is zeta(0, beta(M) M) >= 0
        bundle = example31_bundle()
        pairs = Mesh(1.5, 4.0, 21)[:]
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.passed

    def test_weak_gain_fails_with_expected_margin(self):
        # T = x/2, alpha = 1, beta = 0.4, zeta = s - t, pair (1, 0):
        # M = max{1, 0.5, 0} = 1 and zeta(0.5, 0.4) = -0.1
        from picardkit import ContractionBundle
        bundle = ContractionBundle(
            mapping=lambda x: x / 2.0,
            alpha=alpha_one(),
            beta=beta_constant(0.4),
            zeta=SimulationFunction(lambda t, s: s - t, name="subtraction"),
            g=cclass_a(0.0),
            name="weak")
        report = verify_contraction(bundle, [(1.0, 0.0)], scalar_metric)
        assert not report.passed
        witness = report.witnesses[0]
        assert witness.lhs == pytest.approx(-0.1, abs=1e-15)
        assert witness.bound == 0.0
        assert witness.margin == pytest.approx(-0.1, abs=1e-15)

    def test_witness_inputs_are_the_sampled_pair(self):
        bundle = example31_bundle()._replace(alpha=alpha_from_order(natural_order))
        # a list of tuples, stacked at the gate: witnesses take a sampled pair's values
        pairs = [tuple(row) for row in Mesh(0.0, 3.0, 11)[:].tolist()]
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.witnesses
        sampled = set(pairs)
        for witness in report.witnesses:
            assert witness.inputs in sampled
            assert all(type(value) is float for value in witness.inputs)
            assert type(witness.margin) is type(witness.lhs) is float

    def test_pass_implies_geraghty_inequality(self):
        # with G = s - t and benchmark 0 a passing check means
        # alpha * d(Tx, Ty) < beta(M) * M + tol on every sampled pair
        bundle = example31_bundle()
        rng = seeded_rng(7)
        pairs = np.concatenate([Mesh(0.0, 1.0, 21)[:], rng.uniform(0.0, 1.0, (100, 2))])
        report = verify_contraction(bundle, pairs, scalar_metric)
        assert report.passed
        for x, y in pairs.tolist():
            m = max_displacement(bundle.mapping, x, y, scalar_metric)
            lhs = bundle.alpha(x, y) * scalar_metric(bundle.mapping(x), bundle.mapping(y))
            assert lhs < bundle.beta(m) * m + 1e-9


class TestFamilies:
    def test_fields_after_fn_are_keyword_only(self):
        # a positional c_g would otherwise bind name silently
        with pytest.raises(TypeError):
            CClassFunction(lambda s, t: s - t, 0.5)
        with pytest.raises(TypeError):
            SimulationFunction(lambda t, s: s - t, "zeta", "roldan")
        g = CClassFunction(lambda s, t: s - t, c_g=0.5, name="shifted")
        assert (g.name, g.c_g, g(2.0, 0.5)) == ("shifted", 0.5, 1.5)

    def test_validity_rule_per_family(self):
        # every family rejects non-finite values; alpha also negative ones
        with pytest.raises(DomainError, match="is not finite"):
            GeraghtyBeta(lambda t: math.inf)(1.0)
        assert SimulationFunction(lambda t, s: -1.0)(0.0, 0.0) == -1.0
        with pytest.raises(DomainError, match="finite and nonnegative"):
            AlphaFunction(lambda x, y: -1.0)(0.0, 0.0)
        alpha = AlphaFunction(lambda x, y: x - y)
        valid = alpha.valid(np.array([0.0, 1.0, -1.0, np.nan]))
        assert valid.tolist() == [True, True, False, False]
        assert alpha.values(np.array([2.0, 3.0]), np.array([1.0, 1.0])).tolist() == [1.0, 2.0]


class TestReportMechanics:
    def test_reports_of_two_checks_do_not_merge(self):
        with pytest.raises(ValueError) as raised:
            merge_reports(make_report("a", [], 1), make_report("b", [], 1))
        assert str(raised.value) == "cannot merge reports 'a' and 'b'"

    def test_the_store_keeps_row_numbers_and_the_worst_rows(self):
        # one bit per row of the table, set where the row fails, counted
        # across the chunks, and the numbers, inputs and margins of the worst
        # rows only; the left-hand value and the detail come from the replay
        # of the kept rows
        table = np.arange(8.0).reshape(4, 2)
        replayed = []

        def replay(rows):
            replayed.append(rows.tolist())
            lhs = rows[:, 1] / 2.0 + 0.5
            return None, lhs, 0.5, 0.5 - lhs

        rows = FailingRows("c", lambda lhs: f"{lhs} > 0.5", table, replay)
        rows.add(table[:2], np.array([0]), -0.5)
        rows.add(table[2:], np.array([0, 1]), np.array([-2.5, -3.5]))
        arrays = {name: (value.shape, value.dtype) for name, value in vars(rows).items()
                  if isinstance(value, np.ndarray) and value is not table}
        assert arrays == {"_bits": (((4 + 7) // 8,), np.uint8)}
        assert rows._bits.tolist() == [0b1101]
        assert rows._read()[0].tolist() == [0, 2, 3]
        assert [column.tolist() for column in rows._worst] == [
            [3, 2, 0], [[6.0, 7.0], [4.0, 5.0], [0.0, 1.0]], [-3.5, -2.5, -0.5]]
        assert replayed == []
        assert [(w.inputs, w.margin, w.lhs, w.bound, w.detail) for w in rows[:2]] == [
            ((6.0, 7.0), -3.5, 4.0, 0.5, "4.0 > 0.5"), ((4.0, 5.0), -2.5, 3.0, 0.5, "3.0 > 0.5")]
        kept = [[6.0, 7.0], [4.0, 5.0], [0.0, 1.0]]
        assert replayed == [kept]
        assert [w.inputs for w in rows] == [(6.0, 7.0), (4.0, 5.0), (0.0, 1.0)]
        assert replayed == [kept, kept]

    def test_the_store_keeps_at_most_eight_rows_and_reads_the_rest_back(self):
        # ten failing rows of one chunk: the worst eight are kept whole, and
        # a ninth witness reads every failing row back by its number
        table = np.column_stack([np.arange(10.0), np.zeros(10)])
        replayed = []

        def replay(rows):
            replayed.append(len(rows))
            return None, rows[:, 0], 0.0, -rows[:, 0]

        rows = FailingRows("c", repr, table, replay)
        rows.add(table, np.arange(1, 10), -table[1:, 0])
        assert [column.tolist() for column in rows._worst] == [
            list(range(9, 1, -1)), [[float(i), 0.0] for i in range(9, 1, -1)],
            [-float(i) for i in range(9, 1, -1)]]
        assert [w.inputs[0] for w in rows[:8]] == list(range(9, 1, -1)) and replayed == [8]
        assert [w.inputs[0] for w in rows] == list(range(9, 0, -1)) and replayed == [8, 9]

    def test_a_replay_that_does_not_give_the_margin_raises_naming_the_check(self):
        # a zeta that counts its calls gives other values when the witness
        # is replayed than in the pass: no witness is built from them
        bundle, pairs, *_ = _pair_setup("interval", as_array=True)
        calls = []

        def counted(t, s):
            calls.append(1)
            return 0.5 * s - t - 1e-3 * len(calls)

        drifting = bundle._replace(zeta=SimulationFunction(counted, name="counted"))
        report = verify_contraction(drifting, pairs, scalar_metric)
        assert len(calls) == 1 and report.status == FAIL
        for show in (lambda: report.witnesses[0], lambda: render_text([report]),
                     lambda: report_rows([report])):
            with pytest.raises(DomainError) as raised:
                show()
            assert str(raised.value) == \
                "contraction: replayed rows do not give their stored margins"
        assert len(calls) == 4
        # a gate that counts its calls: positive between the members, and
        # negative against the limit, by another margin at each call
        gate_calls = []

        def gate(a, b):
            gate_calls.append(1)
            return b - 1e-3 * len(gate_calls)

        members = [np.full(7, 1.0 + 1.0 / k) for k in range(1, 5)]
        limit = check_gate_limit(BVPProblem(rhs=rhs_zero, n=6, gate=gate), members, np.zeros(7))
        assert len(gate_calls) == 2 and (limit.status, limit.samples) == (FAIL, 4)
        with pytest.raises(DomainError) as raised:
            render_text([limit])
        assert str(raised.value) == "gate/limit: replayed rows do not give their stored margins"

    def _failing_report(self, pairs):
        zeta = SimulationFunction(lambda t, s: s - t, name="subtraction")
        return check_simulation_pointwise(zeta, pairs)

    def test_verdict_is_order_independent(self):
        rng = seeded_rng(3)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0.1, 5.0, (200, 2))]
        baseline = self._failing_report(pairs)
        shuffled = list(pairs)
        random.Random(11).shuffle(shuffled)
        replay = self._failing_report(shuffled)
        assert replay.status == baseline.status
        assert replay.witnesses == baseline.witnesses

    def test_merge_matches_whole(self):
        rng = seeded_rng(5)
        pairs = [(float(a), float(b)) for a, b in rng.uniform(0.1, 5.0, (100, 2))]
        whole = self._failing_report(pairs)
        merged = merge_reports(self._failing_report(pairs[:37]),
                               self._failing_report(pairs[37:]))
        assert merged.status == whole.status
        assert merged.samples == whole.samples
        assert merged.witnesses == whole.witnesses

        # a declared caveat outranks pass; a falsification operand sets the mode
        passing = self._failing_report([])
        caveat = self._failing_report(pairs[:37])._replace(status=CAVEAT)
        for operands in ((caveat, passing), (passing, caveat)):
            assert merge_reports(*operands).status == CAVEAT
        falsification = passing._replace(mode="falsification")
        for operands in ((passing, falsification), (falsification, passing)):
            assert merge_reports(*operands).mode == "falsification"

    def test_failed_report_carries_witness(self):
        report = self._failing_report([(1.0, 1.0)])
        assert not report.passed and len(report.witnesses) >= 1

    def test_witness_replay_reproduces_margin(self):
        report = self._failing_report([(0.3, 2.0), (1.5, 1.5)])
        for witness in report.witnesses:
            single = self._failing_report([witness.inputs])
            assert len(single.witnesses) == 1
            assert single.witnesses[0].margin == witness.margin


@given(st.floats(min_value=1e-3, max_value=100.0),
       st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=100)
def test_strictness_restated(t, s):
    # zeta passing the pointwise check satisfies zeta(t, s) + t < s on any
    # positive pair: assert it directly for the shipped gain family
    zeta = zeta1(0.5)
    assert zeta(t, s) + t < s


_WITNESS_POOL = [Witness("probe", (float(k), 0.5), -0.1 * k, f"violation {k}")
                 for k in range(4)]

reports = st.builds(
    VerificationReport,
    name=st.just("probe"),
    status=st.sampled_from([PASS, FAIL, HYPOTHESIS_UNMET, CAVEAT]),
    witnesses=st.lists(st.sampled_from(_WITNESS_POOL), max_size=3),
    samples=st.integers(min_value=0, max_value=50),
    mode=st.sampled_from(["exact", "falsification"]),
    tolerance=st.sampled_from([0.0, 1e-12, 1e-9]),
    notes=st.lists(st.sampled_from(["a", "b", "declared caveat: c"]),
                   max_size=2).map(tuple))


@given(reports, reports, reports, st.randoms(use_true_random=False))
@settings(max_examples=200)
def test_merge_is_associative_and_order_independent(a, b, c, rnd):
    flat = merge_reports(a, b, c)
    assert merge_reports(merge_reports(a, b), c) == flat
    assert merge_reports(a, merge_reports(b, c)) == flat
    shuffled = [a, b, c]
    rnd.shuffle(shuffled)
    assert merge_reports(*shuffled) == flat
    precedence = [FAIL, HYPOTHESIS_UNMET, CAVEAT, PASS]
    assert flat.status == min((a.status, b.status, c.status), key=precedence.index)
    assert (flat.mode == "falsification") == ("falsification" in (a.mode, b.mode, c.mode))


# ---------------------------------------------------------------------------
# Per-sample reference oracles: the loops the block verifiers replaced. The
# library reads samples in chunks of CHUNK and evaluates each callable once
# per chunk; these evaluate one sample at a time.

def oracle_alpha_admissible(T, alpha, pairs, tol=SCALAR_EPS):
    witnesses = []
    checked = 0
    for x, y in pairs:
        checked += 1
        if alpha(x, y) - 1.0 >= -tol:
            value = alpha(T(x), T(y))
            if value - 1.0 < -tol:
                witnesses.append(Witness(
                    "alpha/admissible", (x, y), value - 1.0,
                    f"alpha(x, y) >= 1 but alpha(Tx, Ty) = {value!r}",
                    lhs=value, bound=1.0))
    return make_report("alpha-admissible", witnesses, checked, tolerance=tol)


def oracle_triangular_alpha(alpha, triples, tol=SCALAR_EPS):
    witnesses = []
    checked = 0
    for x, z, y in triples:
        checked += 1
        if alpha(x, z) - 1.0 >= -tol and alpha(z, y) - 1.0 >= -tol:
            value = alpha(x, y)
            if value - 1.0 < -tol:
                witnesses.append(Witness(
                    "alpha/triangular", (x, z, y), value - 1.0,
                    f"alpha chains through z but alpha(x, y) = {value!r}",
                    lhs=value, bound=1.0))
    return make_report("alpha-triangular", witnesses, checked, tolerance=tol)


@pytest.mark.parametrize("tol", [SCALAR_EPS, 1e-10, GRID_EPS])
def test_a_weight_at_the_tolerance_meets_the_hypothesis_and_the_conclusion_alike(tol):
    # the least weight whose margin alpha - 1 is not below -tol: as a
    # hypothesis it holds, so as a conclusion it must hold too
    held = 1.0 - tol
    while held - 1.0 < -tol:
        held = np.nextafter(held, 2.0)
    while np.nextafter(held, 0.0) - 1.0 >= -tol:
        held = np.nextafter(held, 0.0)
    for value, kept in ((held, True), (np.nextafter(held, 0.0), False)):
        alpha = AlphaFunction(lambda x, y, v=value: 0.0 * np.asarray(x) + v, name="flat")
        pairs = np.array([[0.0, 1.0], [0.5, 2.0]])
        assert check_pairs(lambda x: x, alpha, pairs, [alpha_admissible_check(tol)])[0].passed
        if tol == SCALAR_EPS:  # the tolerance of the triangular and orbit checks
            assert check_triangular_alpha(alpha, np.array([[0.0, 0.5, 1.0]])).passed
            orbit = check_alpha_orbit(lambda x: x + 0.5, alpha, 0.0, 3)
            assert orbit.status == (PASS if kept else HYPOTHESIS_UNMET)


def oracle_verify_contraction(bundle, pairs, d, tol=SCALAR_EPS):
    T = bundle.mapping
    c = float(bundle.g.c_g)
    witnesses = []
    checked = 0
    for x, y in pairs:
        checked += 1
        tx = T(x)
        ty = T(y)
        m = max(d(x, y), d(x, tx), d(y, ty))
        lhs = bundle.zeta(bundle.alpha(x, y) * d(tx, ty), bundle.beta(m) * m)
        margin = lhs - c
        if margin < -tol:
            witnesses.append(Witness(
                "contraction", (x, y), margin,
                f"zeta(alpha*d(Tx, Ty), beta(M)*M) = {lhs!r} falls below c_g = {c!r}",
                lhs=lhs, bound=c))
    return make_report("contraction", witnesses, checked, tolerance=tol,
                       notes=(f"bundle={bundle.name}",))


def _outcome(check, *args):
    """The report of ``check(*args)``, or DomainError if it raised one."""
    try:
        return check(*args)
    except DomainError:
        return DomainError


def assert_same_outcome(block, oracle):
    """Same status, samples and witnesses (inputs, margins, values and
    details exactly, inputs bit for bit), or DomainError on both paths."""
    if oracle is DomainError or block is DomainError:
        assert block is oracle
        return
    assert (block.name, block.status, block.samples, block.mode, block.notes) == \
        (oracle.name, oracle.status, oracle.samples, oracle.mode, oracle.notes)
    assert len(block.witnesses) == len(oracle.witnesses)
    for got, want in zip(block.witnesses, oracle.witnesses):
        assert (got.check, got.margin, got.lhs, got.bound, got.detail) == \
            (want.check, want.margin, want.lhs, want.bound, want.detail)
        assert type(got.margin) is type(got.lhs) is float
        assert len(got.inputs) == len(want.inputs)
        assert all(type(a) is type(b) and _bits(a).tobytes() == _bits(b).tobytes()
                   for a, b in zip(got.inputs, want.inputs))


def _check_all(bundle, pairs, triples, d):
    assert_same_outcome(_outcome(verify_contraction, bundle, pairs, d),
                        _outcome(oracle_verify_contraction, bundle, pairs, d))
    assert_same_outcome(
        _outcome(check_alpha_admissible, bundle.mapping, bundle.alpha, pairs),
        _outcome(oracle_alpha_admissible, bundle.mapping, bundle.alpha, pairs))
    assert_same_outcome(_outcome(check_triangular_alpha, bundle.alpha, triples),
                        _outcome(oracle_triangular_alpha, bundle.alpha, triples))


# sample counts around a chunk boundary, drawn under a small chunk size so
# that the per-sample oracles stay cheap; an @example at the library's own
# CHUNK keeps its real boundary covered
SMALL_CHUNK = 100
CHUNK_SIZES = [0, 1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1]


@contextmanager
def chunk_sizes(chunk):
    """The library's chunk size (float values per column) set to the one
    given for the block, counting the chunks it runs: yields the list that
    gets one entry per chunk, the offset of its first row."""
    blocks = framework._blocks
    ran = []

    def counted(*args):
        offset = 0
        for columns, rows in blocks(*args):
            ran.append(offset)
            offset += len(rows)
            yield columns, rows

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(framework, "CHUNK", chunk)
        patch.setattr(framework, "_blocks", counted)
        yield ran

# each example runs thousands of samples through both paths, so a failure
# is reported as drawn: shrinking it would take minutes
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def _halving_map(x):
    # written for single reals: an array has no truth value
    return x / 2.0 + 0.25 if x < 2.0 else 0.5 * x


def _norm_gain(t):
    # aggregates a block into one value; on a single real it is |t| / (1 + |t|)
    r = float(np.linalg.norm(t))
    return r / (1.0 + r)


SCALAR_MAPS = [example31_map, _halving_map, lambda x: 3.0 * x]
SCALAR_ALPHAS = [
    alpha_box(0.0, 1.0), alpha_from_order(natural_order), alpha_one(),
    AlphaFunction(lambda x, y: 1.0 if abs(x - y) <= 1.0 else 0.0, name="near"),
    # negative where x < y: a DomainError on both paths
    AlphaFunction(lambda x, y: x - y, name="signed-gap"),
]
BETAS = [
    beta_reciprocal(), beta_constant(0.5),
    GeraghtyBeta(_norm_gain, name="norm-gain"),
    # infinite once M > 1: a DomainError on both paths
    GeraghtyBeta(lambda t: np.where(t > 1.0, np.inf, 0.5), name="blow-up"),
    GeraghtyBeta(lambda t: math.inf if t > 1.0 else 0.5, name="scalar-blow-up"),
]
ZETAS = [zeta1(8.0 / 9.0), zeta1(0.25),
         SimulationFunction(lambda t, s: s - t, name="subtraction")]


def _scalar_samples(seed, size, arity):
    rng = seeded_rng(seed)
    # exact branch points of the maps and weights, and random reals
    pool = np.concatenate([np.linspace(0.0, 3.0, 31), rng.uniform(-0.5, 3.5, 200)])
    index = rng.integers(0, pool.size, size=(size, arity))
    return [tuple(float(pool[i]) for i in row) for row in index]


@given(size=st.sampled_from(CHUNK_SIZES), chunk=st.just(SMALL_CHUNK),
       seed=st.integers(0, 2 ** 32 - 1),
       mapping=st.sampled_from(SCALAR_MAPS), alpha=st.sampled_from(SCALAR_ALPHAS),
       beta=st.sampled_from(BETAS), zeta=st.sampled_from(ZETAS),
       c_g=st.sampled_from([0.0, 0.05]), as_lists=st.booleans())
# the named cases at chunk boundaries, whatever else is drawn: a
# non-broadcasting alpha (at the library's CHUNK), an aggregating beta, a
# negative alpha and an infinite beta
@example(size=CHUNK, chunk=CHUNK, seed=1, mapping=example31_map, alpha=SCALAR_ALPHAS[3],
         beta=BETAS[0], zeta=ZETAS[0], c_g=0.0, as_lists=False)
@example(size=SMALL_CHUNK + 1, chunk=SMALL_CHUNK, seed=2, mapping=example31_map,
         alpha=SCALAR_ALPHAS[1], beta=BETAS[2], zeta=ZETAS[0], c_g=0.0, as_lists=False)
@example(size=SMALL_CHUNK - 1, chunk=SMALL_CHUNK, seed=3, mapping=_halving_map,
         alpha=SCALAR_ALPHAS[4], beta=BETAS[1], zeta=ZETAS[1], c_g=0.0, as_lists=True)
@example(size=SMALL_CHUNK + 1, chunk=SMALL_CHUNK, seed=4, mapping=example31_map,
         alpha=SCALAR_ALPHAS[0], beta=BETAS[3], zeta=ZETAS[2], c_g=0.05, as_lists=False)
@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
def test_block_verifiers_match_per_sample_oracle_on_reals(
        size, chunk, seed, mapping, alpha, beta, zeta, c_g, as_lists):
    pairs = _scalar_samples(seed, size, 2)
    if as_lists:
        pairs = [list(pair) for pair in pairs]
    triples = _scalar_samples(seed + 1, size, 3)
    bundle = ContractionBundle(mapping, alpha, beta, zeta, cclass_a(c_g), name="drawn")
    with chunk_sizes(chunk):
        _check_all(bundle, pairs, triples, scalar_metric)


GRID_N = 6
# grid pairs per chunk under SMALL_CHUNK patched in: 14 functions
GRID_CHUNK = SMALL_CHUNK // (GRID_N + 1)


def _gated_problem(gate):
    return BVPProblem(rhs=rhs_zero, n=GRID_N, gate=gate)


GRID_MAPS = [
    lambda x: x[::-1],           # depends on node order within one function
    lambda x: 0.5 * x + 0.1,
]
GRID_ALPHAS = [
    alpha_from_order(pointwise_order), alpha_one(),
    # a broadcasting gate and one written for single node values
    alpha_from_gate(_gated_problem(lambda a, b: 0.8 - np.abs(a - b))),
    alpha_from_gate(_gated_problem(lambda a, b: 1.0 if a <= b + 0.5 else -1.0)),
]


def _grid_samples(seed, size):
    rng = seeded_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(size, GRID_N + 1))
    # shifted partners, so that the pointwise order holds on many pairs
    ys = xs + rng.uniform(-0.3, 0.6, size=(size, 1)) \
        + rng.uniform(-0.05, 0.05, size=(size, GRID_N + 1))
    pairs = [(np.array(x), np.array(y)) for x, y in zip(xs, ys)]
    functions = [f for pair in pairs for f in pair]
    triples = [tuple(functions[3 * i:3 * i + 3]) for i in range(len(functions) // 3)]
    return pairs, triples


@given(size=st.sampled_from([0, 1, GRID_CHUNK - 1, GRID_CHUNK, GRID_CHUNK + 1]),
       seed=st.integers(0, 2 ** 32 - 1),
       mapping=st.sampled_from(GRID_MAPS), alpha=st.sampled_from(GRID_ALPHAS),
       beta=st.sampled_from(BETAS[:3]), zeta=st.sampled_from(ZETAS))
@example(size=GRID_CHUNK + 1, seed=3, mapping=GRID_MAPS[0], alpha=GRID_ALPHAS[0],
         beta=BETAS[2], zeta=ZETAS[0])
@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
def test_block_verifiers_match_per_sample_oracle_on_grid_functions(
        size, seed, mapping, alpha, beta, zeta):
    pairs, triples = _grid_samples(seed, size)
    bundle = ContractionBundle(mapping, alpha, beta, zeta, cclass_a(0.0), name="grid")
    with chunk_sizes(SMALL_CHUNK) as ran:
        _check_all(bundle, pairs, triples, sup_metric)
    # the pairs filled a chunk and began another
    if size > GRID_CHUNK:
        assert GRID_CHUNK in ran


def assert_array_path_agrees(from_array, from_list):
    """Same outcome from (N, k) array samples as from the same samples as
    tuples: witnesses agree field by field, inputs as tuples of floats."""
    if from_array is DomainError or from_list is DomainError:
        assert from_array is from_list
        return
    assert (from_array.name, from_array.status, from_array.samples, from_array.notes) == \
        (from_list.name, from_list.status, from_list.samples, from_list.notes)
    assert len(from_array.witnesses) == len(from_list.witnesses)
    for got, want in zip(from_array.witnesses, from_list.witnesses):
        assert (got.check, got.margin, got.lhs, got.bound, got.detail) == \
            (want.check, want.margin, want.lhs, want.bound, want.detail)
        assert got.inputs == want.inputs
        assert type(got.inputs) is tuple and all(type(v) is float for v in got.inputs)


@given(size=st.sampled_from(CHUNK_SIZES), chunk=st.just(SMALL_CHUNK),
       seed=st.integers(0, 2 ** 32 - 1),
       mapping=st.sampled_from(SCALAR_MAPS), alpha=st.sampled_from(SCALAR_ALPHAS),
       beta=st.sampled_from(BETAS), zeta=st.sampled_from(ZETAS),
       c_g=st.sampled_from([0.0, 0.05]))
@example(size=CHUNK + 1, chunk=CHUNK, seed=5, mapping=_halving_map, alpha=SCALAR_ALPHAS[3],
         beta=BETAS[2], zeta=ZETAS[1], c_g=0.0)
@settings(max_examples=20, deadline=None, phases=NO_SHRINK)
def test_block_verifiers_take_sample_arrays(size, chunk, seed, mapping, alpha, beta, zeta, c_g):
    pairs = _scalar_samples(seed, size, 2)
    triples = _scalar_samples(seed + 1, size, 3)
    pair_array = np.array(pairs, dtype=float).reshape(-1, 2)
    triple_array = np.array(triples, dtype=float).reshape(-1, 3)
    bundle = ContractionBundle(mapping, alpha, beta, zeta, cclass_a(c_g), name="drawn")
    with chunk_sizes(chunk):
        assert_array_path_agrees(
            _outcome(verify_contraction, bundle, pair_array, scalar_metric),
            _outcome(verify_contraction, bundle, pairs, scalar_metric))
        assert_array_path_agrees(
            _outcome(check_alpha_admissible, mapping, alpha, pair_array),
            _outcome(check_alpha_admissible, mapping, alpha, pairs))
        assert_array_path_agrees(_outcome(check_triangular_alpha, alpha, triple_array),
                                 _outcome(check_triangular_alpha, alpha, triples))


# ---------------------------------------------------------------------------
# One pass for the pair hypotheses: the reports the CLI asks for in one call
# against the standalone checks, and the images each of them computes.

def _fingerprint_report(rep):
    """The report's fields, with witness inputs as exact nested lists (grid
    functions compare by value, not identity)."""
    return (rep.name, rep.status, rep.samples, rep.mode, rep.tolerance, rep.notes,
            [(w.check, w.margin, w.lhs, w.bound, w.detail,
              [np.asarray(v).tolist() for v in w.inputs]) for w in rep.witnesses])


def _pair_setup(carrier, as_array):
    if carrier == "interval":
        # the weight "near" loses admissibility where the map triples
        bundle = ContractionBundle(example31_map, SCALAR_ALPHAS[3], beta_constant(0.2),
                                   zeta1(0.5), cclass_a(0.0), name="interval")
        pairs = np.concatenate([Mesh(0.0, 3.0, 40)[:],
                                seeded_rng(3).uniform(0.0, 3.0, (300, 2))])
        samples = pairs if as_array else [tuple(p) for p in pairs.tolist()]
        return bundle, samples, scalar_metric, SCALAR_EPS, None
    # the gate closes on some pairs, and T = 10/8 spreads others past it
    problem = BVPProblem(rhs=lambda t, x: 10.0 * x, n=GRID_N,
                         gate=lambda a, b: 0.3 - np.abs(a - b))
    bundle = bvp_bundle(problem)._replace(name="grid")
    pairs, _ = _grid_samples(4, 1173)
    return bundle, np.array(pairs) if as_array else pairs, sup_metric, GRID_EPS, problem


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("carrier", ["interval", "grid"])
def test_one_pass_gives_the_standalone_reports(carrier, as_array):
    bundle, samples, d, tol, problem = _pair_setup(carrier, as_array)
    checks = [alpha_admissible_check(), contraction_check(bundle, tol)]
    if problem is not None:
        checks.append(operator_contraction_check())
    with chunk_sizes(SMALL_CHUNK) as ran:
        one_pass = check_pairs(bundle.mapping, bundle.alpha, samples, checks, d)
        # several chunks: each check's failing rows are written across them
        assert len(ran) >= 2
        standalone = [check_alpha_admissible(bundle.mapping, bundle.alpha, samples),
                      verify_contraction(bundle, samples, d, tol=tol)]
        if problem is not None:
            standalone.append(check_operator_contraction(problem, samples))
    # the first witnesses, read before any caller lists them all
    assert [_fingerprint_report(rep._replace(witnesses=rep.witnesses[:8])) for rep in one_pass] \
        == [_fingerprint_report(rep._replace(witnesses=list(rep.witnesses)[:8]))
            for rep in standalone]
    assert [_fingerprint_report(rep) for rep in one_pass] == \
        [_fingerprint_report(rep) for rep in standalone]
    # every check of the pair has witnesses to compare
    assert all(rep.witnesses for rep in one_pass)
    if carrier == "interval":  # witnesses of grid functions compare by value only
        assert one_pass == standalone


@pytest.mark.parametrize("carrier", ["interval", "grid"])
def test_one_pass_maps_each_sample_once(carrier):
    bundle, samples, d, tol, _ = _pair_setup(carrier, as_array=False)
    seen = []

    def mapping(x):
        # a grid function is mapped alone; reals arrive a column at a time
        seen.extend([id(x)] if carrier == "grid" else np.ravel(x).tolist())
        return bundle.mapping(x)

    counted = bundle._replace(mapping=mapping)
    with chunk_sizes(SMALL_CHUNK) as ran:
        check_pairs(mapping, bundle.alpha, samples,
                    [alpha_admissible_check(), contraction_check(counted, tol)], d)
        assert len(ran) >= 2
        assert len(seen) == 2 * len(samples)
        # alone, the alpha check maps only the pairs with alpha(x, y) >= 1
        seen.clear()
        check_alpha_admissible(mapping, bundle.alpha, samples)
    held = sum(bundle.alpha(x, y) >= 1.0 for x, y in samples)
    assert 0 < held < len(samples) and len(seen) == 2 * held


# ---------------------------------------------------------------------------
# A sample stream: the pair mesh and the random pairs made a chunk at a time
# give the reports of the joined table.

def _stream_and_table(per_axis, count):
    random = seeded_rng(per_axis + count).uniform(0.0, 3.0, (count, 2))
    return (SampleStream(Mesh(0.0, 3.0, per_axis), random),
            np.concatenate([Mesh(0.0, 3.0, per_axis)[:], random]))


def _assert_rows_indexed_like(source, table, indexes):
    """An int index of the row source, a negative one too, gives the row of
    the table or raises IndexError as it does; iteration gives its rows."""
    for index in indexes:
        if -len(table) <= index < len(table):
            assert source[index].shape == table[index].shape
            assert source[index].tobytes() == table[index].tobytes()
        else:
            with pytest.raises(IndexError):
                source[index]
    assert [row.tobytes() for row in source] == [row.tobytes() for row in table]


def _meshgrid_rows(low, high, per_axis):
    axis = np.linspace(low, high, per_axis)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("per_axis", [0, 1, 3, 7, 40])
def test_the_mesh_and_a_stream_make_the_rows_of_the_joined_table(per_axis):
    assert Mesh(0.0, 3.0, per_axis)[:].tobytes() == _meshgrid_rows(0.0, 3.0, per_axis).tobytes()
    stream, table = _stream_and_table(per_axis, 5)
    assert len(stream) == len(table) == per_axis ** 2 + 5
    # every slice between the ends, the seam and their neighbours
    ends = sorted({max(k + step, 0) for k in (0, per_axis ** 2, len(table))
                   for step in (-1, 0, 1)})
    for start in ends:
        for stop in ends:
            for step in (1, 2, -1, -3):  # stepped and reversed slices too
                rows = slice(start, stop, step)
                assert stream[rows].shape == table[rows].shape
                assert stream[rows].tobytes() == table[rows].tobytes()
    indexes = [*ends, *(-k for k in ends)]
    _assert_rows_indexed_like(stream, table, indexes)
    _assert_rows_indexed_like(Mesh(0.0, 3.0, per_axis), table[:per_axis ** 2], indexes)
    with pytest.raises(DimensionError):
        SampleStream(Mesh(0.0, 3.0, per_axis), np.zeros((2, 3)))


@given(rows=st.integers(0, 12), shape=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       regroup=st.integers(1, 4), bounds=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 64 - 1), cut=st.tuples(*[st.integers(-14, 14)] * 2))
@example(rows=0, shape=[1], regroup=1, bounds=[0.0, -0.0], seed=0, cut=(0, 0))
@settings(max_examples=200, deadline=None)
def test_a_draw_makes_the_rows_of_the_one_shot_block(rows, shape, regroup, bounds, seed, cut):
    # numpy refuses the bounds (0.0, -0.0), which sorted() leaves in that order
    low, high = sorted(bound + 0.0 for bound in bounds)
    caller, reference = seeded_rng(seed), seeded_rng(seed)
    block = reference.uniform(low, high, (rows, *shape))
    start = copy.deepcopy(caller)
    draw = Draw(caller, rows, shape, low, high)
    # the caller's generator is past the block: its next draws are as before
    assert caller.uniform(size=5).tobytes() == reference.uniform(size=5).tobytes()
    assert (len(draw), draw.shape) == (rows, tuple(shape))
    # stepped and reversed slices too
    for rows_cut in (slice(*cut), slice(None), slice(cut[0], None), slice(*cut, 2),
                     slice(None, None, -1), slice(cut[1], cut[0], -3)):
        made = draw[rows_cut]
        assert made.shape == block[rows_cut].shape
        assert made.tobytes() == block[rows_cut].tobytes()
    _assert_rows_indexed_like(draw, block, cut)
    # the same saved state read with another first axis: the block's rows of
    # shape[1:] in order, regrouped, as the CLI makes triples of drawn pairs
    values = block.reshape(-1, *shape[1:])
    grouped = Draw(start, len(values) // regroup, (regroup, *shape[1:]), low, high)
    kept = len(grouped) * regroup
    assert grouped[:].tobytes() == values[:kept].tobytes()
    assert grouped[slice(*cut)].tobytes() == \
        values[:kept].reshape(len(grouped), regroup, *shape[1:])[slice(*cut)].tobytes()


@pytest.mark.parametrize("rows, shape, bounds, message", [
    (3, (2,), (1.0, 0.0), "a draw's low = 1.0 exceeds its high = 0.0"),
    (3, (2,), (0.0, -0.0), "a draw's low = 0.0 exceeds its high = -0.0"),
    (3, (2,), (math.nan, 1.0), "a draw's high - low is not finite, for nan and 1.0"),
    (3, (2,), (0.0, math.inf), "a draw's high - low is not finite, for 0.0 and inf"),
    (3, (2,), (math.inf, 0.0), "a draw's high - low is not finite, for inf and 0.0"),
    (3, (2,), (-1e308, 1e308), "a draw's high - low is not finite, for -1e+308 and 1e+308"),
    (-1, (2,), (0.0, 1.0), "rows must be at least 0, got -1"),
    (2.0, (2,), (0.0, 1.0), "rows must be an int, got 2.0"),
    (True, (2,), (0.0, 1.0), "rows must be an int, got True"),
    (3, (-2,), (0.0, 1.0), "a draw's shape entry must be at least 0, got -2"),
    (3, (2, -1), (0.0, 1.0), "a draw's shape entry must be at least 0, got -1"),
    (3, (True,), (0.0, 1.0), "a draw's shape entry must be an int, got True"),
    (3, (2.5,), (0.0, 1.0), "a draw's shape entry must be an int, got 2.5"),
    (3, (2,), ("a", 1.0), "a draw's bounds must be reals, got 'a' and 1.0"),
    (3, (2,), (0.0, None), "a draw's bounds must be reals, got 0.0 and None"),
], ids=["reversed", "signed zeros", "nan", "inf", "-inf", "overflow", "negative rows",
        "float rows", "bool rows", "negative entry", "negative second entry", "bool entry",
        "float entry", "string low", "no high"])
def test_a_malformed_draw_is_refused_before_it_touches_the_generator(rows, shape, bounds,
                                                                     message):
    caller, reference = seeded_rng(9), seeded_rng(9)
    with pytest.raises(DomainError) as raised:
        Draw(caller, rows, shape, *bounds)
    assert str(raised.value) == message
    assert caller.uniform(size=5).tobytes() == reference.uniform(size=5).tobytes()


def test_numpy_ints_size_a_draw_as_python_ints_do():
    # the generator jumps by a Python int, which cannot overflow
    caller, reference = seeded_rng(9), seeded_rng(9)
    drawn, same = Draw(caller, np.int64(3), (np.int64(2),)), Draw(reference, 3, (2,))
    assert (len(drawn), drawn.shape) == (3, (2,))
    assert all(type(size) is int for size in (drawn.rows, *drawn.shape))
    assert drawn[:].tobytes() == same[:].tobytes()
    assert caller.uniform(size=5).tobytes() == reference.uniform(size=5).tobytes()


def test_a_stream_of_grid_functions_gives_the_reports_of_the_joined_table():
    bundle, pairs, d, tol, _ = _pair_setup("grid", as_array=True)
    drawn = Draw(seeded_rng(4), 9, pairs.shape[1:], -1.0, 1.0)
    stream, table = SampleStream(pairs, drawn), np.concatenate([pairs, drawn[:]])
    assert framework._table(stream, 2, grids=True) is stream
    assert stream[len(pairs) - 2:].tobytes() == table[len(pairs) - 2:].tobytes()
    checks = [alpha_admissible_check(), contraction_check(bundle, tol),
              operator_contraction_check()]
    with chunk_sizes(SMALL_CHUNK):
        streamed = check_pairs(bundle.mapping, bundle.alpha, stream, checks, d)
        whole = check_pairs(bundle.mapping, bundle.alpha, table, checks, d)
    assert [_fingerprint_report(rep) for rep in streamed] == \
        [_fingerprint_report(rep) for rep in whole]
    with pytest.raises(DimensionError):  # parts of another row shape
        SampleStream(pairs, Draw(seeded_rng(4), 2, (2, 5)))


# (points per mesh axis, random pairs): the sample counts of CHUNK_SIZES,
# seams between the mesh and the random rows inside a chunk, and seams on
# a chunk boundary (10**2 and 20**2 mesh rows)
STREAMS = [(0, 0), (1, 0), (0, 1), (9, SMALL_CHUNK - 1 - 81), (10, 0), (10, 1),
           (7, 30), (20, 37)]


@pytest.mark.parametrize("per_axis, count", STREAMS)
def test_a_streamed_mesh_gives_the_reports_of_the_joined_table(per_axis, count):
    bundle, *_ = _pair_setup("interval", as_array=True)
    checks = [alpha_admissible_check(), contraction_check(bundle, SCALAR_EPS)]
    stream, table = _stream_and_table(per_axis, count)
    with chunk_sizes(SMALL_CHUNK) as ran:
        streamed = check_pairs(bundle.mapping, bundle.alpha, stream, checks, scalar_metric)
        joined = check_pairs(bundle.mapping, bundle.alpha, table, checks, scalar_metric)
    seam = per_axis ** 2
    assert ran[:len(ran) // 2] == ran[len(ran) // 2:]
    assert seam % SMALL_CHUNK or not count or seam in ran
    assert [_fingerprint_report(rep) for rep in streamed] == \
        [_fingerprint_report(rep) for rep in joined]
    assert [rep.samples for rep in streamed] == [len(table)] * 2
    if len(table) >= SMALL_CHUNK:
        assert all(rep.witnesses for rep in streamed)


def test_a_contraction_store_holds_row_numbers_and_eight_rows():
    # one bit per sample, and the numbers, inputs and margins of the worst
    # eight rows; no copy of the pairs. The bound c_G of every witness comes
    # from the replay
    bundle, pairs, *_ = _pair_setup("interval", as_array=True)
    report = verify_contraction(bundle, pairs, scalar_metric)
    store = report.witnesses
    arrays = {name: (value.shape, value.dtype) for name, value in vars(store).items()
              if isinstance(value, np.ndarray) and value is not store._table}
    assert arrays == {"_bits": (((len(pairs) + 7) // 8,), np.uint8)}
    assert int(np.unpackbits(store._bits).sum()) == len(store)
    assert np.shares_memory(store._table, pairs)
    assert [column.shape for column in store._worst] == [(8,), (8, 2), (8,)]
    assert len(store) > 100
    assert {w.bound for w in store} == {bundle.g.c_g}


# ---------------------------------------------------------------------------
# Failing rows: the first k witnesses against building and sorting them all.

# reprs that share a prefix, both zeros, and non-finite values
_ADVERSARIAL = [0.0, -0.0, 1.5, 1.5e-05, 15.0, 15.5, 1.0, 1e-05, 0.5,
                -1.5, math.inf, -math.inf, math.nan, 2.0 ** -1074]


def _all_witnesses(check, inputs, lhs, bound, margins, detail):
    """Every witness, in sample order, sorted once: the reference order."""
    witnesses = [Witness(check, tuple(row), margin, detail(value), lhs=value, bound=bound)
                 for row, value, margin in zip(inputs, lhs, margins)]
    return sorted(witnesses, key=sort_key)


def _fingerprint(witnesses):
    # reprs tell 0.0 from -0.0, which == does not
    return [(sort_key(w), repr(w.lhs), w.detail, repr(w.inputs)) for w in witnesses]


failing_rows = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.tuples(st.tuples(*[st.sampled_from(_ADVERSARIAL) | st.floats()] * width),
              st.sampled_from([-0.5, -0.25, -1e-13, -2.0, -0.0, 0.0])),
    max_size=40))


# a nan whose bit pattern differs from math.nan's but renders the same
_OTHER_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]


@given(rows=failing_rows, as_array=st.booleans(), bound=st.sampled_from([0.0, 1.0]))
# two nans of different bit patterns: numpy's sort and Python's must order them alike
@example(rows=[((math.nan, 2.0), -0.5), ((_OTHER_NAN, 1.0), -0.5)], as_array=True,
         bound=0.0)
# margins of -0.0 and 0.0 alike, so the first k end inside a tie the total order splits
@example(rows=[((float(i),), -0.0 if i % 2 else 0.0) for i in range(12)], as_array=True,
         bound=1.0)
# every margin tied, and first inputs of -0.0 and 0.0 alike, so the first k end
# inside a tie of the first inputs that the total order splits
@example(rows=[((-0.0 if i % 3 else 0.0, float(-i)), -0.5) for i in range(12)], as_array=True,
         bound=0.0)
@example(rows=[((0.0 if i % 3 else -0.0, float(i % 4)), -0.0 if i % 2 else 0.0)
               for i in range(12)], as_array=True, bound=1.0)
@settings(max_examples=300, deadline=None)
def test_first_witnesses_match_the_full_sort(rows, as_array, bound):
    # a row's margin is a function of the row, as a replay needs: the first
    # margin drawn for a row's bytes stands for every copy of the row, and a
    # drawn -0.0 keeps its sign
    samples = np.array([inputs for inputs, _ in rows], dtype=float).reshape(len(rows), -1) \
        if rows else np.empty((0, 1))
    drawn = {}
    for row, (_, margin) in zip(samples, rows):
        drawn.setdefault(row.tobytes(), margin)

    def margins_of(table):
        return np.array([drawn[row.tobytes()] for row in table], dtype=float)

    margins = margins_of(samples)
    lhs = bound + margins
    # FailingRows copies the rows it is given into its own inputs: from a
    # row-major float array, as the kernel gives, or a column-major one
    if not as_array:
        samples = np.asfortranarray(samples)

    def detail(value):
        return f"lhs = {value!r}"

    def replay(table):
        margins = margins_of(table)
        return None, bound + margins, bound, margins

    def failing(samples, margins):
        rows = FailingRows("probe", detail, samples, replay)
        rows.add(samples, np.arange(len(margins)), margins)
        return rows

    expected = _all_witnesses("probe", [tuple(map(float, row)) for row in samples],
                              lhs.tolist(), bound, margins.tolist(), detail)
    n = len(rows)
    for k in (0, 1, 8, n, n + 1):
        lazy = failing(samples, margins)
        assert _fingerprint(lazy[:k]) == _fingerprint(expected[:k])
    # one view asked for more and more keeps the witnesses it built
    lazy = failing(samples, margins)
    head = lazy[:1]
    assert len(lazy) == n
    assert _fingerprint(lazy[:8]) == _fingerprint(expected[:8])
    assert all(a is b for a, b in zip(head, lazy[:8]))
    assert _fingerprint(list(lazy)) == _fingerprint(expected)
    if n:
        assert _fingerprint([lazy[0], lazy[-1], lazy[n // 2]]) == \
            _fingerprint([expected[0], expected[-1], expected[n // 2]])
        assert _fingerprint(lazy[1::2]) == _fingerprint(expected[1::2])
    # nan != nan, so == holds only where no input is nan
    comparable = not any(math.isnan(v) for row in samples for v in row)
    assert not comparable or (lazy == expected and expected == lazy)

    # a merge of a lazy and a list report equals the report of the whole
    cut = n // 2
    head_report = report_module.make_report("probe", [failing(samples[:cut], margins[:cut])], cut)
    tail_report = make_report("probe", _all_witnesses(
        "probe", [tuple(map(float, row)) for row in samples[cut:]],
        lhs[cut:].tolist(), bound, margins[cut:].tolist(), detail), n - cut)
    whole = report_module.make_report("probe", [failing(samples, margins)], n)
    for merged in (merge_reports(head_report, tail_report),
                   merge_reports(tail_report, head_report)):
        assert not comparable or merged == whole
        assert _fingerprint(merged.witnesses) == _fingerprint(whole.witnesses)


# margins that tie across clauses: equal values, both zeros and nans of both signs
_NEG_NAN = math.copysign(math.nan, -1.0)
_CLAUSE_MARGINS = [-0.5, -0.25, 0.0, -0.0, math.nan, _NEG_NAN]

# a clause per row width, as the order axioms have: (width, [(row, margin)])
merge_clauses = st.permutations([1, 2, 3]).flatmap(lambda widths: st.tuples(*[
    st.tuples(st.just(width), st.lists(st.tuples(
        st.tuples(*[st.sampled_from(_ADVERSARIAL)] * width), st.sampled_from(_CLAUSE_MARGINS)),
        max_size=12))
    for width in widths]))


# check names out of store order, so that a margin tied across clauses is
# ordered by the check name, not by the store it came from
@given(clauses=merge_clauses, count=st.integers(2, 3))
# every row of every clause tied at one margin, past the 8 each store keeps
@example(clauses=((2, [((float(i), 0.0), -0.5) for i in range(12)]),
                  (1, [((float(-i),), -0.5 if i < 9 else -0.25) for i in range(12)]),
                  (3, [((0.0, -0.0, float(i)), -0.5) for i in range(12)])), count=3)
# both zeros and nans of both signs in every clause, the 8th margin inside a tie
@example(clauses=((1, [((float(i),), _CLAUSE_MARGINS[i % 6]) for i in range(12)]),
                  (3, [((1.0, float(i), -0.0), _CLAUSE_MARGINS[-1 - i % 6]) for i in range(12)]),
                  (2, [])), count=2)
@settings(max_examples=200, deadline=None)
def test_the_clause_merge_matches_the_full_sort(clauses, count):
    # each clause's store, as the kernel leaves it, against every witness of
    # every clause sorted once by the reference order
    stores, expected, samples = [], [], 0
    for check, (width, rows) in zip(["merge/b", "merge/c", "merge/a"], clauses[:count]):
        table = np.array([inputs for inputs, _ in rows], dtype=float).reshape(len(rows), width)
        drawn = {}  # a row's margin is a function of the row, as a replay needs
        for row, (_, margin) in zip(table, rows):
            drawn.setdefault(row.tobytes(), margin)

        def replay(table, drawn=drawn):
            margins = np.array([drawn[row.tobytes()] for row in table], dtype=float)
            return None, 1.0 + margins, 1.0, margins

        _, lhs, _, margins = replay(table)
        store = FailingRows(check, repr, table, replay)
        store.add(table, np.arange(len(table)), margins)
        stores.append(store)
        expected += _all_witnesses(check, [tuple(row) for row in table.tolist()], lhs.tolist(),
                                   1.0, margins.tolist(), repr)
        samples += 2 * len(rows)
    want = make_report("merged", expected, samples)
    # each prefix, and the last witness, of a merge that has built none yet
    for k in range(len(want.witnesses) + 2):
        prefix = report_module.make_report("merged", stores, samples).witnesses[:k]
        assert _fingerprint(prefix) == _fingerprint(want.witnesses[:k])
    if want.witnesses:
        last = report_module.make_report("merged", stores, samples).witnesses[-1]
        assert _fingerprint([last]) == _fingerprint(want.witnesses[-1:])
    merged = report_module.make_report("merged", stores, samples)
    assert (merged.status, merged.samples) == (want.status, want.samples)
    assert len(merged.witnesses) == len(want.witnesses)
    assert _fingerprint(merged.witnesses) == _fingerprint(want.witnesses)


def _tied_margins(xs, ys):
    """Margins in steps of 0.1, so that many rows tie, and where y > 0.9 a
    nan of the sign of x - 0.2, so that a few of the first eight are nans;
    for stacks of grid functions, of each function's first node value."""
    xs, ys = (column if column.ndim == 1 else column[:, 0] for column in (xs, ys))
    return np.where(ys > 0.9, np.copysign(np.nan, xs - 0.2), np.round(xs - ys, 1) - 0.25)


# tables of pairs: arrays, row sources and streams, of reals and of grid functions
_STORE_TABLES = {
    "array": lambda: seeded_rng(21).uniform(size=(300, 2)),
    "mesh": lambda: Mesh(0.0, 1.0, 11),
    "draw": lambda: Draw(seeded_rng(22), 300, (2,)),
    "stream": lambda: SampleStream(Mesh(0.0, 1.0, 11), seeded_rng(23).uniform(size=(40, 2)),
                                   Draw(seeded_rng(24), 130, (2,))),
    "grid array": lambda: seeded_rng(25).uniform(size=(120, 2, 5)),
    "grid draw": lambda: Draw(seeded_rng(26), 120, (2, 5)),
    "grid stream": lambda: SampleStream(seeded_rng(27).uniform(size=(50, 2, 5)),
                                        Draw(seeded_rng(28), 70, (2, 5))),
}


@pytest.mark.parametrize("make", _STORE_TABLES.values(), ids=_STORE_TABLES.keys())
def test_the_store_matches_the_full_sort_on_every_table(make):
    # a strict clause, so that nan margins fail, on chunks of 16 float values
    # per column (16 pairs of reals, 3 of grid functions); ties at the
    # eighth margin straddle the chunks
    table = framework._table(make(), 2, grids=True)
    check = BlockCheck("tied", "tied", lambda columns: (None, _tied_margins(*columns), 0.0,
                                                        _tied_margins(*columns)),
                       lambda value: f"lhs = {value!r}", strict=True)
    rows = table[:]
    margins = _tied_margins(rows[:, 0], rows[:, 1])
    failing = np.flatnonzero(~(margins > 0.0))
    expected = _all_witnesses("tied", [tuple(row) for row in rows[failing].tolist()]
                              if rows.ndim == 2 else [tuple(row) for row in rows[failing]],
                              margins[failing].tolist(), 0.0, margins[failing].tolist(),
                              check.detail)
    n = len(expected)
    grids = rows.ndim == 3

    def store():
        with chunk_sizes(16) as ran:
            found = framework._block_reports(table, [check])[0].witnesses
        return found, ran

    found, ran = store()
    eighth = expected[7].margin
    tied_chunks = {np.searchsorted(ran, number, side="right") for number in failing
                   if margins[number] == eighth}
    assert len(ran) > 1 and len(tied_chunks) > 1
    assert 0 < sum(math.isnan(w.margin) for w in expected[:8]) < 8
    signs = {math.copysign(1.0, m) for m in margins[failing] if math.isnan(m)}
    assert signs == {-1.0, 1.0}
    for k in (0, 1, 7, 8, 9, n, n + 1):
        assert _fingerprint(store()[0][:k]) == _fingerprint(expected[:k])
    for i in (0, 7, 8, n - 1, -1, -n):
        assert _fingerprint([store()[0][i]]) == _fingerprint([expected[i]])
    # the first eight, from the kept rows, then every one, read back
    head = found[:8]
    assert _fingerprint(head) == _fingerprint(expected[:8])
    assert _fingerprint(list(found)) == _fingerprint(expected)
    assert all(a is b for a, b in zip(head, found[:8]))
    assert _fingerprint(found[3:20:2]) == _fingerprint(expected[3:20:2])
    # nan != nan, and grid functions do not compare as one truth value
    finite = [w for w in expected if not math.isnan(w.margin)]
    if not grids:
        assert store()[0] != expected and list(found) != expected
        keep = ~np.isnan(margins)
        clean = framework._block_reports(rows[keep], [check])[0].witnesses
        assert clean == finite and finite == clean


def test_a_row_source_is_read_back_a_chunk_at_a_time(monkeypatch):
    # 900 mesh rows in chunks of 50, of which the 270 with x < 0.3 fail:
    # only the 6 spans with a failing row are read back, each in one slice
    reads, rows = [], Mesh._rows
    monkeypatch.setattr(Mesh, "_rows", lambda self, start, stop:
                        reads.append((start, stop)) or rows(self, start, stop))
    mesh = Mesh(0.0, 1.0, 30)
    check = BlockCheck("low x", "low x", lambda columns: (None, columns[0], 0.3,
                                                          columns[0] - 0.3), repr)
    with chunk_sizes(50):
        found = framework._block_reports(mesh, [check])[0].witnesses
    assert (0, 50) in reads and (850, 900) in reads
    del reads[:]
    assert len(found[:8]) == 8 and reads == []
    assert len(list(found)) == 270
    assert reads == [(start, start + 50) for start in range(0, 300, 50)]


def _flagged_rows(flags, nodes):
    """A table of pairs whose row i is (i, flag i), each value a grid
    function of ``nodes`` equal node values where ``nodes`` is not 0."""
    rows = np.column_stack([np.arange(len(flags), dtype=float), np.asarray(flags, dtype=float)])
    return np.repeat(rows[:, :, None], nodes, axis=2) if nodes else rows


def _flag_margins(xs, ys):
    """Below zero where the flag is set, in five tied steps of the row number."""
    xs, ys = (column if column.ndim == 1 else column[:, 0] for column in (xs, ys))
    return np.where(ys > 0.5, -1.0 - xs % 5, 1.0)


_BYTE_SEAMS = [i in (0, 7, 8, 15, 16, 23, 24, 39) for i in range(40)]


@given(flags=st.integers(0, 70).flatmap(lambda n: st.one_of(
           st.just([False] * n), st.just([True] * n),
           st.lists(st.booleans(), min_size=n, max_size=n))),
       chunk=st.sampled_from([1, 3, 7, 8, 13, 15]), nodes=st.sampled_from([0, 5]))
# the first and last rows, rows either side of byte seams, none and every row
@example(flags=[True] + [False] * 37 + [True], chunk=15, nodes=0)
@example(flags=_BYTE_SEAMS, chunk=7, nodes=0)
@example(flags=_BYTE_SEAMS, chunk=15, nodes=5)
@example(flags=[False] * 45, chunk=15, nodes=5)
@example(flags=[True] * 45, chunk=13, nodes=0)
# grid functions of 1001 nodes under the library's own chunk size: 15 rows a chunk
@example(flags=_BYTE_SEAMS, chunk=None, nodes=1001)
@settings(max_examples=80, deadline=None)
def test_the_bitmap_gives_the_failing_rows_at_any_chunk_offset(flags, chunk, nodes):
    rows = _flagged_rows(flags, nodes)
    table = framework._table(rows, 2, grids=bool(nodes))
    check = BlockCheck("flag", "flag", lambda columns: (None, _flag_margins(*columns), 0.0,
                                                        _flag_margins(*columns)),
                       lambda value: f"lhs = {value!r}")
    per_chunk = CHUNK // max(nodes, 1) if chunk is None else chunk
    with chunk_sizes(per_chunk * max(nodes, 1)) as ran:
        store = framework._block_reports(table, [check])[0].witnesses
    assert ran == list(range(0, len(flags), per_chunk))
    failing = np.flatnonzero(flags)
    assert store._bits.shape == ((len(flags) + 7) // 8,) and store._bits.dtype == np.uint8
    numbers, read = store._read()
    assert numbers.tolist() == failing.tolist() and np.array_equal(read, rows[failing])
    margins = _flag_margins(rows[:, 0], rows[:, 1])[failing].tolist()
    expected = _all_witnesses("flag", [tuple(row) for row in (
        rows[failing] if nodes else rows[failing].tolist())], margins, 0.0, margins,
        check.detail)
    assert len(store) == len(expected)
    for k in (0, 1, 8, 9, len(expected), len(expected) + 1):
        assert _fingerprint(store[:k]) == _fingerprint(expected[:k])
    assert _fingerprint(list(store)) == _fingerprint(expected)
    # grid functions do not compare as one truth value
    assert nodes or (store == expected and expected == store)


def test_a_slice_builds_the_witnesses_up_to_its_last_position():
    bundle, pairs, *_ = _pair_setup("interval", as_array=True)

    def store():
        return verify_contraction(bundle, pairs, scalar_metric).witnesses

    whole = list(store())
    n = len(whole)
    assert n > 100
    for index, built in [(slice(1, 3), 3), (slice(None, 3, 2), 3), (slice(0, 2), 2),
                         (slice(5, 1, -2), 6), (slice(-3, None), n), (slice(None, None, -1), n),
                         (slice(n + 3, None, -4), n), (slice(-n + 9, -n - 5, -3), 10),
                         (slice(4, 2), 0), (slice(3, 3), 0), (slice(None, 40, 7), 36),
                         (slice(-n - 3, 4), 4), (slice(2, None, n), 3)]:
        sliced = store()
        assert _fingerprint(sliced[index]) == _fingerprint(whole[index])
        assert len(sliced._head) == built, index


def test_rendering_builds_only_the_shown_witnesses(monkeypatch):
    # the verify-interval workload: 251 000 pairs, ~99 000 failing
    bundle = example31_bundle()._replace(alpha=alpha_from_order(natural_order))
    pairs = np.concatenate([Mesh(0.0, 3.0, 500)[:],
                            seeded_rng(7).uniform(0.0, 3.0, (1000, 2))])
    built = []

    class CountedWitness(report_module.Witness):  # a NamedTuple is made by __new__ alone
        def __new__(cls, *args, **kwargs):
            built.append(1)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(report_module, "Witness", CountedWitness)
    report = verify_contraction(bundle, pairs, scalar_metric)
    caveated = report._replace(status=CAVEAT, notes=report.notes + ("declared",))
    text = render_text([report, caveated])
    rows = report_rows([report, caveated])
    assert len(report.witnesses) > 90_000 and len(built) <= 8
    assert f"... and {len(report.witnesses) - 8} more witnesses" in text
    assert rows[0][4] == rows[1][4] == f"contraction {format_inputs(report.witnesses[0].inputs)}"
    assert len(built) <= 8


def test_an_all_tied_check_formats_only_the_shown_rows(monkeypatch):
    # x < y on 124 750 pairs of the mesh, and T = -x reverses each: one
    # margin, -1.0, throughout, so the inputs alone order the witnesses
    built, formatted = [], []

    class CountedWitness(report_module.Witness):  # a NamedTuple is made by __new__ alone
        def __new__(cls, *args, **kwargs):
            built.append(1)
            return super().__new__(cls, *args, **kwargs)

    def counted_format(inputs):
        formatted.append(1)
        return format_inputs(inputs)

    monkeypatch.setattr(report_module, "Witness", CountedWitness)
    monkeypatch.setattr(report_module, "format_inputs", counted_format)
    report = check_increasing(lambda x: -x, natural_order, Mesh(0.0, 3.0, 500)[:])
    text = render_text([report])
    assert len(report.witnesses) == 124_750
    assert f"... and {124_750 - 8} more witnesses" in text
    assert len(built) <= 8 and len(formatted) == 8
    assert report.witnesses[0].inputs == (0.0, 0.006012024048096192)
    assert {w.margin for w in report.witnesses[:8]} == {-1.0}


def test_a_report_of_several_clauses_builds_only_the_shown_witnesses(monkeypatch):
    # G(s, t) = s + 1 breaks the upper bound on every pair and the benchmark
    # where s <= t: about 300 000 failing rows in two of the four stores
    built = []

    class CountedWitness(report_module.Witness):  # a NamedTuple is made by __new__ alone
        def __new__(cls, *args, **kwargs):
            built.append(1)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(report_module, "Witness", CountedWitness)
    plus_one = CClassFunction(lambda s, t: s + 1.0, name="plus-one")
    report = check_cclass(plus_one, seeded_rng(1).uniform(0.0, 1.0, (200_000, 2)))
    text = render_text([report])
    rows = report_rows([report])
    assert len(report.witnesses) > 290_000
    assert f"... and {len(report.witnesses) - 8} more witnesses" in text
    assert rows[0][4] == f"cclass/upper {format_inputs(report.witnesses[0].inputs)}"
    assert len(built) <= 8 * 4  # the first 8 of each clause's store at most


# ---------------------------------------------------------------------------
# Stacks of grid functions: a chunk of grid functions is one (k, n + 1)
# stack per coordinate, and the callables tagged row-wise take it in one
# call. Each must give, bit for bit, what it gives one function at a time.

STACK_NS = [2, 4, 6, 10, 1000]
# builtins and an expression that read x, and three right-hand sides that
# ignore it: two builtins that broadcast to the stack, and fixed node values
STACK_RHS = ["sin_plus_one", "expr:10*x", "zero", "const:2", "pi2sin", "fixed"]
STACK_GATES = [None, lambda a, b: 1.2 - np.abs(a - b),
               lambda a, b: 1.0 if a <= b + 0.9 else -1.0]  # the last for single nodes
# stack sizes around the chunk length k, in functions
STACK_SIZES = {"0": 0, "1": 1, "k-1": -1, "k": 0, "k+1": 1}


def _stack_size(n, size):
    return STACK_SIZES[size] + (CHUNK // (n + 1) if size.startswith("k") else 0)


def _stack_problem(n, rhs, gate, rng):
    if rhs != "fixed":
        return BVPProblem(rhs=resolve("rhs", rhs), n=n, gate=STACK_GATES[gate])
    values = rng.uniform(-1.0, 1.0, n + 1)
    return BVPProblem(rhs=lambda t, x: values, n=n, gate=STACK_GATES[gate])


def _stack_pairs(rng, count, n):
    xs = rng.uniform(-0.5, 1.5, size=(count, n + 1))
    # partners close enough for the gates and the pointwise order to vary
    ys = xs + rng.uniform(-0.2, 0.6, size=(count, 1)) \
        + rng.uniform(-0.3, 0.3, size=(count, n + 1))
    return xs, ys


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


stack_draws = dict(n=st.sampled_from(STACK_NS), size=st.sampled_from(list(STACK_SIZES)),
                   rhs=st.sampled_from(STACK_RHS), gate=st.sampled_from(range(3)),
                   seed=st.integers(0, 2 ** 32 - 1))


@given(**stack_draws)
@example(n=1000, size="k+1", rhs="sin_plus_one", gate=1, seed=1)
@example(n=2, size="k", rhs="fixed", gate=2, seed=2)
@settings(max_examples=15, deadline=None, phases=NO_SHRINK)
def test_rowwise_callables_on_a_stack_match_the_per_function_loop(n, size, rhs, gate, seed):
    rng = seeded_rng(seed)
    count = _stack_size(n, size)
    problem = _stack_problem(n, rhs, gate, rng)
    xs, ys = _stack_pairs(rng, count, n)
    for fn, stacks in [(bvp_operator(problem), (xs,)), (sup_metric, (xs, ys)),
                       (alpha_from_gate(problem).fn, (xs, ys)),
                       (alpha_from_order(pointwise_order).fn, (xs, ys)),
                       (pointwise_order.leq, (xs, ys))]:
        assert fn.rowwise
        one_by_one = [fn(*row) for row in zip(*stacks)]
        calls = []
        counted = rowwise(lambda *args, fn=fn: calls.append(1) or fn(*args))
        got = evaluate_block(counted, fn, *stacks)
        assert len(got) == count and len(calls) == 1  # one call per stack, the empty one too
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(got, one_by_one))
        if not count:
            continue
        # the stack's one call gave every row, unless the rhs ignores x and
        # gives one function's node values, which a stack does not broadcast:
        # then the rows were mapped one at a time
        if rhs == "fixed" and len(stacks) == 1:
            with pytest.raises(DomainError, match="rhs returned shape"):
                fn(*stacks)
        else:
            assert np.array_equal(_bits(fn(*stacks)), _bits(np.array(one_by_one)))


@given(**stack_draws)
@example(n=1000, size="k+1", rhs="expr:10*x", gate=1, seed=3)
@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
def test_block_verifiers_match_per_sample_oracle_on_stacks(n, size, rhs, gate, seed):
    rng = seeded_rng(seed)
    count = _stack_size(n, size)
    bundle = bvp_bundle(_stack_problem(n, rhs, gate, rng))
    xs, ys = _stack_pairs(rng, count, n)
    pairs = [(np.array(x), np.array(y)) for x, y in zip(xs, ys)]
    functions = [f for pair in pairs for f in pair]
    triples = [tuple(functions[3 * i:3 * i + 3]) for i in range(len(functions) // 3)]
    _check_all(bundle, pairs, triples, sup_metric)


# The errors the verifiers raised when they passed grid functions one at a
# time: one faulty pair among 40 at n = 6 (one stack) raises the same.
FAULTS = {
    "non-finite": (DomainError, "grid function contains non-finite values"),
    # pairs that do not stack into one table are refused at the gate
    "node counts": (DimensionError, "grid sizes differ: 7 vs 9 nodes"),
    "2-d function": (DimensionError,
                     "a grid function is a 1-d array with at least 2 nodes, got shape (2, 7)"),
    "rhs shape": (DomainError, "rhs returned shape (3,), expected (7,)"),
}
# the same faults where the bvp bundle's gate weight reads the pair first: it
# pairs the two functions node for node before T maps either
WEIGHT_FAULTS = {**FAULTS, "node counts": (DimensionError, "grid sizes differ: 7 vs 9 nodes")}
# the same faults under a mapping that checks nothing: the metric raises
METRIC_FAULTS = {
    "non-finite": FAULTS["non-finite"],
    "node counts": (DimensionError, "grid sizes differ: 7 vs 9 nodes"),
    "2-d function": FAULTS["2-d function"],
}


def _faulty_problem_and_pairs(fault, gate):
    rhs = (lambda t, x: np.zeros(3)) if fault == "rhs shape" else rhs_zero
    problem = BVPProblem(rhs=rhs, n=GRID_N, gate=STACK_GATES[gate])
    pairs = [(np.array(x), np.array(y)) for x, y in zip(*_stack_pairs(seeded_rng(5), 40, GRID_N))]
    x, y = pairs[25]
    if fault == "non-finite":
        x[3] = np.nan
    elif fault == "node counts":
        y = np.linspace(0.0, 1.0, GRID_N + 3)
    elif fault == "2-d function":
        x = np.zeros((2, GRID_N + 1))
    pairs[25] = (x, y)
    return problem, pairs


@pytest.mark.parametrize("gate", range(3))
@pytest.mark.parametrize("fault", list(FAULTS))
def test_faulty_stacks_raise_the_per_function_errors(fault, gate):
    problem, pairs = _faulty_problem_and_pairs(fault, gate)
    bundle = bvp_bundle(problem)
    checks = [alpha_admissible_check(), contraction_check(bundle, GRID_EPS),
              operator_contraction_check()]
    runs = [(WEIGHT_FAULTS[fault], lambda: check_pairs(bundle.mapping, bundle.alpha, pairs,
                                                       checks, sup_metric)),
            (FAULTS[fault], lambda: check_operator_contraction(problem, pairs))]
    if fault in ("non-finite", "rhs shape"):  # the pairs form an (N, 2, n + 1) array
        runs.append((FAULTS[fault], lambda: verify_contraction(bundle, np.array(pairs),
                                                               sup_metric)))
    if STACK_GATES[gate] is None:  # the open gate maps every pair
        runs.append((WEIGHT_FAULTS[fault], lambda: check_gate_propagation(problem, pairs)))
    if fault in METRIC_FAULTS:
        halving = bundle._replace(mapping=lambda x: 0.5 * x)
        runs.append((METRIC_FAULTS[fault], lambda: verify_contraction(halving, pairs, sup_metric)))
    for (error, text), run in runs:
        with pytest.raises(error) as raised:
            run()
        assert str(raised.value) == text


@pytest.mark.parametrize("member", [zeta1(0.5), alpha_box()], ids=["zeta1", "alpha_box"])
def test_columns_of_different_lengths_raise_a_dimension_error(member):
    # a member that broadcasts fails to on them, and its per-row values
    # would stop at the shorter column
    with pytest.raises(DimensionError) as raised:
        member.values(np.ones(3), np.ones(2))
    assert str(raised.value) == "columns of lengths 3, 2 do not align"
    with pytest.raises(DimensionError, match="columns of lengths 2, 1 do not align"):
        evaluate_block(sup_metric, sup_metric, np.zeros((2, 7)), [np.zeros(7)])


def test_object_array_of_grid_pairs_raises_the_metric_error():
    # np.array makes pairs whose node counts differ a 2-d object array
    problem, pairs = _faulty_problem_and_pairs("node counts", 0)
    pairs = np.array(pairs, dtype=object)
    assert pairs.shape == (40, 2)
    halving = bvp_bundle(problem)._replace(mapping=lambda x: 0.5 * x)
    with pytest.raises(DimensionError, match="grid sizes differ: 7 vs 9 nodes"):
        verify_contraction(halving, pairs, sup_metric)


@pytest.mark.parametrize("check, samples, message", [
    (check_cclass, [(1.0, 2.0, 3.0)], "C-class samples must be rows of 2 reals"),
    (check_cclass, [(1.0, 2.0), (1.0,)], "C-class samples must be rows of 2 reals"),
    (check_simulation_pointwise, np.ones((3, 3)), "simulation-function samples must be rows of 2"),
    (check_geraghty, [(1.0, 2.0)], "beta samples must be rows of 1 real$"),
    (check_geraghty, [0.5, (1.0, 2.0)], "beta samples must be rows of 1 real$"),
], ids=["3-wide", "ragged", "3-wide array", "2-wide beta", "ragged beta"])
def test_samples_of_another_width_raise_a_dimension_error(check, samples, message):
    member = {check_cclass: cclass_a(), check_simulation_pointwise: zeta1(),
              check_geraghty: beta_reciprocal()}[check]
    with pytest.raises(DimensionError, match=message):
        check(member, samples)


@pytest.mark.parametrize("check, samples, message", [
    (check_cclass, ["a"], "C-class samples must be reals, got 'a'"),
    (check_cclass, [(1.0, 2.0), (1.0, "x")], "C-class samples must be reals, got 'x'"),
    (check_simulation_pointwise, [(1.0, 1j)], "simulation-function samples must be reals, got 1j"),
    (check_geraghty, [0.5, {}], "beta samples must be reals, got {}"),
], ids=["string", "string in a row", "complex", "dict"])
def test_samples_that_are_not_reals_raise_a_domain_error_naming_them(check, samples, message):
    member = {check_cclass: cclass_a(), check_simulation_pointwise: zeta1(),
              check_geraghty: beta_reciprocal()}[check]
    with pytest.raises(DomainError) as raised:
        check(member, samples)
    assert str(raised.value) == message


def test_a_non_real_in_rhs_triples_raises_a_domain_error():
    problem = BVPProblem(rhs=rhs_zero, n=4)
    with pytest.raises(DomainError, match="the samples must be reals, got 'half'"):
        check_rhs_displacement_bound(problem, [(0.5, 1.0, 0.0), ("half", 1.0, 0.0)])


@pytest.mark.parametrize("c_g", [-0.5, math.nan, math.inf])
def test_a_benchmark_constant_that_is_not_a_finite_nonnegative_real_is_refused(c_g):
    with pytest.raises(DomainError) as raised:
        CClassFunction(lambda s, t: s - t, c_g=c_g)
    assert str(raised.value) == f"c_g must be a finite nonnegative real, got {c_g}"


def test_samples_that_are_not_iterable_raise_a_dimension_error():
    with pytest.raises(DimensionError) as raised:
        check_cclass(cclass_a(), 5.0)
    assert str(raised.value) == "C-class samples must be rows of 2 reals"


def test_per_sample_values_that_do_not_stack_raise_a_dimension_error():
    # one value per sample is wanted: these are lists of 1 and 2 entries
    with pytest.raises(DimensionError) as raised:
        evaluate_block(lambda x: 1 / 0, lambda x: [x] * int(x), np.array([1.0, 2.0]))
    assert str(raised.value).startswith("the per-sample values do not stack")
    # values of one shape that is neither the columns' nor one per row: a
    # metric written for single pairs that gives a (1,) array, and a map of
    # each grid function to a 2-d array, are refused where they are made,
    # not by the callable that reads them next
    message = ("the per-sample values do not stack into one array of reals or of grid "
               "functions on one grid")
    for run in (lambda: verify_contraction(example31_bundle(), Mesh(0.0, 3.0, 20)[:],
                                           lambda x, y: np.array([abs(x - y)])),
                lambda: evaluate_block(lambda x: 1 / 0, lambda x: np.stack([x, x], axis=-1),
                                       np.zeros((3, 7)))):
        with pytest.raises(DimensionError) as raised:
            run()
        assert str(raised.value) == message


def test_unknown_sequence_axiom_raises_a_domain_error():
    with pytest.raises(DomainError, match="unknown sequence axiom 'strict'"):
        SimulationFunction(lambda t, s: s - t, sequence_axiom="strict")


def test_rhs_triples_of_another_width_raise_a_dimension_error():
    problem = BVPProblem(rhs=rhs_zero, n=4)
    with pytest.raises(DimensionError, match="the samples must be rows of 3 reals"):
        check_rhs_displacement_bound(problem, [(0.5, 1.0)])


@pytest.mark.parametrize("body", ["x - x[x >= 0.0]*0.5", "x[::-1]", "x[0]", "x[:]"])
def test_expressions_that_subscript_are_rejected_when_compiled(body):
    # integer literals are floats, so no literal index works; a mask or a
    # slice works on one function but reads across the rows of a stack
    with pytest.raises(DomainError, match=r"subscripts, which an expr: body cannot"):
        resolve("rhs", f"expr:{body}")


@pytest.mark.parametrize("body", ["x*(x@x)", "x*(t@x)"])
def test_expressions_that_mix_nodes_take_one_function_at_a_time(body):
    # on 1-d x these give a scalar or t's shape; on a (5, 5) stack, @ would
    # read across its rows
    problem = BVPProblem(rhs=resolve("rhs", f"expr:{body}"), n=4)
    T = bvp_operator(problem)
    xs = seeded_rng(1).uniform(0.0, 1.0, size=(5, 5))
    with pytest.raises(DomainError, match="one grid function at a time"):
        T(xs)
    assert np.array_equal(_bits(evaluate_block(T, T, xs)), _bits([T(x) for x in xs]))
    assert T(xs[:0]).shape == (0, 5)  # an empty stack maps without calling the rhs


def test_a_rowwise_callable_keeps_the_node_axis_of_an_empty_stack():
    empty = np.empty((0, 7))
    assert evaluate_block(rowwise(lambda x: x), lambda x: x, empty).shape == (0, 7)


# ---------------------------------------------------------------------------
# The sample gate: every check_* name of the package's name table (and the
# master check) takes its samples through framework._table. Malformed samples
# raise the library's two errors only, and well-formed ones give the same
# report as a list of tuples and as one array.

GATE_N = 6
GATE_PROBLEM = BVPProblem(rhs=rhs_sin_plus_one, n=GATE_N)
GATE_T = bvp_operator(GATE_PROBLEM)


def _points(samples):
    """A check of one point per row takes each row's single entry; a row of
    another width stays a malformed point."""
    return [row[0] if len(row) == 1 else row for row in samples]


def _ratio_trace(samples):
    gaps = _points(samples)
    return IterationTrace(0.0, gaps, CONVERGED, 0.0)


# name: (row width, carrier of well-formed rows, the call on the samples)
GATE_CHECKS = {
    "check_alpha_admissible": (2, "real", lambda s: check_alpha_admissible(
        example31_map, alpha_box(), s)),
    "check_alpha_orbit": (1, "grid", lambda s: [check_alpha_orbit(
        GATE_T, alpha_from_gate(GATE_PROBLEM), x, 3) for x in _points(s)]),
    "check_cclass": (2, "real", lambda s: check_cclass(cclass_a(), s)),
    "check_gate_limit": (1, "grid", lambda s: check_gate_limit(
        GATE_PROBLEM, _points(s), np.full(GATE_N + 1, 0.5))),
    "check_gate_propagation": (2, "grid", lambda s: check_gate_propagation(GATE_PROBLEM, s)),
    "check_geraghty": (1, "real", lambda s: check_geraghty(beta_reciprocal(), s, [_points(s)])),
    "check_increasing": (2, "grid", lambda s: check_increasing(GATE_T, pointwise_order, s)),
    "check_initial_point": (1, "real", lambda s: [check_initial_point(
        example31_map, natural_order, x) for x in _points(s)]),
    "check_operator_contraction": (2, "grid", lambda s: check_operator_contraction(
        GATE_PROBLEM, s)),
    "check_order_axioms": (1, "grid", lambda s: check_order_axioms(
        pointwise_order, _points(s), sup_metric)),
    "check_ratio_bound": (1, "real", lambda s: check_ratio_bound(
        _ratio_trace(s), beta_reciprocal())),
    "check_rhs_displacement_bound": (3, "real", lambda s: check_rhs_displacement_bound(
        GATE_PROBLEM, s)),
    "check_simulation_pointwise": (2, "real", lambda s: check_simulation_pointwise(zeta1(), s)),
    "check_simulation_sequences": (1, "real", lambda s: check_simulation_sequences(
        zeta1(), [(_points(s), _points(s))])),
    "check_triangular_alpha": (3, "grid", lambda s: check_triangular_alpha(
        alpha_from_order(pointwise_order), s)),
    "verify_contraction": (2, "real", lambda s: verify_contraction(
        example31_bundle(), s, scalar_metric)),
}
MALFORMED = ["wrong width", "ragged", "non-real", "empty", "node counts", "other carrier"]


def test_the_gate_checks_cover_every_check_name():
    assert set(GATE_CHECKS) == {name for name in picardkit.__all__
                                if name.startswith("check_")} | {"verify_contraction"}


def _gate_rows(width, carrier, size, seed):
    """``size`` well-formed rows of ``width`` reals in (0, 1), or of as many
    constant grid functions of GATE_N + 1 nodes."""
    values = seeded_rng(seed).uniform(0.05, 0.95, (size, width))
    return [tuple(np.full(GATE_N + 1, v) if carrier == "grid" else v for v in row)
            for row in values.tolist()]


def _malformed(rows, kind, at, bad):
    """The rows broken as ``kind`` says, at row ``at``."""
    rows = [list(row) for row in rows]
    if kind == "wrong width":
        rows = [row + row[:1] for row in rows]
    elif kind == "ragged":
        rows[at] = rows[at][:-1] if len(rows[at]) > 1 else rows[at] * 2
    elif kind == "non-real":
        rows[at][0] = bad
    elif kind == "node counts":  # among reals, a grid function is a bad shape too
        rows[at][0] = np.full(GATE_N + 3, 0.5)
    elif kind == "other carrier":  # grid functions for reals, reals for grid functions
        rows = [[np.full(GATE_N + 1, v) if np.ndim(v) == 0 else float(v[0]) for v in row]
                for row in rows]
    return [] if kind == "empty" else [tuple(row) for row in rows]


def _gate_fingerprint(outcome):
    if isinstance(outcome, VerificationReport):
        return _fingerprint_report(outcome)
    if isinstance(outcome, list):
        return [_gate_fingerprint(item) for item in outcome]
    return outcome


@pytest.mark.parametrize("kind", MALFORMED)
@pytest.mark.parametrize("name", sorted(GATE_CHECKS))
@given(size=st.integers(1, 5), at=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1),
       bad=st.sampled_from(["a", 1j, {}, None, "1.5x"]))
@settings(max_examples=10, deadline=None)
def test_malformed_samples_raise_only_the_library_errors(name, kind, size, at, seed, bad):
    width, carrier, call = GATE_CHECKS[name]
    samples = _malformed(_gate_rows(width, carrier, size, seed), kind, at % size, bad)
    try:
        call(samples)
    except (DomainError, DimensionError):
        pass


@given(name=st.sampled_from(sorted(GATE_CHECKS)), size=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_well_formed_lists_and_arrays_give_equal_reports(name, size, seed):
    width, carrier, call = GATE_CHECKS[name]
    rows = _gate_rows(width, carrier, size, seed)
    # the rows as an array, and as a stream of two parts of it
    table = np.reshape(rows, (size, width, *([GATE_N + 1] if carrier == "grid" else [])))
    outcomes = []
    for samples in (rows, table, SampleStream(table[:size // 2], table[size // 2:])):
        try:
            outcomes.append(_gate_fingerprint(call(samples)))
        except (DomainError, DimensionError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("call, error, message", [
    (lambda: verify_contraction(example31_bundle(), np.ones((3, 1)), scalar_metric),
     DimensionError, "the samples must be rows of 2 reals or of 2 grid functions on one grid"),
    (lambda: check_triangular_alpha(alpha_one(), np.ones((3, 2))),
     DimensionError, "the samples must be rows of 3 reals or of 3 grid functions on one grid"),
    (lambda: check_gate_propagation(BVPProblem(rhs=rhs_zero, n=6), [np.zeros(7)]),
     DimensionError, "the samples must be rows of 2 reals or of 2 grid functions on one grid"),
    (lambda: verify_contraction(example31_bundle(), [1.0, 2.0], scalar_metric),
     DimensionError, "the samples must be rows of 2 reals or of 2 grid functions on one grid"),
    (lambda: BVPProblem(rhs=rhs_zero, n=4.0), DomainError, "grid size n must be an int, got 4.0"),
    (lambda: PicardConfig(max_iterations=2.5), DomainError,
     "max_iterations must be an int, got 2.5"),
    (lambda: PicardConfig(max_iterations=True), DomainError,
     "max_iterations must be an int, got True"),
    (lambda: PicardConfig(tolerance="a"), DomainError, "tolerance must be positive, got 'a'"),
    (lambda: PicardConfig(divergence_bound="a"), DomainError,
     "divergence_bound must be finite and positive, got 'a'"),
    (lambda: BVPProblem(rhs_zero, tolerance="a"), DomainError,
     "tolerance must be positive, got 'a'"),
    (lambda: picard_iterate(example31_map, "a", PicardConfig(), scalar_metric), DomainError,
     "iterate 0 is not a real or grid function: 'a'"),
    (lambda: scalar_metric("a", 0.0), DomainError, "scalar_metric needs reals, got 'a' and 0.0"),
], ids=["one column", "two columns for triples", "a bare grid function", "a list of reals",
        "a float grid size", "a float iteration budget", "a bool iteration budget",
        "a str tolerance", "a str divergence bound", "a str grid tolerance", "a str start",
        "a str point"])
def test_calls_that_ended_in_bare_errors_raise_the_library_errors(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
