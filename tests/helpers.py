"""Helpers that only the tests use: reading a grid function back from the
CSV ``save_grid_csv`` writes, the gate's start predicate and its per-node
oracle, the finite-difference reference oracle for the boundary-value
solver, the family members that no config selects, the reference
witness order with the list-sorting report and report merge that the
library's one columnar order and clause merge are checked against, and
the step-by-step SplitMix64 generator that the sampler's counter-based
stream is checked against."""

import csv
from pathlib import Path

import numpy as np

from picardkit import (AlphaFunction, BVPProblem, CClassFunction, Point, SimulationFunction,
                       as_grid_function, green_kernel, integral_operator)
from picardkit.report import CAVEAT, FAIL, HYPOTHESIS_UNMET, PASS, VerificationReport


def load_grid_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``t,value`` CSV written by :func:`picardkit.save_grid_csv`."""
    ts: list[float] = []
    vs: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t", "value"]:
            raise ValueError(f"{path}: expected a 't,value' header line")
        for row in reader:
            if not row:
                continue
            ts.append(float(row[0]))
            vs.append(float(row[1]))
    return np.asarray(ts), np.asarray(vs)


def gate_accepts_start(problem: BVPProblem, x0: Point) -> bool:
    """True when ``xi(x0(t), (T x0)(t)) >= 0`` at every node: the gate
    admits the starting iterate."""
    xa = as_grid_function(x0)
    tx = integral_operator(problem, xa)
    return bool(np.all(problem.gate_values(xa, tx) >= 0.0))


def gate_value(problem: BVPProblem, a: float, b: float) -> float:
    """The gate ``xi(a, b)`` at one node, 1 for the open gate: the per-node
    oracle of :meth:`picardkit.BVPProblem.gate_values`."""
    if problem.gate is None:
        return 1.0
    return float(problem.gate(float(a), float(b)))


def zeta2(phi=None) -> SimulationFunction:
    """zeta(t, s) = s*phi(s) - t, for phi into [0, 1); default phi(s) = 1/(1+s)."""
    gain = phi if phi is not None else (lambda s: 1.0 / (1.0 + s))
    return SimulationFunction(lambda t, s: s * gain(s) - t, name="zeta2")


def zeta3(psi=None) -> SimulationFunction:
    """zeta(t, s) = s - psi(s) - t, for psi >= 0; default psi(s) = s/(1+s).

    ``psi`` must be continuous and vanish only at 0."""
    offset = psi if psi is not None else (lambda s: s / (1.0 + s))
    return SimulationFunction(lambda t, s: s - offset(s) - t, name="zeta3")


def cclass_b() -> CClassFunction:
    """G(s, t) = s - (2+t)t/(1+t), with benchmark c_g = 0."""
    return CClassFunction(lambda s, t: s - (2.0 + t) * t / (1.0 + t), c_g=0.0, name="cclass_b")


def alpha_one() -> AlphaFunction:
    """alpha(x, y) = 1, a Python float, so every call takes the per-sample path."""
    return AlphaFunction(lambda x, y: 1.0, name="alpha_one")


class OracleError(RuntimeError):
    """The reference oracle failed to produce a value (a signal of the test
    infrastructure, not a statement about the solver)."""


def trapezoid_weights(n: int) -> np.ndarray:
    """The dense trapezoid quadrature of the kernel on the n-grid: entry
    (i, j) is ``h G(t_i, t_j)``, the weight of node j in row i. The endpoint
    weights ``h/2`` meet the kernel's zeros at s = 0 and s = 1, so every
    weight is ``h`` times the kernel."""
    ts = np.linspace(0.0, 1.0, n + 1)
    return green_kernel(ts[:, None], ts[None, :]) / n


def finite_difference_solve(problem: BVPProblem, damping: float = 0.8,
                            tol: float = 1e-12,
                            max_iterations: int = 400) -> np.ndarray:
    """Reference route: central differences (2nd order) with a damped
    fixed-point iteration on the nonlinear system, to cross-check
    :func:`picardkit.solve_bvp`. On the interior nodes
    ``(1/h^2) tridiag(-1, 2, -1)`` has the exact inverse ``h G(t_i, t_j)``,
    so each sweep applies :func:`trapezoid_weights` as a dense matrix; it
    shares no quadrature code with the solver. Raises :class:`OracleError`
    when the iteration fails to converge."""
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    weights = trapezoid_weights(problem.n)
    x = np.zeros(problem.n + 1)
    for _ in range(max_iterations):
        x_next = (1.0 - damping) * x + damping * (weights @ problem.rhs_values(x))
        step = float(np.max(np.abs(x_next - x)))
        x = x_next
        if step <= tol:
            return x
    raise OracleError(f"finite-difference iteration did not reach {tol} "
                      f"within {max_iterations} sweeps")


def sort_key(witness) -> tuple[int, str, tuple[int, ...]]:
    """The witness order, one witness at a time: the margin, most negative
    first, then the check name, then the numbers in the inputs (a grid
    function gives its node values in order), numbers compared in the
    IEEE-754 total order (-0.0 before 0.0, a nan at the end its sign bit
    names)."""
    values = np.concatenate([np.ravel(v) for v in (witness.margin, *witness.inputs)])
    bits = values.astype(float).view(np.int64)
    keys = (bits ^ ((bits >> 63) & 0x7FFF_FFFF_FFFF_FFFF)).tolist()
    return keys[0], witness.check, tuple(keys[1:])


def make_report(name, witnesses, samples, *, mode="exact", tolerance=0.0, notes=()):
    """A report whose status is FAIL exactly when there is a witness, with
    the witnesses sorted once by :func:`sort_key`, worst first."""
    ordered = sorted(witnesses, key=sort_key)
    return VerificationReport(name=name, status=FAIL if ordered else PASS, witnesses=ordered,
                              samples=samples, mode=mode, tolerance=tolerance, notes=notes)


# merged status: the first of these that any operand has
_STATUS_PRECEDENCE = (FAIL, HYPOTHESIS_UNMET, CAVEAT, PASS)


def merge_reports(first, *rest):
    """Combine reports of the same check over partitioned sample sets: the
    oracle of the claim that the verifiers are order-independent.

    The merge is associative and order-independent: witnesses are re-sorted
    worst first, notes are kept once each in sorted order, statuses combine
    as fail > hypothesis-unmet > caveat > pass, and the merged mode is
    "falsification" when any operand's is.
    """
    reports = (first,) + rest
    for other in rest:
        if other.name != first.name:
            raise ValueError(f"cannot merge reports {first.name!r} and {other.name!r}")
    statuses = {rep.status for rep in reports}
    modes = {rep.mode for rep in reports}
    return VerificationReport(
        name=first.name,
        status=next(s for s in _STATUS_PRECEDENCE if s in statuses),
        witnesses=sorted((w for rep in reports for w in rep.witnesses), key=sort_key),
        samples=sum(rep.samples for rep in reports),
        mode="falsification" if "falsification" in modes else first.mode,
        tolerance=max(rep.tolerance for rep in reports),
        notes=tuple(sorted({note for rep in reports for note in rep.notes})))


MASK64 = 2 ** 64 - 1


def splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of SplitMix64 seeded with ``seed``, made
    one at a time as the published C reference (``splitmix64.c``) makes
    them: add the golden-ratio increment to the state, then mix it."""
    state, outputs = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        outputs.append(z ^ (z >> 31))
    return outputs


def uniform_block(seed: int, low: float, high: float, shape: tuple[int, ...],
                  skip: int = 0) -> np.ndarray:
    """The uniforms ``low + (high - low) * ((z >> 11) * 2**-53)`` of the
    SplitMix64 outputs of ``seed`` after the first ``skip``, in Python
    floats, as a float array of ``shape``."""
    count = int(np.prod(shape))
    values = splitmix64(seed, skip + count)[skip:]
    width = float(high) - float(low)
    return np.array([float(low) + width * ((z >> 11) * 2.0 ** -53) for z in values],
                    dtype=float).reshape(shape)
