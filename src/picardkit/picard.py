"""Picard iteration engine with convergence diagnostics.

Runs the orbit ``x_{k+1} = T(x_k)``, records the last iterate and the
successive gaps ``d(x_k, x_{k+1})``, and terminates on one of three
conditions: the gap and the fixed-point residual both fall below the
tolerance ("converged"), the gap exceeds the divergence bound ("diverged"),
or the iteration budget runs out ("max_iterations"). The engine is
deterministic: identical inputs produce identical traces bit for bit. The
checks load :mod:`.framework` and :mod:`.report` at their first call,
through the handles at the top of the module, so an orbit run loads neither.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from . import _Later
from .errors import DomainError
from .metrics import SCALAR_EPS, Metric, Point, PointMap, _require_int, _require_positive

framework, report = map(_Later, ("framework", "report"))

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
DIVERGED = "diverged"

# Denominator floor below which a contraction ratio is omitted (not zero).
RATIO_EPS = SCALAR_EPS


class _StoppingRules(NamedTuple):
    tolerance: float = 1e-10
    max_iterations: int = 1000
    divergence_bound: float = 1e9


class PicardConfig(_StoppingRules):
    """An orbit's stopping rules, checked whenever a config is made, by
    ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        _require_positive("tolerance", config.tolerance)
        _require_int("max_iterations", config.max_iterations, least=1)
        _require_positive("divergence_bound", config.divergence_bound, "finite and positive")
        return config

    @classmethod
    def _make(cls, values):  # what _replace builds with
        return cls(*values)


class IterationTrace(NamedTuple):
    """Record of one Picard orbit: the last iterate ``final`` (the earlier
    ones are not kept), the gaps ``d(x_k, x_{k+1})``, the termination and
    ``residual = d(final, T(final))``. The ratios follow from the gaps:
    ``ratios[i]`` is ``gaps[i+1] / gaps[i]``, or None when ``gaps[i]`` is
    not above the ratio floor (no 0/0 artifacts at exact fixed points)."""

    final: Point
    gaps: list[float]
    termination: str
    residual: float

    @property
    def iterations(self) -> int:
        return len(self.gaps)

    @property
    def ratios(self) -> list[Optional[float]]:
        return [b / a if a > RATIO_EPS else None for a, b in zip(self.gaps, self.gaps[1:])]

    def defined_ratios(self) -> list[float]:
        return [r for r in self.ratios if r is not None]


def _validate_iterate(value: Point, index: int, carrier) -> None:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"iterate {index} is not a real or grid function: {value!r}") from exc
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"mapping produced a non-finite value at iterate {index}")
    if carrier is not None and not carrier(value):
        raise DomainError(f"mapping left the carrier at iterate {index}")


def picard_iterate(T: PointMap, x0: Point, cfg: PicardConfig, d: Metric,
                   carrier: Callable[[Point], bool] | None = None) -> IterationTrace:
    """Run the Picard orbit from ``x0`` under the config's stopping rules.

    Convergence requires both the successive gap and the post-hoc
    fixed-point residual to fall below the tolerance; the gap alone can
    stall prematurely on slow contractions. ``carrier`` is an optional
    membership predicate; violations raise :class:`DomainError` carrying
    the iterate index.
    """
    _validate_iterate(x0, 0, carrier)
    x = x0
    gaps: list[float] = []
    termination = MAX_ITERATIONS
    residual: float | None = None
    for k in range(cfg.max_iterations):
        x_next = T(x)
        _validate_iterate(x_next, k + 1, carrier)
        gap = d(x, x_next)
        gaps.append(gap)
        x = x_next
        if gap > cfg.divergence_bound:
            termination = DIVERGED
            break
        if gap <= cfg.tolerance:
            candidate = d(x, T(x))
            if candidate <= cfg.tolerance:
                termination = CONVERGED
                residual = candidate
                break
    if residual is None:
        try:
            residual = d(x, T(x))
        except (DomainError, ValueError, OverflowError):
            residual = math.inf
    return IterationTrace(final=x, gaps=gaps, termination=termination, residual=residual)


def gaps_monotone(trace: IterationTrace) -> bool:
    """True when the successive gaps are non-increasing within
    :data:`~picardkit.metrics.SCALAR_EPS`; vacuously true for traces with
    fewer than two gaps."""
    return all(b <= a + SCALAR_EPS for a, b in zip(trace.gaps, trace.gaps[1:]))


def check_ratio_bound(trace: IterationTrace,
                      beta: framework.GeraghtyBeta) -> report.VerificationReport:
    """Each defined ratio ``gaps[i+1] / gaps[i]`` must stay below
    ``beta(gaps[i]) + SCALAR_EPS``, the per-step gain a Geraghty-type
    contraction predicts for its own orbit."""
    gaps = framework._table(trace.gaps, 1)[:, 0]
    steps = np.flatnonzero(gaps[:-1] > RATIO_EPS)  # the steps whose ratio is defined

    def clause(columns):
        step = columns[0].astype(np.intp)
        with np.errstate(over="ignore", invalid="ignore"):  # as a division of Python floats
            ratio = gaps[step + 1] / columns[1]
        bound = beta.values(columns[1])
        return None, ratio, bound, bound - ratio, bound, step

    table = np.column_stack([steps, gaps[steps]])
    return framework._block_reports(table, [framework.BlockCheck(
        "ratio-bound", "picard/ratio", clause,
        lambda ratio, bound, step: f"gap ratio {ratio!r} exceeds beta(gap) = {bound!r} "
                                   f"at step {step}", tolerance=SCALAR_EPS)])[0]


def check_alpha_orbit(T: PointMap, alpha: framework.AlphaFunction, x0: Point,
                      n_max: int) -> report.VerificationReport:
    """Check ``alpha(x_n, x_m) >= 1`` for all 0 <= n < m <= n_max along the
    Picard orbit of ``x0``, in one pass over the index pairs (n, m).

    The orbit-propagation statement assumes ``alpha(x0, T(x0)) >= 1``; when
    that hypothesis fails the report status is "hypothesis-unmet", which is
    not a failure of the mapping. This check is also the finite
    falsification aid for subsequence-admissibility conditions: pass the
    candidate limit as the last orbit entry by choosing ``n_max``
    accordingly.
    """
    _require_int("n_max", n_max, least=1)
    orbit: list[Point] = [x0]
    for k in range(n_max):
        nxt = T(orbit[-1])
        _validate_iterate(nxt, k + 1, None)
        orbit.append(nxt)
    start_value = alpha(orbit[0], orbit[1])
    if framework._breaks(start_value - 1.0, SCALAR_EPS):
        return report.VerificationReport(
            name="alpha-orbit", status=report.HYPOTHESIS_UNMET, witnesses=[], samples=0,
            tolerance=SCALAR_EPS,
            notes=(f"hypothesis unmet: alpha(x0, T(x0)) = {start_value!r} < 1",))
    points = framework._table([(x,) for x in orbit], 1, grids=True)[:, 0]

    def clause(columns):
        n, m = columns
        value = alpha.values(points[n], points[m])
        return None, value, 1.0, value - 1.0, n, m

    # the index pairs in the order of combinations(range(len(orbit)), 2), as ints
    return framework._block_reports(np.column_stack(np.triu_indices(len(orbit), 1)), [
        framework.BlockCheck(
            "alpha-orbit", "alpha/orbit", clause,
            lambda value, n, m: f"alpha(x_{n}, x_{m}) = {value!r} falls below 1",
            tolerance=SCALAR_EPS)])[0]


class UniquenessReport(NamedTuple):
    """Multi-start probe outcome: converged limits are clustered with
    pairwise distance > 10 * tolerance counting as distinct. A singleton
    cluster set is consistent with uniqueness; several clusters are a
    uniqueness counterexample. Non-converged starts are listed individually
    and do not abort the probe."""

    starts: list[Point]
    traces: list[IterationTrace]
    distinct_limits: list[Point]
    failed_starts: list[tuple[int, str]]

    @property
    def limits(self) -> list[Point]:
        return [trace.final for trace in self.traces if trace.termination == CONVERGED]

    @property
    def consistent_with_uniqueness(self) -> bool:
        return len(self.distinct_limits) == 1 and not self.failed_starts


def uniqueness_probe(T: PointMap, starts: Iterable[Point], cfg: PicardConfig,
                     d: Metric) -> UniquenessReport:
    """Run :func:`picard_iterate` from every start, with no carrier
    predicate, and cluster the limits."""
    probe = UniquenessReport(list(starts), [], [], [])
    threshold = 10.0 * cfg.tolerance
    for index, x0 in enumerate(probe.starts):
        try:
            trace = picard_iterate(T, x0, cfg, d)
        except DomainError as exc:
            probe.traces.append(IterationTrace(x0, [], "domain-error", math.inf))
            probe.failed_starts.append((index, f"domain-error: {exc}"))
            continue
        probe.traces.append(trace)
        if trace.termination != CONVERGED:
            probe.failed_starts.append((index, trace.termination))
            continue
        if not any(d(trace.final, seen) <= threshold for seen in probe.distinct_limits):
            probe.distinct_limits.append(trace.final)
    return probe
