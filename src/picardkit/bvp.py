"""Two-point boundary-value solver for ``-x'' = f(t, x)`` on [0, 1] with
homogeneous Dirichlet data, via Picard iteration on the equivalent integral
equation ``x(t) = int_0^1 G(t, s) f(s, x(s)) ds``. The triangular kernel
``G(t, s) = min(t, s) * (1 - max(t, s))`` annihilates the boundary, so the
solver's boundary values are exactly zero by construction.

The kernel is semiseparable, ``x(t) = (1 - t) int_0^t s f + t int_t^1
(1 - s) f``, so a quadrature on the solution grid is two prefix sums, one
forward and one over the reversed grid: each operator apply takes O(n) time
and memory, forms no ``(n + 1) x (n + 1)`` matrix and makes no BLAS call.
The sums run along the last axis, so one call applies the operator to a
whole (k, n + 1) stack of grid functions.
The solver's rule is composite Simpson split at the kernel's diagonal kink
(4th order). Panels with an odd number of subintervals close with a 3/8
block on the kink side; the one-subinterval panels next to the boundary use
a 3-point Newton-Cotes rule on the smooth kernel *branch*. Every rule is
exact on linear integrands, so the row sums of the discrete operator
reproduce the kernel row integral ``t(1 - t)/2``, whose maximum 1/8 is the
operator's contraction constant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .metrics import (GRID_EPS, Point, _real_or_array, _require_int, _require_positive,
                      as_grid_function, grid_pair, nodes, rowwise, sup_metric)

if TYPE_CHECKING:  # the checks import the check kernel, and a solve the Picard engine, when called
    from .framework import AlphaFunction, BlockCheck
    from .picard import IterationTrace, PicardConfig
    from .report import VerificationReport

CONTRACTION_FACTOR = 0.125  # sup_t of the kernel row integral t(1 - t)/2


def _check_unit_interval(name: str, value: np.ndarray | float) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr


def green_kernel(t, s):
    """Triangular kernel ``t(1 - s)`` for t <= s, ``s(1 - t)`` for s <= t;
    equivalently ``min(t, s) * (1 - max(t, s))``. Accepts scalars or arrays
    broadcast together; arguments must lie in [0, 1]."""
    ta = _check_unit_interval("t", t)
    sa = _check_unit_interval("s", s)
    return _real_or_array(np.minimum(ta, sa) * (1.0 - np.maximum(ta, sa)))


def green_row_integral(t):
    """Closed form of the kernel row integral over s: ``-t^2/2 + t/2``.

    Its maximum over [0, 1] is 1/8, attained at t = 1/2.
    """
    ta = _check_unit_interval("t", t)
    return _real_or_array(-0.5 * ta * ta + 0.5 * ta)


def _split_simpson_prefix(g: np.ndarray) -> np.ndarray:
    """Entry i is the split-Simpson quadrature (unit spacing) of ``g`` over
    nodes ``0..i``, for every i at once, along the last axis.

    Even i is a prefix sum of Simpson panels. Odd i >= 3 closes the Simpson
    prefix over ``0..i-3`` with a 3/8 block on ``[i-3, i]``, the kink side.
    The one-subinterval panel at i = 1 uses a 3-point Newton-Cotes rule
    (exact on quadratics) on the smooth branch extension over nodes 0..2,
    except on the degenerate n = 2 grid, where it is the trapezoid.
    """
    n = g.shape[-1] - 1
    out = np.empty(g.shape)
    panels = (g[..., :-2:2] + 4.0 * g[..., 1:-1:2] + g[..., 2::2]) / 3.0
    out[..., 0] = 0.0
    out[..., 2::2] = np.cumsum(panels, axis=-1)
    out[..., 3::2] = out[..., :-3:2] + (3.0 * g[..., :-3:2] + 9.0 * g[..., 1:-2:2]
                                        + 9.0 * g[..., 2:-1:2] + 3.0 * g[..., 3::2]) / 8.0
    if n >= 4:
        out[..., 1] = (5.0 * g[..., 0] + 8.0 * g[..., 1] - g[..., 2]) / 12.0
    else:
        out[..., 1] = 0.5 * (g[..., 0] + g[..., 1])
    return out


def _kernel_quadrature(ts: np.ndarray, complement: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Split-Simpson quadrature of ``G(t_i, s) f(s)`` over s at every node,
    in O(n) time and memory; ``f`` is one function's node values, or a stack
    of them.

    Each smooth panel [0, t_i] and [t_i, 1] is a prefix sum: the lower one
    runs forward over ``s f``, the upper one runs the same rule over the
    reversed ``(1 - s) f``, which puts split Simpson's 3/8 blocks on the kink
    side and its edge rule at i = n - 1. ``complement`` is ``1 - ts``.
    """
    h = 1.0 / (ts.size - 1)
    # an overflow leaves inf or nan here, which the callers' finite checks reject
    with np.errstate(over="ignore", invalid="ignore"):
        lower = _split_simpson_prefix(ts * f)
        upper = _split_simpson_prefix((complement * f)[..., ::-1])[..., ::-1]
        return h * (complement * lower + ts * upper)


def row_integral_quadrature(n: int) -> np.ndarray:
    """Split-Simpson quadrature of each kernel row ``G(t_i, .)`` over s;
    agrees with :func:`green_row_integral` to rounding error because every
    panel rule is exact on linear integrands."""
    ts = nodes(n)
    return _kernel_quadrature(ts, 1.0 - ts, np.ones(n + 1))


class BVPProblem:
    """One Dirichlet problem ``-x'' = f(t, x)``, ``x(0) = x(1) = 0``.

    ``rhs(t, x)`` must accept numpy arrays of nodes and node values and
    return finite values, nodewise: the value at a node depends on t and x
    there only. A stack of grid functions arrives as a 2-d ``x`` (one
    function per row, t broadcasting along the rows); an rhs whose result
    does not have the stack's shape is called again one function at a time,
    where scalars broadcast. ``gate`` is an optional pair predicate
    ``xi(a, b)``; None means the always-open gate (constant 1), which admits
    every pair. The grid size must be even to keep the split Simpson panels
    aligned.
    """

    def __init__(self, rhs: Callable[[np.ndarray, np.ndarray], np.ndarray], n: int = 100,
                 tolerance: float = 1e-8, gate: Optional[Callable] = None, name: str = "bvp"):
        _require_int("grid size n", n)
        if n < 2:
            raise DomainError(f"grid size must be at least 2, got {n}")
        if n % 2 != 0:
            raise DomainError(f"grid size must be even, got {n}")
        _require_positive("tolerance", tolerance)
        self.rhs, self.n, self.tolerance, self.gate, self.name = rhs, n, tolerance, gate, name
        self.nodes = nodes(n)
        self._complement = 1.0 - self.nodes

    def gate_value(self, a: float, b: float) -> float:
        if self.gate is None:
            return 1.0
        return float(self.gate(float(a), float(b)))

    def gate_values(self, x: Point, y: Point) -> np.ndarray:
        """Gate values ``xi(x(t_i), y(t_i))`` at every node of a
        :func:`~picardkit.metrics.grid_pair`, as one array (one row per pair
        of rows for two stacks): all ones for the open gate, else through
        :func:`~picardkit.framework.evaluate_block` on the node values."""
        xa, ya = grid_pair(x, y)
        if self.gate is None:
            return np.ones(xa.shape)
        from .framework import evaluate_block

        values = evaluate_block(self.gate, self.gate_value, xa.ravel(), ya.ravel())
        return values.reshape(xa.shape)

    def gate_weights(self, x: Point, y: Point) -> float | np.ndarray:
        """1 where the gate is positive at every node of the pair, else 0;
        one weight per pair of rows for two stacks."""
        if self.gate is None:
            return np.ones(grid_pair(x, y)[0].shape[:-1])
        return np.where(np.all(self.gate_values(x, y) > 0.0, axis=-1), 1.0, 0.0)

    def _least_gate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each pair of rows' least gate value over the nodes, and its first node."""
        values = self.gate_values(x, y)
        node = np.argmin(values, axis=-1)
        return values[np.arange(len(node)), node], node

    def rhs_values(self, x: np.ndarray) -> np.ndarray:
        """The rhs at the nodes of ``x``, one function or a stack."""
        values = np.asarray(self.rhs(self.nodes, x), dtype=float)
        if values.ndim == 0 and x.ndim == 1:
            values = np.full(self.nodes.shape, float(values))
        if values.shape != x.shape:
            raise DomainError(f"rhs returned shape {values.shape}, "
                              f"expected {x.shape}")
        if not np.all(np.isfinite(values)):
            raise DomainError("rhs produced non-finite values on the grid")
        return values


def integral_operator(problem: BVPProblem, x: Point) -> np.ndarray:
    """Apply the kernel-weighted quadrature to ``f(s, x(s))``; boundary
    nodes are exactly zero. A stack of grid functions maps row by row."""
    xa = as_grid_function(x, stack=True)
    if xa.shape[-1] != problem.nodes.size:
        raise DomainError(f"iterate has {xa.shape[-1]} nodes, problem grid has "
                          f"{problem.nodes.size}")
    if not xa.size:  # an empty stack, which an rhs that takes one function at a time cannot take
        return np.zeros(xa.shape)
    out = _kernel_quadrature(problem.nodes, problem._complement,
                             problem.rhs_values(xa))
    out[..., 0] = 0.0
    out[..., -1] = 0.0
    return out


def bvp_operator(problem: BVPProblem) -> Callable[[Point], np.ndarray]:
    """The problem's integral operator as a plain mapping for the Picard
    engine and the contraction verifiers, tagged row-wise."""
    return rowwise(lambda x: integral_operator(problem, x))


def second_difference_residual(problem: BVPProblem, x: Point) -> float:
    """Max over interior nodes of ``|-(x_{i-1} - 2 x_i + x_{i+1})/h^2 -
    f(t_i, x_i)|``: how well the grid function solves the differential
    form of the problem."""
    xa = as_grid_function(x)
    h = 1.0 / problem.n
    lap = -(xa[:-2] - 2.0 * xa[1:-1] + xa[2:]) / (h * h)
    f_vals = problem.rhs_values(xa)[1:-1]
    return float(np.max(np.abs(lap - f_vals)))


class BVPSolution(NamedTuple):
    """A solve's trace and the second-difference residual of its values;
    the values, the contraction estimate (the largest defined gap ratio, or
    None) and the verdict are read from the trace."""

    trace: IterationTrace
    residual: float

    @property
    def values(self) -> np.ndarray:
        return self.trace.final

    @property
    def contraction_estimate(self) -> Optional[float]:
        return max(self.trace.defined_ratios(), default=None)

    @property
    def converged(self) -> bool:
        from .picard import CONVERGED

        return self.trace.termination == CONVERGED


def picard_iterate(*args, **kwargs) -> IterationTrace:
    """:func:`picardkit.picard.picard_iterate`, which a solve runs through
    this name (perfbench's traced run wraps it to time the Picard layer);
    the engine's module loads at the first call, not with bvp."""
    from . import picard

    return picard.picard_iterate(*args, **kwargs)


def solve_bvp(problem: BVPProblem, cfg: PicardConfig | None = None) -> BVPSolution:
    """Picard-iterate the integral operator from the zero function.

    The zero start lies in the carrier and is admitted by the default gate.
    On any termination the solution record carries the trace and the
    second-difference residual.
    """
    from .picard import PicardConfig

    if cfg is None:
        cfg = PicardConfig(tolerance=problem.tolerance, max_iterations=200)
    x0 = np.zeros(problem.n + 1)
    trace = picard_iterate(bvp_operator(problem), x0, cfg, sup_metric)
    return BVPSolution(trace, second_difference_residual(problem, trace.final))


def check_rhs_displacement_bound(problem: BVPProblem,
                                 triples: Iterable[tuple[float, float, float]] | np.ndarray,
                                 tol: float = GRID_EPS) -> VerificationReport:
    """Check ``|f(t, a) - f(t, b)| <= max{|a - b|, |a - Ta|, |b - Tb|}`` on
    sampled ``(t, a, b)`` triples admitted by the gate.

    ``Ta`` embeds the constant function a, applies the integral operator,
    and reads the node nearest to t. Triples with a non-positive gate value
    are skipped (the bound is only required on gated pairs). The operator
    applies once, to the stack of the distinct constants of the admitted
    triples.
    """
    from .framework import BlockCheck, _block_reports, _table, evaluate_block

    table = _table(triples, 3)
    t, a, b = table.T
    outside = np.flatnonzero(~((0.0 <= t) & (t <= 1.0)))
    if outside.size:
        raise DomainError(f"t = {t[outside[0]]} outside [0, 1]")
    table = table[~(problem.gate_values(a, b) <= 0.0)]
    # the first of each run of equal values, so 0.0 and -0.0 are one
    # constant, as in np.unique, whose first call imports numpy.ma
    ordered = np.sort(table[:, 1:], axis=None)
    constants = np.concatenate([ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]])
    T = bvp_operator(problem)
    images = evaluate_block(T, T, np.repeat(constants[:, None], problem.n + 1, axis=1))

    def rhs(t, x):
        return evaluate_block(problem.rhs, lambda t, x: float(problem.rhs(t, x)), t, x)

    def clause(columns):
        t, a, b = columns
        node = np.rint(t * problem.n).astype(np.intp)  # round half to even, as round()
        ta, tb = (images[np.searchsorted(constants, x), node] for x in (a, b))
        lhs = np.abs(rhs(t, a) - rhs(t, b))
        bound = np.maximum(np.maximum(np.abs(a - b), np.abs(a - ta)), np.abs(b - tb))
        return None, lhs, bound, bound - lhs, bound

    return _block_reports(table, [BlockCheck(
        "rhs-displacement-bound", "rhs/displacement", clause,
        lambda lhs, bound: f"|f(t, a) - f(t, b)| = {lhs!r} exceeds the displacement max {bound!r}",
        tolerance=tol)])[0]


def operator_contraction_check(factor: float = CONTRACTION_FACTOR,
                               tol: float = GRID_EPS) -> BlockCheck:
    """``d(Tx, Ty) <= factor * M`` as a pair check of
    :func:`~picardkit.framework.check_pairs`: the bound is per pair."""
    from .framework import BlockCheck

    def clause(chunk):
        bound = factor * chunk.gauge
        return None, chunk.gap, bound, bound - chunk.gap, bound

    return BlockCheck(
        "operator-contraction", "operator/contraction", clause,
        lambda lhs, bound: f"||Tx - Ty|| = {lhs!r} exceeds {factor!r} * M = {bound!r}",
        tolerance=tol)


def check_operator_contraction(problem: BVPProblem,
                               pairs: Iterable[tuple[Point, Point]],
                               tol: float = GRID_EPS,
                               factor: float = CONTRACTION_FACTOR) -> VerificationReport:
    """Check ``||Tx - Ty||_inf <= factor * max{d(x, y), d(x, Tx), d(y, Ty)}``
    on sampled grid-function pairs; the default factor 1/8 is the kernel
    row-integral maximum. T applies once per sampled function."""
    from .framework import check_pairs

    return check_pairs(bvp_operator(problem), None, pairs,
                       [operator_contraction_check(factor, tol)], sup_metric)[0]


def alpha_from_gate(problem: BVPProblem) -> AlphaFunction:
    """Weight 1 on grid-function pairs whose gate is positive at every node
    (always 1 under the default open gate), else 0; row-wise on stacks.
    Each function is validated first, so a non-finite one raises
    :class:`DomainError` whatever the gate."""
    from .framework import AlphaFunction

    return AlphaFunction(rowwise(lambda x, y: problem.gate_weights(
        as_grid_function(x, stack=True), as_grid_function(y, stack=True))), name="alpha_gate")


def check_gate_propagation(problem: BVPProblem,
                           pairs: Iterable[tuple[Point, Point]]) -> VerificationReport:
    """Nodewise gate positivity must survive one application of the
    operator: ``xi(x(t), y(t)) > 0`` for all t implies
    ``xi(Tx(t), Ty(t)) > 0`` for all t, judged on the least gate value as in
    :func:`check_gate_limit`. A pass of :func:`~picardkit.framework.check_pairs`:
    the operator maps only the pairs the gate admits, a chunk per call."""
    from .framework import BlockCheck, check_pairs

    def clause(chunk):
        held = np.flatnonzero(chunk.weights > 0.0)
        worst, node = problem._least_gate(*chunk.images_at(held))
        # the margin worst - 0.0 is worst itself, bit for bit
        return held, worst, 0.0, worst, node

    return check_pairs(bvp_operator(problem), alpha_from_gate(problem), pairs, [BlockCheck(
        "gate-propagation", "gate/propagation", clause,
        lambda worst, node: f"gate positive on (x, y) but xi(Tx, Ty) = {worst!r} "
                            f"at node {node}", strict=True)])[0]


def check_gate_limit(problem: BVPProblem, sequence: Iterable[Point],
                     limit: Point) -> VerificationReport:
    """Falsification check of the gate's limit condition: when consecutive
    sequence members pass the gate nodewise and the sequence approaches
    ``limit``, each member paired with the limit must pass as well. A kernel
    pass over the member indices (none unless the members pass): the gate
    is called on the consecutive members, then on the members and the limit."""
    from .framework import BlockCheck, _block_reports, _table

    limit = as_grid_function(limit)
    table = _table([(x, limit) for x in sequence], 2, grids=True)
    if not np.all(np.isfinite(table)):  # the table admits them
        raise DomainError("grid function contains non-finite values")
    members = table[:, 0]
    held = len(table) and np.all(problem.gate_values(members[:-1], members[1:]) > 0.0)

    def clause(columns):
        k, = columns
        worst, node = problem._least_gate(members[k], table[k, 1])
        return None, worst, 0.0, worst, k, node

    return _block_reports(np.arange(len(table) if held else 0)[:, None], [BlockCheck(
        "gate-limit", "gate/limit", clause,
        lambda worst, k, node: f"xi(x_{k}, limit) = {worst!r} at node {node} is not positive",
        strict=True, mode="falsification")])[0]
