"""Function families for generalized contraction hypotheses and their
sampling-based verifiers.

A contraction hypothesis is packaged as a :class:`ContractionBundle`
``(T, alpha, beta, zeta, G)`` and verified through the single inequality

    zeta(alpha(x, y) * d(Tx, Ty), beta(M) * M) >= c_G,

where ``M = max{d(x, y), d(x, Tx), d(y, Ty)}`` is the displacement gauge.
The family members carry their own side conditions:

* ``beta`` (Geraghty gain): values in [0, 1), and values tending to 1 must
  force arguments to 0;
* ``zeta`` (simulation function): zeta(0, 0) = 0, zeta(t, s) < s - t for
  positive arguments, and negative limsup along equal-limit positive
  sequences;
* ``G`` (C-class function): G(s, t) <= s with equality only at degenerate
  arguments, plus a benchmark constant c_G with G(s, t) > c_G forcing s > t;
* ``alpha`` (admissibility weight): nonnegative, and alpha >= 1 must survive
  one application of the mapping.

Pointwise conditions are checked exactly on the supplied samples, up to a
strictness epsilon. Every sampled verifier, here and in :mod:`.picard`,
:mod:`.posets` and :mod:`.bvp`, takes its samples as an (N, k) float array
or as tuples of reals or of grid functions, and runs on one chunked kernel,
:func:`_block_reports`: each of its checks (:class:`BlockCheck`) gives a
chunk's failing rows as columns, margins included. A chunk is :data:`CHUNK`
samples of reals, or as many grid functions as hold about
:data:`STACK_NODES` node values, and :func:`evaluate_block` evaluates each
callable once per chunk: family callables may broadcast elementwise over
arrays of real samples, and callables that do not are evaluated per sample,
with the same results. A chunk of grid functions is one (k, n + 1) stack per
coordinate, which only callables tagged :func:`~picardkit.metrics.rowwise`
get whole. The pair hypotheses share one pass, :func:`check_pairs`, so the
mapping applies at most once per sampled point. The failing rows of a check
of one clause stay columns (:class:`picardkit.report.FailingRows`) and build
a witness only when a caller reaches it. Only the limit-style conditions
loop, over a few probes: :func:`check_simulation_sequences` and the limit
probes of :func:`check_geraghty`, with one :meth:`Family.values` call per
probe, and :func:`picardkit.bvp.check_gate_limit`.
They are *falsification* checks: a pass means "no counterexample found on
the supplied probes", never a proof.
All verifiers are pure and order-independent; sample sets may be partitioned,
checked concurrently, and the reports merged with
:func:`picardkit.report.merge_reports`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError
from .metrics import Metric, Point, PointMap, as_grid_function
from .report import FailingRows, Witness, VerificationReport, make_report

# Strict inequalities are checked as "lhs < rhs - eps"; equalities use the
# same eps. Scalar-metric quantities resolve to 1e-12, sup-metric quantities
# to 1e-9 (quadrature noise).
SCALAR_EPS = 1e-12
GRID_EPS = 1e-9

MIN_TAIL = 25  # minimum tail length for limsup estimates

CHUNK = 4096  # reals per block in the block verifiers
STACK_NODES = 16384  # node values per coordinate in a chunk of grid functions


def _stack(functions: list):
    """The grid functions as one (k, n + 1) float stack, one per row, when
    they are 1-d float arrays of one length; else the list itself."""
    if functions and all(isinstance(f, np.ndarray) and f.ndim == 1 and f.dtype == float
                         and f.shape == functions[0].shape for f in functions):
        return np.stack(functions)
    return functions


def _one_function(row: tuple) -> tuple:
    """A row's arguments for one call of a row-wise callable, which would
    read a 2-d one as a stack: that is rejected as a grid function."""
    for value in row:
        if np.ndim(value) > 1:
            as_grid_function(value)
    return row


def evaluate_block(fn: Callable, scalar: Callable, *columns,
                   valid: Callable[[np.ndarray], np.ndarray] = np.isfinite):
    """Values of ``scalar`` at every row of the aligned ``columns``.

    Columns of reals are 1-d arrays. When each has more than one entry,
    ``fn`` is first called once on read-only views of the whole columns. If
    it returns an array of their shape whose entries all pass ``valid``,
    that array is the result: ``fn`` broadcasts elementwise. Otherwise
    (``fn`` is written for single samples, aggregates its argument, writes
    into it, or gives an invalid entry) ``scalar`` is called once per row,
    in order, on Python floats, which reproduces the per-sample values and
    errors exactly; the result is a float array.

    Columns of grid functions are (k, n + 1) stacks or lists. When every
    column is a non-empty stack and ``fn`` is tagged
    :func:`~picardkit.metrics.rowwise`, it is called once on read-only views
    of the stacks, and a result of shape (k,) or (k, n + 1) whose entries
    all pass ``valid`` is taken. Otherwise ``scalar`` is called once per
    function, on the rows; the values come back as a stack when they are
    grid functions of one length, else as a list.
    """
    row_wise = getattr(fn, "rowwise", False)
    if all(isinstance(column, np.ndarray) for column in columns):
        stacked = columns[0].ndim > 1
        if (row_wise or not stacked) and len(columns[0]) > (0 if stacked else 1):
            shapes = (columns[0].shape, columns[0].shape[:1])  # the same for reals
            views = [column.view() for column in columns]
            for view in views:
                view.flags.writeable = False
            try:
                with np.errstate(all="ignore"):
                    out = fn(*views)
                    if (isinstance(out, np.ndarray) and out.shape in shapes
                            and np.all(valid(out))):
                        return out.astype(float, copy=False)
            except Exception:  # a callable written for single samples or functions
                pass
        if not stacked:
            return np.array([scalar(*row) for row in zip(*(c.tolist() for c in columns))],
                            dtype=float)
    return _stack([scalar(*_one_function(row) if row_wise else row) for row in zip(*columns)])


@dataclass(frozen=True)
class Family:
    """A named member ``fn`` of one function family. A call returns a float
    and raises :class:`DomainError` unless the value passes the family's
    :meth:`valid` rule; :meth:`values` evaluates it on sample columns through
    :func:`evaluate_block` under the same rule. The family's own axioms are
    checked by the verifiers, not per call."""

    fn: Callable
    name: str = field(default="f", kw_only=True)
    rule = "finite"
    low = -math.inf  # the least valid value

    def valid(self, values: np.ndarray) -> np.ndarray:
        """The rule, elementwise: finite, and at least ``low``."""
        return np.isfinite(values) & (values >= self.low)

    def __call__(self, *args) -> float:
        value = float(self.fn(*args))
        if not (math.isfinite(value) and value >= self.low):
            raise DomainError(f"{self.name}({', '.join(map(str, args))}) = {value!r} "
                              f"is not {self.rule}")
        return value

    def values(self, *columns) -> np.ndarray:
        """The member at every row of the aligned sample ``columns``."""
        return np.asarray(evaluate_block(self.fn, self, *columns, valid=self.valid),
                          dtype=float)


class GeraghtyBeta(Family):
    """Gain function ``beta(t)`` for t >= 0, expected to take values in
    [0, 1). The range condition is verified by :func:`check_geraghty`, not
    enforced per call, so bundles with boundary violations still evaluate."""


@dataclass(frozen=True, kw_only=True)
class SimulationFunction(Family):
    """Two-argument function ``zeta(t, s)`` encoding a contraction
    inequality; ``sequence_axiom`` selects which limsup condition
    :func:`check_simulation_sequences` applies ("classic" accepts any
    equal-limit positive probes, "roldan" additionally requires t_n < s_n)."""

    sequence_axiom: str = "classic"

    def __post_init__(self) -> None:
        if self.sequence_axiom not in ("classic", "roldan"):
            raise ValueError(f"unknown sequence axiom {self.sequence_axiom!r}")


@dataclass(frozen=True, kw_only=True)
class CClassFunction(Family):
    """Function ``G(s, t)`` generalizing the subtraction ``s - t``, together
    with its benchmark constant ``c_g >= 0``."""

    c_g: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_g) and self.c_g >= 0.0):
            raise DomainError(f"c_g must be a finite nonnegative real, got {self.c_g}")


class AlphaFunction(Family):
    """Nonnegative admissibility weight ``alpha(x, y)`` over the carrier."""

    rule = "finite and nonnegative"
    low = 0.0


@dataclass(frozen=True)
class ContractionBundle:
    """One contraction hypothesis: the mapping plus its function family.

    ``caveats`` lists (check name, note) pairs for known benign boundary
    violations; the batch front-end reports these as caveats instead of
    failures while still showing the witness.
    """

    mapping: PointMap
    alpha: AlphaFunction
    beta: GeraghtyBeta
    zeta: SimulationFunction
    g: CClassFunction
    name: str = "bundle"
    caveats: tuple[tuple[str, str], ...] = ()


def _tail(length: int, min_tail: int = MIN_TAIL) -> int:
    return min(length, max(length // 4, min_tail))


def _clauses(name: str, member: Family, table: np.ndarray, tol: float,
             clauses: Sequence[tuple[str, Callable, Callable]]) -> VerificationReport:
    """The report of an axiom's clauses from one pass over real samples that
    evaluates the family ``member`` once per sample. Of a clause ``(check,
    rule, detail)``, ``rule`` reads the sample columns and the values and
    gives where it fails, the bounds and the margins; ``detail`` formats one
    value and its sample."""
    def check(witness, rule, detail):
        def failing(chunk):
            broken, bound, margin = rule(*chunk)
            return _rows(broken, chunk[-1], bound, margin, *chunk[:-1])
        return BlockCheck(name, witness, failing, detail, tolerance=tol)

    return _block_reports(table, [check(*clause) for clause in clauses],
                          lambda columns: (*columns, member.values(*columns)))[0]


def check_simulation_pointwise(zeta: SimulationFunction,
                               samples: Iterable[tuple[float, float]] | np.ndarray,
                               tol: float = SCALAR_EPS) -> VerificationReport:
    """Exact check of the origin value ``zeta(0, 0) = 0`` and of the strict
    bound ``zeta(t, s) < s - t`` on strictly positive samples.

    Samples with exactly one zero coordinate fall outside both clauses and
    are skipped. A useful sample set contains (0, 0) and a spread of
    strictly positive pairs.
    """
    table = _reals(samples, 2, "simulation-function")
    t, s = table.T
    # adding 0.0 turns a -0.0 coordinate into the origin's 0.0
    table = table[((t == 0.0) & (s == 0.0)) | ((t > 0.0) & (s > 0.0))] + 0.0
    return _clauses("simulation-pointwise", zeta, table, tol, [
        ("simulation/origin", lambda t, s, z: ((t == 0.0) & (np.abs(z) > tol), 0.0, -np.abs(z)),
         lambda z, t, s: f"zeta(0, 0) = {z!r} is not 0"),
        ("simulation/strict", lambda t, s, z: ((t > 0.0) & ~(s - t - z > tol), s - t, s - t - z),
         lambda z, t, s: f"zeta({t!r}, {s!r}) = {z!r} is not strictly below s - t = {s - t!r}")])


def check_simulation_sequences(zeta: SimulationFunction,
                               sequence_pairs: Iterable[tuple[Sequence[float], Sequence[float]]],
                               tol: float = SCALAR_EPS,
                               min_tail: int = MIN_TAIL) -> VerificationReport:
    """Falsification check of the negative-limsup condition along probe
    sequence pairs sharing a positive limit.

    The limsup is estimated by the maximum of zeta over the final quarter of
    each probe (at least ``min_tail`` terms); supply longer probes for
    sharper estimates. A pass refutes nothing beyond the supplied probes.
    """
    pairs = list(sequence_pairs)
    witnesses: list[Witness] = []
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
        k = _tail(tn.size, min_tail)
        tails_t, tails_s = tn[-k:], sn[-k:]
        values = zeta.values(tails_t, tails_s)
        best = int(np.argmax(values))
        estimate = float(values[best])
        if estimate >= -tol:
            witnesses.append(Witness(
                "simulation/limit", (index, float(tails_t[best]), float(tails_s[best])),
                -estimate,
                f"tail limsup estimate {estimate!r} over {k} terms is not negative",
                lhs=estimate, bound=0.0))
    return make_report("simulation-limits", witnesses, len(pairs),
                       mode="falsification", tolerance=tol)


def check_cclass(g: CClassFunction, samples: Iterable[tuple[float, float]] | np.ndarray,
                 tol: float = SCALAR_EPS) -> VerificationReport:
    """Check the C-class clauses on sampled ``(s, t)`` from the closed
    positive quadrant:

    * upper bound: G(s, t) <= s;
    * degeneracy: G(s, t) = s (within tol) only when s or t is within tol of 0;
    * benchmark: G(s, t) > c_g forces s > t;
    * zero row: G(s, t) <= c_g whenever s = 0.

    The zero-row clause is evaluated at s = 0 only; a useful sample set
    covers s = 0, t = 0, and the open quadrant.
    """
    c = float(g.c_g)
    return _clauses("cclass", g, _reals(samples, 2, "C-class"), tol, [
        ("cclass/upper", lambda s, t, v: (s - v < -tol, s, s - v),
         lambda v, s, t: f"G({s!r}, {t!r}) = {v!r} exceeds s"),
        ("cclass/degenerate",
         lambda s, t, v: (~(s - v < -tol) & (np.abs(v - s) <= tol) & (s > tol) & (t > tol),
                          s, -np.minimum(s, t)),
         lambda v, s, t: f"G = s at non-degenerate arguments s={s!r}, t={t!r}"),
        ("cclass/benchmark", lambda s, t, v: ((v > c + tol) & ~(s > t + tol), c, s - t),
         lambda v, s, t: f"G({s!r}, {t!r}) = {v!r} exceeds c_g = {c!r} but s <= t"),
        ("cclass/zero-row", lambda s, t, v: ((s <= tol) & (v > c + tol), c, c - v),
         lambda v, s, t: f"G({s!r}, {t!r}) = {v!r} exceeds c_g = {c!r} on the s = 0 row")])


def check_geraghty(beta: GeraghtyBeta, samples: Iterable[float],
                   probe_sequences: Iterable[Sequence[float]] = (),
                   tol: float = SCALAR_EPS, limit_tol: float = 1e-9,
                   separation: float = 1e-6,
                   min_tail: int = MIN_TAIL) -> VerificationReport:
    """Range check ``beta(t) in [0, 1)`` on the samples, plus falsification
    probes of the limit property: a witness is reported when beta tends to 1
    (tail values within ``limit_tol`` of 1) along a probe whose arguments
    stay at least ``separation`` away from 0.
    """
    ranged = _clauses("geraghty", beta, _reals(samples, 1, "beta"), tol, [(
        "geraghty/range",
        lambda t, b: ((b < -tol) | ~(1.0 - b > tol), np.where(b < -tol, 0.0, 1.0),
                      np.where(b < -tol, b, 1.0 - b)),
        lambda b, t: f"beta({t!r}) = {b!r} is "
                     + ("below 0" if b < -tol else "not strictly below 1"))])
    witnesses: list[Witness] = []
    probes = list(probe_sequences)
    for index, seq in enumerate(probes):
        arr = np.asarray(seq, dtype=float)
        if arr.size == 0 or not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
            raise DomainError(f"beta probe {index} must be non-empty, finite and nonnegative")
        k = _tail(arr.size, min_tail)
        tail = arr[-k:]
        tail_beta = beta.values(tail)
        tail_min_t = float(tail.min())
        tail_min_beta = float(tail_beta.min())
        if tail_min_beta >= 1.0 - limit_tol and tail_min_t >= separation:
            witnesses.append(Witness(
                "geraghty/limit", (index, tail_min_t), -tail_min_t,
                f"beta tends to 1 (tail min beta = {tail_min_beta!r}) while the "
                f"arguments stay above {tail_min_t!r}",
                lhs=tail_min_beta, bound=1.0))
    notes = ("range clause is exact; limit clause is falsification-only",) if probes else ()
    return make_report("geraghty", [*ranged.witnesses, *witnesses],
                       ranged.samples + len(probes),
                       mode="falsification" if probes else "exact",
                       tolerance=tol, notes=notes)


def _reals(samples, width: int, nonnegative: str = "") -> np.ndarray:
    """Samples of reals as an (N, width) float array, converted in one call;
    ragged rows, or rows of another width, raise :class:`DimensionError`.
    With ``nonnegative`` (what they sample), the first sample with a
    negative coordinate raises :class:`DomainError`."""
    try:
        table = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples),
                           dtype=float)
        table = table.reshape(len(table), width)
    except ValueError as exc:
        raise DimensionError(f"{nonnegative or 'the'} samples must be rows of "
                             f"{width} real{'s' if width > 1 else ''}") from exc
    if nonnegative and np.any(table < 0.0):
        row = table[np.any(table < 0.0, axis=1)][0].tolist()
        raise DomainError(f"{nonnegative} samples must be nonnegative, "
                          f"got {row[0] if width == 1 else tuple(row)}")
    return table


def _table(samples) -> tuple[object, object]:
    """The samples to compute on, and the rows witnesses take their inputs
    from. An (N, k) array of reals is both, as floats. Other samples (an
    (N, k, n + 1) array, or an object array of grid functions, too) are
    listed: tuples of reals are computed on as one float array, tuples of
    grid functions as they are."""
    if isinstance(samples, np.ndarray) and samples.ndim == 2 and samples.dtype != object:
        table = np.asarray(samples, dtype=float)
        return table, table
    rows = list(samples)
    if rows and np.ndim(rows[0][0]) == 0:
        return np.array(rows, dtype=float), rows
    return rows, rows


def _blocks(table) -> Iterator[tuple[int, list]]:
    """(offset, columns) of consecutive chunks of the table: CHUNK samples
    of reals (columns are float array views), or as many grid functions as
    hold about STACK_NODES node values (columns are stacks, or lists where
    the functions do not stack), so the images a chunk keeps stay small on
    either carrier."""
    if isinstance(table, np.ndarray):
        for start in range(0, len(table), CHUNK):
            yield start, list(table[start:start + CHUNK].T)
        return
    length = max(1, STACK_NODES // np.size(table[0][0])) if table else 1
    for start in range(0, len(table), length):
        yield start, [_stack(list(column)) for column in zip(*table[start:start + length])]


def _take(column, index: np.ndarray):
    if isinstance(column, np.ndarray):
        return column[index]
    return [column[i] for i in index.tolist()]


class BlockCheck(NamedTuple):
    """One check of a chunked pass. ``failing(chunk)`` gives a chunk's
    failing rows as columns: their indices, left-hand values, bounds and
    signed margins (one value may stand for every row), then the columns
    ``detail`` takes after the left-hand value. The checks of a pass that
    share a report ``name`` are the clauses of one check; ``check`` names
    the witnesses."""

    name: str
    check: str
    failing: Callable
    detail: Callable[..., str]
    tolerance: float = 0.0
    notes: tuple[str, ...] = ()


def _rows(failing: np.ndarray, *columns) -> tuple:
    """The indices where ``failing`` holds, then each column at them (a
    single value stays as it is): what ``BlockCheck.failing`` gives."""
    index = np.flatnonzero(failing)
    return (index, *(column[index] if np.ndim(column) else column for column in columns))


def _block_reports(samples, checks: Sequence[BlockCheck],
                   chunk: Callable = lambda columns: columns) -> list[VerificationReport]:
    """The reports of ``checks`` from one pass over the samples, one per
    report name in order: each chunk's columns are wrapped by ``chunk`` once
    and read by every check."""
    table, inputs = _table(samples)
    # per check, the columns of its failing rows, chunk by chunk
    found = [[] for _ in checks]
    for start, columns in _blocks(table):
        view = chunk(columns)
        for check, parts in zip(checks, found):
            index, *values = check.failing(view)
            parts.append([start + index, *(np.broadcast_to(v, index.shape) for v in values)])
        del view  # free this chunk's columns before the next chunk computes its own
    clauses: dict[str, list] = {}
    for check, parts in zip(checks, found):
        rows, lhs, bound, margin, *columns = (map(np.concatenate, zip(*parts)) if parts
                                              else [np.zeros(0, np.intp)] * 4)
        clauses.setdefault(check.name, [check]).append(FailingRows(
            check.check, _take(inputs, rows), lhs, bound, margin, check.detail, columns))
    # a report of several clauses lists their witnesses, for make_report to sort
    return [make_report(name, parts[0] if len(parts) == 1 else [w for p in parts for w in p],
                        len(table), tolerance=check.tolerance, notes=check.notes)
            for name, (check, *parts) in clauses.items()]


def _distances(d: Metric, first, second) -> np.ndarray:
    return np.asarray(evaluate_block(d, d, first, second), dtype=float)


def _pair_columns(T: PointMap, alpha: Optional[AlphaFunction], d: Optional[Metric],
                  xs, ys) -> SimpleNamespace:
    """The columns pair checks read, computed once per chunk: the ``weights``
    alpha(x, y), and with a metric ``d`` the ``gauge`` M = max{d(x, y),
    d(x, Tx), d(y, Ty)} and the ``gap`` d(Tx, Ty). ``images_at(index)`` gives
    Tx and Ty at those rows; without ``d``, T applies to those rows only."""
    chunk = SimpleNamespace(alpha=alpha,
                            weights=None if alpha is None else alpha.values(xs, ys))
    if d is None:
        chunk.images_at = lambda index: [evaluate_block(T, T, _take(column, index))
                                         for column in (xs, ys)]
        return chunk
    tx, ty = images = [evaluate_block(T, T, column) for column in (xs, ys)]
    chunk.images_at = lambda index: [_take(column, index) for column in images]
    chunk.gauge = np.maximum(np.maximum(_distances(d, xs, ys), _distances(d, xs, tx)),
                             _distances(d, ys, ty))
    chunk.gap = _distances(d, tx, ty)
    return chunk


def alpha_admissible_check(tol: float = SCALAR_EPS) -> BlockCheck:
    """``alpha(x, y) >= 1`` must survive one application of the mapping;
    only the images of pairs with ``alpha(x, y) >= 1`` are read."""
    def failing(chunk):
        held = np.flatnonzero(chunk.weights >= 1.0 - tol)
        value = chunk.alpha.values(*chunk.images_at(held))
        lost = value < 1.0 - tol
        return held[lost], value[lost], 1.0, value[lost] - 1.0

    return BlockCheck("alpha-admissible", "alpha/admissible", failing,
                      lambda v: f"alpha(x, y) >= 1 but alpha(Tx, Ty) = {v!r}",
                      tolerance=tol)


def contraction_check(bundle: ContractionBundle, tol: float = SCALAR_EPS) -> BlockCheck:
    """The master inequality of :func:`verify_contraction`."""
    c = float(bundle.g.c_g)

    def failing(chunk):
        m = chunk.gauge
        lhs = bundle.zeta.values(chunk.weights * chunk.gap, bundle.beta.values(m) * m)
        return _rows(lhs - c < -tol, lhs, c, lhs - c)

    return BlockCheck(
        "contraction", "contraction", failing,
        lambda v: f"zeta(alpha*d(Tx, Ty), beta(M)*M) = {v!r} falls below c_g = {c!r}",
        tolerance=tol, notes=(f"bundle={bundle.name}",))


def check_pairs(T: PointMap, alpha: Optional[AlphaFunction],
                pairs: Iterable[tuple[Point, Point]] | np.ndarray,
                checks: Sequence[BlockCheck],
                d: Optional[Metric] = None) -> list[VerificationReport]:
    """The reports of the pair ``checks`` (:func:`alpha_admissible_check`,
    :func:`contraction_check`, :func:`picardkit.bvp.operator_contraction_check`),
    in their order, from one chunked pass over ``pairs`` under the mapping
    ``T``, the weight ``alpha`` (None if no check reads it) and the metric
    ``d``. The checks share each chunk's columns (:func:`_pair_columns`), so
    T applies at most once per sampled point."""
    return _block_reports(pairs, checks, lambda columns: _pair_columns(T, alpha, d, *columns))


def check_alpha_admissible(T: PointMap, alpha: AlphaFunction,
                           pairs: Iterable[tuple[Point, Point]] | np.ndarray,
                           tol: float = SCALAR_EPS) -> VerificationReport:
    """``alpha(x, y) >= 1`` must survive one application of the mapping.
    The mapping is applied only to pairs with ``alpha(x, y) >= 1``."""
    return check_pairs(T, alpha, pairs, [alpha_admissible_check(tol)])[0]


def _chained(alpha: AlphaFunction, tol: float) -> Callable:
    """``failing`` of "alpha(a, b) >= 1 and alpha(b, c) >= 1 force
    alpha(a, c) >= 1" on triples (a, b, c), each alpha evaluated only where
    the ones before it hold."""
    def failing(columns):
        xs, zs, ys = columns
        first = np.flatnonzero(alpha.values(xs, zs) >= 1.0 - tol)
        both = first[alpha.values(_take(zs, first), _take(ys, first)) >= 1.0 - tol]
        value = alpha.values(_take(xs, both), _take(ys, both))
        broken = value < 1.0 - tol
        return both[broken], value[broken], 1.0, value[broken] - 1.0

    return failing


def check_triangular_alpha(alpha: AlphaFunction,
                           triples: Iterable[tuple[Point, Point, Point]] | np.ndarray,
                           tol: float = SCALAR_EPS) -> VerificationReport:
    """``alpha(x, z) >= 1`` and ``alpha(z, y) >= 1`` must force
    ``alpha(x, y) >= 1`` on every sampled triple (x, z, y)."""
    return _block_reports(triples, [BlockCheck(
        "alpha-triangular", "alpha/triangular", _chained(alpha, tol),
        lambda v: f"alpha chains through z but alpha(x, y) = {v!r}", tolerance=tol)])[0]


def verify_contraction(bundle: ContractionBundle,
                       pairs: Iterable[tuple[Point, Point]] | np.ndarray,
                       d: Metric, tol: float = SCALAR_EPS) -> VerificationReport:
    """Sampled check of the master inequality

        zeta(alpha(x, y) * d(Tx, Ty), beta(M) * M) >= c_G

    with ``M = max{d(x, y), d(x, Tx), d(y, Ty)}``. The carrier must be
    closed under the mapping on the sampled pairs; witnesses carry the pair,
    the left-hand value, the benchmark c_G, and the margin.
    """
    return check_pairs(bundle.mapping, bundle.alpha, pairs, [contraction_check(bundle, tol)], d)[0]
