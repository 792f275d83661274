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
:mod:`.posets` and :mod:`.bvp`, takes its samples through one gate,
:func:`_table`, and runs on one chunked kernel, :func:`_block_reports`. The
gate gives one of three tables: an (N, k) float array of reals, an
(N, k, n + 1) float array of grid functions (k functions of n + 1 nodes
per row), or a :class:`~picardkit.sampling.RowSource` of points (a
``Mesh``, a seeded ``Draw``, or a ``SampleStream`` joining them and
arrays), which makes its rows a chunk at a time, so a pass never holds
them whole (a small table of reals only is made whole). Rows given as
tuples are stacked once, at the gate; a bad shape raises
:class:`DimensionError`, and a value that is not a real raises
:class:`DomainError`. Each clause of the kernel (:class:`BlockCheck`)
gives the rows of a chunk it applies to with their margins, and one kernel
function decides which fail, by one rule (:func:`_breaks`); it gives the
failing rows of the chunk and their margins to the check's
:class:`~picardkit.report.FailingRows`, which keeps a bit per row, set if
it fails, and the inputs and margins of the worst few only. A chunk is up to :data:`CHUNK`
float values per column (16000, so that a float column of a chunk stays
just under 128 KiB, glibc's default threshold for serving an allocation
with mmap): 16000 samples of reals, or ``CHUNK // (n + 1)`` grid functions
of n + 1 nodes (at least one). A column of a chunk is a view of its rows:
a 1-d array of reals, or a (k, n + 1) stack of grid functions, which only
callables tagged :func:`~picardkit.metrics.rowwise` get whole.
:func:`evaluate_block` evaluates each callable once per chunk: family
callables may broadcast elementwise over arrays of real samples, and
callables that do not are evaluated per sample, with the same results;
either way a result is taken in one shape only, one value per row or the
columns' own. The pair hypotheses share one pass, :func:`check_pairs`, so
the mapping applies at most once per sampled point. A witness is built
only when a caller reaches it, by replaying its row through the clause; a
report gives its witnesses worst first, the most negative margin first.
Only two limit-style conditions loop, over a few probes, each probe's tail
(at least one term) in one :meth:`Family.values` call, and decide by the
strict rule too: :func:`check_simulation_sequences` and the limit probes of
:func:`check_geraghty`. They and :func:`picardkit.bvp.check_gate_limit`
are *falsification* checks: a pass means "no counterexample found on the
supplied probes", never a proof.
All verifiers are pure and order-independent; sample sets may be partitioned,
checked concurrently, and the reports merged with
:func:`picardkit.report.merge_reports`.
"""

from __future__ import annotations

import math
import numbers
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError
from .metrics import (GRID_EPS, SCALAR_EPS, Metric, Point, PointMap, _require_int,
                      as_grid_function)
from .report import FailingRows, Witness, VerificationReport, make_report
from .sampling import RowSource

MIN_TAIL = 25  # minimum tail length for limsup estimates

CHUNK = 16000  # float values per column of a chunk: see above


def evaluate_block(fn: Callable, scalar: Callable, *columns,
                   valid: Callable[[np.ndarray], np.ndarray] = np.isfinite) -> np.ndarray:
    """Values of ``scalar`` at every row of the aligned ``columns`` (1-d
    arrays of reals, or (k, n + 1) stacks of grid functions), as one float
    array of the one shape a result may have: the columns' shape, or one
    value per row. Columns of different lengths, or per-sample values of
    another shape, raise :class:`DimensionError`.

    ``fn`` is first called once on read-only views of the whole columns:
    on columns of reals of any length, or on stacks (empty ones too) when
    ``fn`` is tagged :func:`~picardkit.metrics.rowwise`; a result of that
    shape whose entries all pass ``valid`` is taken. Otherwise (``fn`` is
    written for single samples, aggregates or writes its argument, or gives
    an invalid entry) ``scalar`` is called once per row, in order, on Python
    floats or on one grid function of each stack, which reproduces the
    per-sample values and errors exactly."""
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise DimensionError(f"columns of lengths {', '.join(map(str, lengths))} do not align")
    shapes = (columns[0].shape, columns[0].shape[:1])  # the same for reals
    if getattr(fn, "rowwise", False) or columns[0].ndim == 1:
        views = [column.view() for column in columns]
        for view in views:
            view.flags.writeable = False
        try:
            with np.errstate(all="ignore"):
                out = fn(*views)
                if isinstance(out, np.ndarray) and out.shape in shapes and np.all(valid(out)):
                    return out.astype(float, copy=False)
        except Exception:  # a callable written for single samples or functions
            pass
    rows = zip(*(column.tolist() if column.ndim == 1 else column for column in columns))
    values = [scalar(*row) for row in rows]
    try:
        out = np.array(values, dtype=float)
    except (TypeError, ValueError):
        out = None
    if out is None or out.shape not in shapes:
        raise DimensionError("the per-sample values do not stack into one array of "
                             "reals or of grid functions on one grid")
    return out


class Family:
    """A named member ``fn`` of one function family. Its :meth:`valid`
    rule judges every value: a call returns a float and raises
    :class:`DomainError` unless the value passes it, and :meth:`values`
    evaluates the member on sample columns through :func:`evaluate_block`
    under it. The family's own axioms are checked by the verifiers."""

    rule = "finite"
    low = -math.inf  # the least valid value

    def __init__(self, fn: Callable, *, name: str = "f"):
        self.fn, self.name = fn, name

    def valid(self, values: np.ndarray) -> np.ndarray:
        """The rule, elementwise: finite, and at least ``low``."""
        return np.isfinite(values) & (values >= self.low)

    def __call__(self, *args) -> float:
        value = self.fn(*args)
        if np.ndim(value):  # the member met grid functions it takes for reals, say
            raise DimensionError(f"{self.name} gives a value of shape {np.shape(value)}, "
                                 f"not one real")
        value = float(value)
        if not self.valid(value):
            raise DomainError(f"{self.name}({', '.join(map(str, args))}) = {value!r} "
                              f"is not {self.rule}")
        return value

    def values(self, *columns) -> np.ndarray:
        """The member at every row of the aligned sample ``columns``."""
        return evaluate_block(self.fn, self, *columns, valid=self.valid)


class GeraghtyBeta(Family):
    """Gain function ``beta(t)`` for t >= 0, expected to take values in
    [0, 1). The range condition is verified by :func:`check_geraghty`, not
    enforced per call, so bundles with boundary violations still evaluate."""


class SimulationFunction(Family):
    """Two-argument function ``zeta(t, s)`` encoding a contraction
    inequality; ``sequence_axiom`` selects which limsup condition
    :func:`check_simulation_sequences` applies ("classic" accepts any
    equal-limit positive probes, "roldan" additionally requires t_n < s_n)."""

    def __init__(self, fn: Callable, *, name: str = "f", sequence_axiom: str = "classic"):
        if sequence_axiom not in ("classic", "roldan"):
            raise DomainError(f"unknown sequence axiom {sequence_axiom!r}")
        super().__init__(fn, name=name)
        self.sequence_axiom = sequence_axiom


class CClassFunction(Family):
    """Function ``G(s, t)`` generalizing the subtraction ``s - t``, together
    with its benchmark constant ``c_g >= 0``."""

    def __init__(self, fn: Callable, *, name: str = "f", c_g: float = 0.0):
        if not (isinstance(c_g, numbers.Real) and math.isfinite(c_g) and c_g >= 0.0):
            raise DomainError(f"c_g must be a finite nonnegative real, got {c_g!r}")
        super().__init__(fn, name=name)
        self.c_g = c_g


class AlphaFunction(Family):
    """Nonnegative admissibility weight ``alpha(x, y)`` over the carrier."""

    rule = "finite and nonnegative"
    low = 0.0


class ContractionBundle(NamedTuple):
    """One contraction hypothesis: the mapping plus its function family.

    ``caveats`` lists (check name, clause, note) triples for known benign
    boundary violations: the batch front-end reports a failing check as a
    caveat, witnesses shown, when every witness is of its declared clause.
    """

    mapping: PointMap
    alpha: AlphaFunction
    beta: GeraghtyBeta
    zeta: SimulationFunction
    g: CClassFunction
    name: str = "bundle"
    caveats: tuple[tuple[str, str, str], ...] = ()


def _tail(length: int, min_tail: int = MIN_TAIL) -> int:
    return min(length, max(length // 4, min_tail))


def _clauses(name: str, member: Family, table: np.ndarray, tol: float,
             clauses: Sequence[tuple]) -> VerificationReport:
    """The report of an axiom's clauses from one pass over real samples that
    evaluates the family ``member`` once per sample. Of a clause ``(check,
    rule, detail[, strict])``, ``rule`` reads the sample columns and the
    values and gives where the clause applies (None for every row), the
    bounds and the margins; ``detail`` formats one value and its sample."""
    def check(witness, rule, detail, strict=False):
        def clause(chunk):
            applies, bound, margin = rule(*chunk)
            index = None if applies is None else np.flatnonzero(applies)
            return index, *(column if index is None or not np.ndim(column) else column[index]
                            for column in (chunk[-1], bound, margin, *chunk[:-1]))
        return BlockCheck(name, witness, clause, detail, tolerance=tol, strict=strict)

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
    table = _table(samples, 2, "simulation-function")
    t, s = table.T
    # adding 0.0 turns a -0.0 coordinate into the origin's 0.0
    table = table[((t == 0.0) & (s == 0.0)) | ((t > 0.0) & (s > 0.0))] + 0.0
    return _clauses("simulation-pointwise", zeta, table, tol, [
        ("simulation/origin", lambda t, s, z: (t == 0.0, 0.0, -np.abs(z)),
         lambda z, t, s: f"zeta(0, 0) = {z!r} is not 0"),
        ("simulation/strict", lambda t, s, z: (t > 0.0, s - t, s - t - z),
         lambda z, t, s: f"zeta({t!r}, {s!r}) = {z!r} is not strictly below s - t = {s - t!r}",
         True)])


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
    _require_int("min_tail", min_tail, least=1)
    pairs = list(sequence_pairs)
    witnesses: list[Witness] = []
    for index, (t_seq, s_seq) in enumerate(pairs):
        tn, sn = (_table(seq, 1)[:, 0] for seq in (t_seq, s_seq))
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
        if _breaks(-estimate, tol, strict=True):
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
    return _clauses("cclass", g, _table(samples, 2, "C-class"), tol, [
        ("cclass/upper", lambda s, t, v: (None, s, s - v),
         lambda v, s, t: f"G({s!r}, {t!r}) = {v!r} exceeds s"),
        # G = s within tol breaks the clause unless s or t is within tol of 0
        ("cclass/degenerate", lambda s, t, v: (np.abs(v - s) <= tol, s, -np.minimum(s, t)),
         lambda v, s, t: f"G = s at non-degenerate arguments s={s!r}, t={t!r}"),
        ("cclass/benchmark", lambda s, t, v: (_breaks(c - v, tol), c, s - t),
         lambda v, s, t: f"G({s!r}, {t!r}) = {v!r} exceeds c_g = {c!r} but s <= t", True),
        ("cclass/zero-row", lambda s, t, v: (s <= tol, c, c - v),
         lambda v, s, t: f"G({s!r}, {t!r}) = {v!r} exceeds c_g = {c!r} on the s = 0 row")])


def check_geraghty(beta: GeraghtyBeta, samples: Iterable[float],
                   probe_sequences: Iterable[Sequence[float]] = (),
                   tol: float = SCALAR_EPS, limit_tol: float = 1e-9,
                   separation: float = 1e-6,
                   min_tail: int = MIN_TAIL) -> VerificationReport:
    """Range check ``beta(t) in [0, 1)`` on the samples, plus falsification
    probes of the limit property: a witness is reported when beta tends to 1
    (tail values within ``limit_tol`` of 1) along a probe whose arguments
    stay at least ``separation`` away from 0, decided by the strict rule on
    the margin minus the tail's least argument under the tolerance
    ``-separation``.
    """
    _require_int("min_tail", min_tail, least=1)
    ranged = _clauses("geraghty", beta, _table(samples, 1, "beta"), tol, [(
        "geraghty/range",
        # the margin from 0 where that breaks the rule, else the margin from 1
        lambda t, b: (None, np.where(_breaks(b, tol), 0.0, 1.0),
                      np.where(_breaks(b, tol), b, 1.0 - b)),
        lambda b, t: f"beta({t!r}) = {b!r} is "
                     + ("below 0" if _breaks(b, tol) else "not strictly below 1"), True)])
    witnesses: list[Witness] = []
    probes = list(probe_sequences)
    for index, seq in enumerate(probes):
        arr = _table(seq, 1)[:, 0]
        if arr.size == 0 or not np.all(np.isfinite(arr)) or float(arr.min()) < 0.0:
            raise DomainError(f"beta probe {index} must be non-empty, finite and nonnegative")
        k = _tail(arr.size, min_tail)
        tail = arr[-k:]
        tail_beta = beta.values(tail)
        tail_min_t = float(tail.min())
        tail_min_beta = float(tail_beta.min())
        if tail_min_beta >= 1.0 - limit_tol and _breaks(-tail_min_t, -separation, strict=True):
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


def _table(samples, width: int, nonnegative: str = "", grids: bool = False):
    """The samples as the kernel's table: an (N, width) float array of
    reals, made whole from a :class:`~picardkit.sampling.RowSource` too, or
    with ``grids`` also an (N, width, n + 1) one of grid functions, for which
    a row source of those rows stands as it is. Rows given as tuples are
    stacked here, once, and a list of reals is a table of width 1. A value
    that is not a real raises :class:`DomainError`, and any other shape
    :class:`DimensionError`. With ``nonnegative`` (what they sample), a
    sample with a negative coordinate raises :class:`DomainError`."""
    what = nonnegative or "the"
    wanted = (f"{what} samples must be rows of {width} real{'s' if width > 1 else ''}"
              + (f" or of {width} grid functions on one grid" if grids else ""))
    if not np.iterable(samples):
        raise DimensionError(wanted)
    table = samples
    if not (grids and isinstance(samples, RowSource)):  # an array or a row source sliced whole
        table = _stacked(samples[:] if isinstance(samples, (np.ndarray, RowSource))
                         else list(samples), what, grids, wanted)
        if table.ndim == 1 and (width == 1 or not table.size):  # reals, or no rows
            table = table.reshape(-1, width)
    shape = table[:0].shape
    if not (shape[1:] == (width,)
            or grids and len(shape) == 3 and shape[1] == width and shape[2] >= 2):
        raise DimensionError(wanted)
    if nonnegative and np.any(table < 0.0):
        row = table[np.any(table < 0.0, axis=1)][0].tolist()
        raise DomainError(f"{nonnegative} samples must be nonnegative, "
                          f"got {row[0] if width == 1 else tuple(row)}")
    return table


def _stacked(rows, what: str, grids: bool, wanted: str) -> np.ndarray:
    """The rows of :func:`_table` as one float array, or the error that
    names the first value that is not a real, else (with ``grids``) the
    first grid function that is none or differs in node count from the
    first."""
    try:
        table = np.asarray(rows)
        if table.dtype.kind != "c":
            return table.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    sequence = (list, tuple, np.ndarray)
    values = [value for row in rows for value in (row if isinstance(row, sequence) else (row,))]
    bad = [value for value in values if not isinstance(value, (*sequence, numbers.Real))]
    if bad:
        raise DomainError(f"{what} samples must be reals, got {bad[0]!r}")
    nodes = [as_grid_function(value).size for value in values
             if grids and isinstance(value, sequence)]
    differ = [size for size in nodes if size != nodes[0]]
    raise DimensionError(f"grid sizes differ: {nodes[0]} vs {differ[0]} nodes" if differ
                         else wanted)


def _blocks(table) -> Iterator[tuple[list, object]]:
    """(columns, rows) of consecutive chunks of the table, each of at least
    one row and up to CHUNK float values per column. ``rows`` is the chunk
    of the table, and its columns are views of it: 1-d arrays of reals, or
    (k, n + 1) stacks."""
    length = max(1, CHUNK // math.prod(table[:0].shape[2:]))
    for start in range(0, len(table), length):
        rows = table[start:start + length]
        yield list(np.moveaxis(rows, 1, 0)), rows


class BlockCheck(NamedTuple):
    """One clause of a chunked pass. ``clause(chunk)`` gives the rows of the
    chunk it applies to, as their indices (None for every row), then at
    those rows their left-hand values and bounds (one value may stand for
    every row), signed margins and the columns ``detail`` takes after the
    left-hand value. The kernel decides which fail, by :func:`_breaks` under
    ``tolerance`` and ``strict``, and keeps their margins; a witness runs the
    clause on its row for the rest, which must not depend on the chunk. The
    checks of a pass that share a report ``name`` are the clauses of one
    check; ``check`` names the witnesses."""

    name: str
    check: str
    clause: Callable
    detail: Callable[..., str]
    tolerance: float = 0.0
    strict: bool = False
    notes: tuple[str, ...] = ()
    mode: str = "exact"


def _breaks(margin, tolerance: float, strict: bool = False):
    """The one verdict rule, elementwise: a margin breaks its clause below
    ``-tolerance``, or, if strict, when not above ``tolerance`` (so a nan
    margin breaks a strict clause and no other)."""
    return np.logical_not(margin > tolerance) if strict else margin < -tolerance


def _write_failing(check: BlockCheck, view, rows: np.ndarray, into: FailingRows) -> None:
    """Write the rows of a chunk that break the clause ``into`` its store."""
    index, _, _, margin, *_ = check.clause(view)
    broken = np.flatnonzero(_breaks(margin, check.tolerance, check.strict))
    into.add(rows, broken if index is None else index[broken], margin[broken])


def _block_reports(table, checks: Sequence[BlockCheck],
                   chunk: Callable = lambda columns: columns) -> list[VerificationReport]:
    """The reports of ``checks`` from one pass over a table of
    :func:`_table`, one per report name in order: each chunk's columns are
    wrapped by ``chunk`` once and read by every check, and each check's
    failing rows are marked, and the worst kept, from the chunk, so a
    stream is never held whole. A witness replays its row through
    ``chunk`` too."""
    found = [FailingRows(check.check, check.detail, table, lambda rows, clause=check.clause:
                         clause(chunk(list(np.moveaxis(rows, 1, 0)))))
             for check in checks]
    for columns, rows in _blocks(table):
        view = chunk(columns)
        for check, into in zip(checks, found):
            _write_failing(check, view, rows, into)
        del view  # free this chunk's columns before the next chunk computes its own
    clauses: dict[str, list] = {}
    for check, into in zip(checks, found):
        clauses.setdefault(check.name, [check]).append(into)
    # a report of several clauses lists their witnesses, for make_report to sort
    return [make_report(name, parts[0] if len(parts) == 1 else [w for p in parts for w in p],
                        len(table), tolerance=check.tolerance, notes=check.notes, mode=check.mode)
            for name, (check, *parts) in clauses.items()]


def _pair_columns(T: PointMap, alpha: Optional[AlphaFunction], d: Optional[Metric],
                  xs, ys) -> SimpleNamespace:
    """The columns pair checks read, computed once per chunk: the ``weights``
    alpha(x, y), and with a metric ``d`` the ``gauge`` M = max{d(x, y),
    d(x, Tx), d(y, Ty)} and the ``gap`` d(Tx, Ty). ``images_at(index)`` gives
    Tx and Ty at those rows; without ``d``, T applies to those rows only."""
    chunk = SimpleNamespace(alpha=alpha,
                            weights=None if alpha is None else alpha.values(xs, ys))
    if d is None:
        chunk.images_at = lambda index: [evaluate_block(T, T, column[index])
                                         for column in (xs, ys)]
        return chunk
    tx, ty = images = [evaluate_block(T, T, column) for column in (xs, ys)]
    chunk.images_at = lambda index: [column[index] for column in images]
    chunk.gauge = np.maximum(np.maximum(evaluate_block(d, d, xs, ys),
                                        evaluate_block(d, d, xs, tx)),
                             evaluate_block(d, d, ys, ty))
    chunk.gap = evaluate_block(d, d, tx, ty)
    return chunk


def alpha_admissible_check(tol: float = SCALAR_EPS) -> BlockCheck:
    """``alpha(x, y) >= 1`` must survive one application of the mapping;
    only the images of pairs with ``alpha(x, y) >= 1`` are read."""
    def clause(chunk):
        held = np.flatnonzero(~_breaks(chunk.weights - 1.0, tol))
        value = chunk.alpha.values(*chunk.images_at(held))
        return held, value, 1.0, value - 1.0

    return BlockCheck("alpha-admissible", "alpha/admissible", clause,
                      lambda v: f"alpha(x, y) >= 1 but alpha(Tx, Ty) = {v!r}",
                      tolerance=tol)


def contraction_check(bundle: ContractionBundle, tol: float = SCALAR_EPS) -> BlockCheck:
    """The master inequality of :func:`verify_contraction`."""
    c = float(bundle.g.c_g)

    def clause(chunk):
        m = chunk.gauge
        lhs = bundle.zeta.values(chunk.weights * chunk.gap, bundle.beta.values(m) * m)
        return None, lhs, c, lhs - c

    return BlockCheck(
        "contraction", "contraction", clause,
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
    return _block_reports(_table(pairs, 2, grids=True), checks,
                          lambda columns: _pair_columns(T, alpha, d, *columns))


def check_alpha_admissible(T: PointMap, alpha: AlphaFunction,
                           pairs: Iterable[tuple[Point, Point]] | np.ndarray,
                           tol: float = SCALAR_EPS) -> VerificationReport:
    """``alpha(x, y) >= 1`` must survive one application of the mapping.
    The mapping is applied only to pairs with ``alpha(x, y) >= 1``."""
    return check_pairs(T, alpha, pairs, [alpha_admissible_check(tol)])[0]


def _chained(alpha: AlphaFunction, tol: float) -> Callable:
    """The clause "alpha(a, b) >= 1 and alpha(b, c) >= 1 force
    alpha(a, c) >= 1" on triples (a, b, c), each alpha evaluated only where
    the ones before it hold."""
    def clause(columns):
        xs, zs, ys = columns
        first = np.flatnonzero(~_breaks(alpha.values(xs, zs) - 1.0, tol))
        both = first[~_breaks(alpha.values(zs[first], ys[first]) - 1.0, tol)]
        value = alpha.values(xs[both], ys[both])
        return both, value, 1.0, value - 1.0

    return clause


def check_triangular_alpha(alpha: AlphaFunction,
                           triples: Iterable[tuple[Point, Point, Point]] | np.ndarray,
                           tol: float = SCALAR_EPS) -> VerificationReport:
    """``alpha(x, z) >= 1`` and ``alpha(z, y) >= 1`` must force
    ``alpha(x, y) >= 1`` on every sampled triple (x, z, y)."""
    return _block_reports(_table(triples, 3, grids=True), [BlockCheck(
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
