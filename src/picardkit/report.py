"""Pass/fail reports with re-checkable counterexample witnesses.

Checks never raise on a violated inequality: violations are recorded as
witnesses carrying the offending inputs and the signed margin of the
inequality, so any witness can be replayed standalone and must reproduce
its margin. A report holds its witnesses worst first, in the witness order:
the margin, then the check name, then the numbers in the inputs, each
number in the IEEE-754 total order; the renderers show them in that order.
:class:`FailingRows`, the one place a :class:`Witness` is built, keeps one
bit per sampled row of a clause, set where the row fails, and the worst few
rows whole, puts them in that order by columns (:func:`_witness_order`),
and builds each witness on demand by replaying its row: the renderers ask
for the first few, built from the rows kept, and only a caller that
iterates over all of them (a test, say) reads every row back and builds
and sorts every one. :func:`make_report` makes a report of the stores of a
check's clauses, merging several by margin and check name as a store too,
whose first k witnesses are built from each clause's first k. Only the
verifiers load this module: every report.csv, an orbit's too, is written by
:func:`picardkit.metrics.save_report_csv`.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError
from .metrics import save_report_csv

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
CAVEAT = "caveat"

_MAX_RENDERED_WITNESSES = 8


def format_value(value) -> str:
    """Deterministic compact rendering used in witness keys and reports: a
    grid function by its node count and range, anything else by its repr,
    a numpy bool, integer or float as the Python one (``.item()``)."""
    if isinstance(value, np.ndarray):
        return (f"grid(nodes={value.size}, min={float(value.min())!r}, "
                f"max={float(value.max())!r})")
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        value = value.item()
    return repr(value)


def format_inputs(inputs: Sequence) -> str:
    return "(" + ", ".join([format_value(v) for v in inputs]) + ")"


def _total_order(values) -> np.ndarray:
    """The float64 values as int64 keys in the IEEE-754 total order: -0.0
    before 0.0, and a nan at the end its sign bit names."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return bits ^ ((bits >> 63) & 0x7FFF_FFFF_FFFF_FFFF)


class Witness(NamedTuple):
    """One counterexample: the inputs, the violated inequality rendered as
    text, and the signed margin by which it failed."""

    check: str
    inputs: tuple
    margin: float
    detail: str
    lhs: Optional[float] = None
    bound: Optional[float] = None

    def render(self) -> str:
        return f"{self.check} at {format_inputs(self.inputs)}: {self.detail}"


def _near(margins: np.ndarray, k: int) -> np.ndarray:
    """The positions of the margins at most the ``k``-th least, and of the
    nans (numpy's order puts every nan last): the first k rows and more."""
    return np.flatnonzero(~(margins > np.partition(margins, k - 1)[k - 1]))


def _witness_order(margins: np.ndarray, inputs: np.ndarray, k: int) -> np.ndarray:
    """The positions of the first ``k`` of the rows ``inputs`` of one check
    with ``margins`` in the witness order, by whole columns (the margin,
    then a row's numbers: its inputs flattened, a grid function's node
    values in order), the earlier position first where two rows tie on every
    key. Only the rows that can be among them are put in order, and by their
    numbers only where margins tie."""
    rows = _near(margins, min(k, margins.size))
    keys = (_total_order(margins[rows]),)
    ordered = np.sort(keys[0])
    if np.any(ordered[1:] == ordered[:-1]):
        keys = (*_total_order(inputs[rows].reshape(rows.size, -1)).T[::-1], *keys)
    return rows[np.lexsort(keys)][:k]


class FailingRows(SequenceABC):
    """The failing rows of one check, written chunk by chunk by :meth:`add`.
    It keeps a bitmap of the N rows of the sampled ``table`` (an array, or
    a row source of :mod:`~picardkit.sampling`), N / 8 bytes whatever
    fails, with bit i set where row i fails; and the numbers, inputs and
    margins (the check's own, not always lhs - bound) of the
    :data:`_MAX_RENDERED_WITNESSES` worst rows so far. Each chunk's failing
    rows are merged into those, which is exact: the first k of a union are
    the first k of one part's first k and the other part. It behaves as the
    list of their witnesses, worst first, under ``len``, iteration,
    indexing, slicing and ``==``, and builds each witness the first time a
    caller reaches it: ``[:k]`` or ``[i]`` builds the first ``k`` or
    ``i + 1`` (a slice, up to its last position), from the kept rows while
    they suffice, else from every failing row, read back from the bitmap
    and the table (which must be left as it was) a chunk's span at a time
    and replayed for its margin. A witness is its row replayed: ``replay``
    runs the check's clause on an array of rows and gives what the pass
    gave (see :class:`~picardkit.framework.BlockCheck`); a replay that
    drops a row, or does not give the kept rows first with their margins
    bit for bit (a callable that is not deterministic), raises
    :class:`~picardkit.errors.DomainError`. A witness's inputs are its row
    as a tuple: of Python numbers, or of the row's grid functions.
    """

    def __init__(self, check: str, detail: Callable[..., str], table,
                 replay: Callable[[np.ndarray], tuple]):
        self.check, self._detail, self._replay, self._table = check, detail, replay, table
        # bit i of the bitmap is set where row i fails; sized before the
        # pass, so that a size too large to allocate fails first
        self._bits = np.zeros((len(table) + 7) // 8, np.uint8)
        self._count, self._seen, self._span = 0, 0, 1  # failing rows, rows, most rows of a chunk
        self._worst = np.empty(0, np.int64), table[:0], np.empty(0)  # numbers, inputs, margins
        self._head: list[Witness] = []  # the first witnesses, in order

    def add(self, rows: np.ndarray, index: np.ndarray, margins) -> None:
        """Mark the failing rows ``index`` of the chunk ``rows``, the next
        rows of the table, and keep the worst of them and of the kept rows."""
        numbers, (byte, shift) = index + self._seen, divmod(self._seen, 8)
        self._count, self._seen = self._count + index.size, self._seen + len(rows)
        self._span = max(self._span, len(rows))
        if index.size:
            # the chunk's bits from its first row's bit on: the byte it
            # starts in may hold the last chunk's, so they are or-ed in
            mask = np.zeros(shift + len(rows), bool)
            mask[index + shift] = True
            packed = np.packbits(mask, bitorder="little")
            self._bits[byte:byte + packed.size] |= packed
            margins = np.broadcast_to(margins, index.shape)
            near = _near(margins, min(_MAX_RENDERED_WITNESSES, index.size))  # all that can join
            merged = [np.concatenate(pair) for pair in
                      zip(self._worst, (numbers[near], rows[index[near]], margins[near]))]
            order = _witness_order(merged[2], merged[1], _MAX_RENDERED_WITNESSES)
            self._worst = tuple(column[order] for column in merged)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        positions = range(len(self))[index]  # an int, or a range for a slice
        if isinstance(positions, int):
            return self._first(positions + 1)[positions]
        head = self._first(max(positions[0], positions[-1]) + 1) if positions else []
        return [head[i] for i in positions]

    def __iter__(self):
        return iter(self._first(len(self)))

    def __eq__(self, other):
        if isinstance(other, (FailingRows, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def _read(self) -> tuple[np.ndarray, np.ndarray]:
        """The numbers of the failing rows, in order, and the rows, read back
        from the bitmap and the table a span of one chunk's rows at a time."""
        numbers, rows = [[column[:0]] for column in self._worst[:2]]
        for low in range(0, self._seen, self._span):
            byte, shift = divmod(low, 8)
            bits = np.unpackbits(self._bits[byte:(low + self._span + 7) // 8], bitorder="little")
            part = np.flatnonzero(bits[shift:shift + self._span])
            if part.size:
                numbers.append(part + low)
                rows.append(self._table[low:low + self._span][part])
        return np.concatenate(numbers), np.concatenate(rows)

    def _first(self, k: int) -> list[Witness]:
        """The first ``k`` witnesses, built once each."""
        k = min(max(k, 0), len(self))
        if k > len(self._head):
            kept, _, stored = self._worst
            numbers, inputs = self._worst[:2] if k <= kept.size else self._read()
            index, *columns = self._replay(inputs)
            mismatch = DomainError(f"{self.check}: replayed rows do not give their stored margins")
            if index is not None and len(index) != numbers.size:
                raise mismatch
            columns = [np.broadcast_to(column, numbers.shape) for column in columns]
            order = _witness_order(columns[2], inputs, k)
            top = order[:kept.size]  # the kept rows in their order, if the replay is the pass
            if not (np.array_equal(numbers[top], kept[:top.size]) and np.array_equal(
                    _total_order(columns[2][top]), _total_order(stored[:top.size]))):
                raise mismatch
            order = order[len(self._head):]
            chosen = inputs[order]
            rows = [tuple(row) for row in (chosen.tolist() if chosen.ndim == 2 else chosen)]
            self._head += [Witness(self.check, row, margin, self._detail(value, *extra),
                                   lhs=value, bound=bound)
                           for row, (value, bound, margin, *extra)
                           in zip(rows, zip(*(column[order].tolist() for column in columns)))]
        return self._head[:k]


class _Merged(FailingRows):
    """The witnesses of a check's clause ``stores``, each in the witness
    order and of a check name of its own, as one store of them in that
    order: merged by margin, then check name, in a stable sort, which keeps
    each store's order where those tie. The first ``k`` are merged from each
    store's first ``k``, so only those are built."""

    def __init__(self, stores: Sequence[Sequence[Witness]]):
        self._stores, self._head, self._count = stores, [], sum(map(len, stores))

    def _first(self, k: int) -> list[Witness]:
        if k > len(self._head):
            self._head = sorted([w for store in self._stores for w in store[:k]],
                                key=lambda w: (int(_total_order(w.margin)), w.check))[:k]
        return self._head[:k]


class VerificationReport(NamedTuple):
    name: str
    status: str
    witnesses: Sequence[Witness] = ()
    samples: int = 0
    mode: str = "exact"            # "exact" or "falsification"
    tolerance: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == PASS


def make_report(name: str, stores: Sequence[Sequence[Witness]], samples: int, *,
                mode: str = "exact", tolerance: float = 0.0,
                notes: tuple[str, ...] = ()) -> VerificationReport:
    """A report whose status is FAIL exactly when there is a witness, from
    the clause ``stores`` of one check, each in the witness order and of a
    check name of its own: one store is the report's witnesses as it is, and
    several are merged lazily (:class:`_Merged`) into the witness order."""
    witnesses = stores[0] if len(stores) == 1 else _Merged(stores)
    return VerificationReport(name=name, status=FAIL if witnesses else PASS, witnesses=witnesses,
                              samples=samples, mode=mode, tolerance=tolerance, notes=notes)


def render_text(reports: Sequence[VerificationReport],
                header_lines: Sequence[str] = ()) -> str:
    """Human-readable report: one status line per check plus witnesses."""
    lines: list[str] = list(header_lines)
    if lines:
        lines.append("")
    for rep in reports:
        lines.append(f"[{rep.status.upper():>6}] {rep.name}  "
                     f"(samples={rep.samples}, mode={rep.mode})")
        for note in rep.notes:
            lines.append(f"         note: {note}")
        shown = rep.witnesses[:_MAX_RENDERED_WITNESSES]
        for w in shown:
            lines.append(f"         witness {w.render()} [margin={format_value(w.margin)}]")
        hidden = len(rep.witnesses) - len(shown)
        if hidden > 0:
            lines.append(f"         ... and {hidden} more witnesses")
    statuses = [rep.status for rep in reports]
    summary = ", ".join(f"{statuses.count(s)} {s}" for s in sorted(set(statuses)))
    lines += ["", f"summary: {len(reports)} checks ({summary})"]
    return "\n".join(lines) + "\n"


def report_rows(reports: Sequence[VerificationReport]) -> list[list[str]]:
    """One CSV row per check: first witness fields, if any."""
    rows = []
    for rep in reports:
        first = rep.witnesses[0] if rep.witnesses else None
        rows.append([
            rep.name, rep.status, str(rep.samples), rep.mode,
            f"{first.check} {format_inputs(first.inputs)}" if first else "",
            format_value(first.lhs) if first is not None and first.lhs is not None else "",
            format_value(first.bound) if first is not None and first.bound is not None else "",
            format_value(first.margin) if first else "",
            "; ".join(rep.notes),
        ])
    return rows


def write_report_csv(path: str | Path, reports: Sequence[VerificationReport]) -> None:
    save_report_csv(path, report_rows(reports))
