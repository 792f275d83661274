"""Pass/fail reports with re-checkable counterexample witnesses.

Checks never raise on a violated inequality: violations are recorded as
witnesses carrying the offending inputs and the signed margin of the
inequality, so any witness can be replayed standalone and must reproduce
its margin. A report holds its witnesses worst first, in the order of
:meth:`Witness.sort_key`; that makes merging associative and deterministic,
and the renderers show them in that order. :func:`make_report` sorts a list
of witnesses once. :class:`FailingRows` holds the failing rows of a block
check as columns and builds :class:`Witness` objects on demand: the
renderers ask for the first few, and only a caller that iterates over all
of them (a merge, a test) builds and sorts every one.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_UNMET = "hypothesis-unmet"
CAVEAT = "caveat"

CSV_HEADER = ["check", "status", "samples", "mode", "witness", "lhs", "bound", "margin", "notes"]

_MAX_RENDERED_WITNESSES = 8


def format_value(value) -> str:
    """Deterministic compact rendering used in witness keys and reports."""
    if type(value) is float:  # the common case, ahead of the numpy types
        return repr(value)
    if isinstance(value, np.ndarray):
        return (f"grid(nodes={value.size}, min={float(value.min())!r}, "
                f"max={float(value.max())!r})")
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return repr(value)


def format_inputs(inputs: Sequence) -> str:
    return "(" + ", ".join([format_value(v) for v in inputs]) + ")"


def _total_order(values) -> np.ndarray:
    """The float64 values as int64 keys in the IEEE-754 total order: -0.0
    before 0.0, and a nan at the end its sign bit names."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return bits ^ ((bits >> 63) & 0x7FFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class Witness:
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

    def sort_key(self) -> tuple[int, str, tuple[int, ...]]:
        """The witness order: the margin, most negative first, then the
        check name, then the numbers in the inputs (a grid function gives
        its node values in order), numbers compared in the IEEE-754 total order."""
        keys = _total_order(np.concatenate([np.ravel(v) for v in (self.margin, *self.inputs)]))
        keys = keys.tolist()
        return keys[0], self.check, tuple(keys[1:])


class FailingRows(SequenceABC):
    """The failing rows of one check, written chunk by chunk by :meth:`add`
    straight into their final columns: the sampled inputs (an (N, k) float
    array of reals, or an (N, k, n + 1) one of grid functions) and per row
    the left-hand value, the bound, the signed margin (the check's own, not
    always lhs - bound) and the columns that ``detail`` takes after the
    left-hand value. A column has a row for each of the ``size`` samples, of
    which only the pages written become resident, or is one value stored once.
    It behaves as the list of their witnesses, worst first, under ``len``,
    iteration, indexing, slicing and ``==``, and builds each witness the
    first time a caller reaches it: ``[:k]`` or ``[i]`` builds the first
    ``k`` or ``i + 1``.

    A witness's inputs are its row as a tuple: of Python numbers, or of the
    row's grid functions.
    """

    def __init__(self, check: str, detail: Callable[..., str], size: int):
        self.check, self._detail, self._size, self._count = check, detail, size, 0
        self._inputs, self._values = np.empty(0), [np.zeros(0)] * 3
        self._head: list[Witness] = []  # the first witnesses, in order

    def add(self, rows: np.ndarray, index: np.ndarray, *values) -> None:
        """Write the failing rows ``index`` of the chunk ``rows`` and their values."""
        start, end = self._count, self._count + index.size
        if start == end:
            return
        if not start:  # the first failing rows
            self._values = [None] * len(values)
            self._inputs = np.empty((self._size, *rows.shape[1:]), rows.dtype)
        for i, value in enumerate(values):
            kept = self._values[i]
            if np.ndim(value) == 0 and (kept is None or kept is value):
                self._values[i] = value
                continue
            if kept is None:
                self._values[i] = np.empty(self._size, np.result_type(value))
            elif np.ndim(kept) == 0:  # rows before these share the value kept
                self._values[i] = np.empty(self._size, np.result_type(kept, value))
                self._values[i][:start] = kept
            self._values[i][start:end] = value
        self._inputs[start:end] = rows[index]
        self._count = end

    def column(self, i: int) -> np.ndarray:
        """Column ``i`` (lhs, bound, margin, details); one value broadcasts, stride 0."""
        value = self._values[i]
        return value[:self._count] if np.ndim(value) else np.broadcast_to(value, self._count)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if start == 0 and step == 1:
                return self._first(stop)
            return self._first(len(self))[index]
        return self._first(len(self))[index] if index < 0 else self._first(index + 1)[index]

    def __iter__(self):
        return iter(self._first(len(self)))

    def __eq__(self, other):
        if isinstance(other, (FailingRows, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def _first(self, k: int) -> list[Witness]:
        """The first ``k`` witnesses, built once each. Only the rows that
        can be among them are put in order."""
        k = min(max(k, 0), len(self))
        if k > len(self._head):
            lhs, bounds, margins = (self.column(i).astype(float, copy=False) for i in range(3))
            # numpy's order puts every nan last, so the rows kept are the
            # nans and those at most the k-th margin: the first k and more
            rows = np.flatnonzero(~(margins > np.partition(margins, k - 1)[k - 1]))
            # Witness.sort_key on whole columns: every row has this check, and
            # a row's numbers are its inputs flattened, a grid function's
            # node values in order
            numbers = self._inputs[:self._count].reshape(self._count, -1)
            keys = _total_order(margins[rows])
            if rows.size > k:  # rows tie at the k-th margin, or are nan
                # the tied rows that fill the first k are the least by their
                # first number, so the tied rows past them on that number are
                # dropped before the sort
                kth = np.partition(keys, k - 1)[k - 1]
                tied = keys == kth
                first = _total_order(numbers[rows[tied], 0])
                need = k - np.count_nonzero(keys < kth)
                tied[tied] = first <= np.partition(first, need - 1)[need - 1]
                kept = (keys < kth) | tied
                rows, keys = rows[kept], keys[kept]
            rows = rows[np.lexsort((*_total_order(numbers[rows]).T[::-1], keys))]
            rows = rows[len(self._head):k]
            chosen = self._inputs[rows]
            inputs = [tuple(row) for row in (chosen.tolist() if chosen.ndim == 2 else chosen)]
            columns = (lhs, bounds, margins, *map(self.column, range(3, len(self._values))))
            self._head += [Witness(self.check, row, margin, self._detail(value, *extra),
                                   lhs=value, bound=bound)
                           for row, (value, bound, margin, *extra) in zip(
                               inputs, zip(*(column[rows].tolist() for column in columns)))]
        return self._head[:k]


@dataclass
class VerificationReport:
    name: str
    status: str
    witnesses: Sequence[Witness] = field(default_factory=list)
    samples: int = 0
    mode: str = "exact"            # "exact" or "falsification"
    tolerance: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == PASS


def make_report(name: str, witnesses: Iterable[Witness] | FailingRows, samples: int, *,
                mode: str = "exact", tolerance: float = 0.0,
                notes: tuple[str, ...] = ()) -> VerificationReport:
    """A report whose status is FAIL exactly when there is a witness;
    ``witnesses`` are put in order, worst first (failing rows already are)."""
    ordered = (witnesses if isinstance(witnesses, FailingRows)
               else sorted(witnesses, key=Witness.sort_key))
    status = FAIL if ordered else PASS
    return VerificationReport(name=name, status=status, witnesses=ordered,
                              samples=samples, mode=mode, tolerance=tolerance,
                              notes=notes)


# merged status: the first of these that any operand has
_STATUS_PRECEDENCE = (FAIL, HYPOTHESIS_UNMET, CAVEAT, PASS)


def merge_reports(first: VerificationReport, *rest: VerificationReport) -> VerificationReport:
    """Combine reports of the same check over partitioned sample sets.

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
        witnesses=sorted((w for rep in reports for w in rep.witnesses),
                         key=Witness.sort_key),
        samples=sum(rep.samples for rep in reports),
        mode="falsification" if "falsification" in modes else first.mode,
        tolerance=max(rep.tolerance for rep in reports),
        notes=tuple(sorted({note for rep in reports for note in rep.notes})))


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
    counts: dict[str, int] = {}
    for rep in reports:
        counts[rep.status] = counts.get(rep.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append("")
    lines.append(f"summary: {len(reports)} checks ({summary})")
    return "\n".join(lines) + "\n"


def report_rows(reports: Sequence[VerificationReport]) -> list[list[str]]:
    """One CSV row per check: first witness fields, if any."""
    rows = []
    for rep in reports:
        first = rep.witnesses[0] if rep.witnesses else None
        rows.append([
            rep.name,
            rep.status,
            str(rep.samples),
            rep.mode,
            f"{first.check} {format_inputs(first.inputs)}" if first else "",
            format_value(first.lhs) if first is not None and first.lhs is not None else "",
            format_value(first.bound) if first is not None and first.bound is not None else "",
            format_value(first.margin) if first else "",
            "; ".join(rep.notes),
        ])
    return rows


def write_report_csv(path: str | Path, reports: Sequence[VerificationReport],
                     extra_rows: Sequence[Sequence[str]] = ()) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in report_rows(reports):
            writer.writerow(row)
        for row in extra_rows:
            writer.writerow(list(row))
