"""Pass/fail reports with re-checkable counterexample witnesses.

Checks never raise on a violated inequality: violations are recorded as
witnesses carrying the offending inputs and the signed margin of the
inequality, so any witness can be replayed standalone and must reproduce
its margin. A report's witnesses are in a canonical order, the string order
of :meth:`Witness.sort_key`; that makes merging associative and
deterministic, and the renderers show witnesses in the order the report
holds them. :func:`make_report` sorts a list of witnesses once.
:class:`FailingRows` holds the failing rows of a block check as columns and
builds :class:`Witness` objects on demand: the renderers ask for the first
few, and only a caller that iterates over all of them (a merge, a test)
builds and sorts every one.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import repeat
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

    def sort_key(self) -> tuple[str, str, str]:
        return (self.check, format_inputs(self.inputs), repr(float(self.margin)))


def _as_tuple(sample) -> tuple:
    return sample if isinstance(sample, tuple) else tuple(sample)


class FailingRows(SequenceABC):
    """The failing rows of one check, as columns: the sampled ``inputs``
    (an (N, k) float array, or a list of the sampled rows) and per row the
    left-hand value ``lhs``, the ``bound`` and the signed ``margin`` (the
    check's own, not always ``lhs - bound``). A witness's detail is
    ``detail`` of its left-hand value and its entries of ``columns``.
    It behaves as the list of their witnesses in canonical order under
    ``len``, iteration, indexing, slicing and ``==``, and builds each
    witness the first time a caller reaches it: a slice ``[:k]`` or an index
    ``i`` builds only the first ``k`` or ``i + 1``.

    A witness's inputs are the sampled row itself when ``inputs`` is a list,
    and a tuple of Python floats when it is an array.
    """

    def __init__(self, check: str, inputs, lhs: np.ndarray, bound: np.ndarray,
                 margin: np.ndarray, detail: Callable[..., str],
                 columns: Sequence[np.ndarray] = ()):
        self.check = check
        self._inputs = inputs
        self._values = [np.asarray(column, dtype=float) for column in (lhs, bound, margin)]
        self._detail = detail
        self._columns = tuple(columns)
        self._head: list[Witness] = []  # the first witnesses, in canonical order

    def __len__(self) -> int:
        return len(self._values[0])

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

    def _candidates(self, k: int) -> list[int]:
        """Rows that include the first ``k`` in canonical order. For float
        inputs, each key begins ``"(" + repr(x) + ", "`` for the first
        coordinate ``x`` (``")"`` in one dimension), and no repr holds a comma,
        so the rows of the smallest such prefixes that hold ``k`` rows are
        enough. Grouping goes by bit pattern: 0.0 and -0.0 render apart."""
        if not isinstance(self._inputs, np.ndarray) or k >= len(self):
            return list(range(len(self)))
        first = np.ascontiguousarray(self._inputs[:, 0]).view(np.uint64)
        patterns, counts = np.unique(first, return_counts=True)
        close = ", " if self._inputs.shape[1] > 1 else ")"
        prefixes = [repr(x) + close for x in patterns.view(np.float64).tolist()]
        held = 0
        for g in sorted(range(len(prefixes)), key=prefixes.__getitem__):
            held += int(counts[g])
            if held >= k:
                cutoff = prefixes[g]
                break
        chosen = patterns[[prefix <= cutoff for prefix in prefixes]]
        return np.flatnonzero(np.isin(first, chosen)).tolist()

    def _first(self, k: int) -> list[Witness]:
        """The first ``k`` witnesses in canonical order, built once each."""
        k = min(max(k, 0), len(self))
        if k > len(self._head):
            rows = self._candidates(k)
            if isinstance(self._inputs, np.ndarray):
                inputs = [tuple(row) for row in self._inputs[rows].tolist()]
            else:
                inputs = [_as_tuple(self._inputs[i]) for i in rows]
            extras = (zip(*(column[rows].tolist() for column in self._columns))
                      if self._columns else repeat(()))
            found = list(zip(inputs, *(values[rows].tolist() for values in self._values),
                             extras))
            # a stable sort of rows in sample order, as make_report's sort
            found.sort(key=lambda r: (format_inputs(r[0]), repr(r[3])))
            self._head += [Witness(self.check, row, margin, self._detail(value, *extra),
                                   lhs=value, bound=bound)
                           for row, value, bound, margin, extra in found[len(self._head):k]]
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
    ``witnesses`` are put in canonical order (failing rows already are)."""
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
    canonically, notes are kept once each in sorted order, statuses combine
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
