"""Correctness gate applied to every invocation the benchmark times.

It reads only the files the CLI wrote and recomputes what it checks with
its own formulas, never with picardkit code, so a change to the library
cannot also change what counts as correct.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

from workloads import Workload

WITNESS_REPLAY_TOL = 1e-12
SOLUTION_TOL = 1e-9

_PAIR = re.compile(r"^contraction \(([^,]+), ([^)]+)\)$")


def example31_margin(x: float, y: float) -> float:
    """Margin of the master inequality for the example31 bundle with the
    natural-order alpha: zeta(alpha*d(Tx, Ty), beta(M)*M) - c_G with
    T = x/3 on [0, 1] else 3x, alpha = [x <= y], beta(t) = 1/(1 + t),
    zeta(t, s) = (8/9) s - t and c_G = 0."""
    def T(v: float) -> float:
        return v / 3.0 if 0.0 <= v <= 1.0 else 3.0 * v

    tx, ty = T(x), T(y)
    m = max(abs(x - y), abs(x - tx), abs(y - ty))
    alpha = 1.0 if x <= y else 0.0
    s = (1.0 / (1.0 + m)) * m
    return (8.0 / 9.0) * s - alpha * abs(tx - ty)


def _read_rows(out: Path) -> list[dict]:
    with open(out / "report.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_witness(rows: list[dict]) -> list[str]:
    row = next((r for r in rows if r["check"] == "contraction"), None)
    if row is None:
        return ["no contraction row"]
    witness, margin = row.get("witness") or "", row.get("margin") or ""
    match = _PAIR.match(witness)
    try:
        x, y = float(match.group(1)), float(match.group(2))
        reported = float(margin)
    except (AttributeError, ValueError):
        return [f"unreadable contraction witness {witness!r} / {margin!r}"]
    replayed = example31_margin(x, y)
    if not abs(replayed - reported) <= WITNESS_REPLAY_TOL:
        return [f"witness ({x!r}, {y!r}) replays to {replayed!r}, "
                f"report says {reported!r}"]
    if not reported < 0.0:
        return [f"contraction witness margin {reported!r} is not negative"]
    return []


def _check_solution(out: Path, n: int) -> list[str]:
    try:
        with open(out / "solution.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        pairs = [(float(t), float(v)) for t, v in rows]
    except (OSError, ValueError) as exc:
        return [f"unreadable solution.csv: {exc}"]
    if len(pairs) != n + 1 or any(abs(t - i / n) > 1e-12 for i, (t, _) in enumerate(pairs)):
        return [f"solution.csv does not hold the {n + 1} nodes i/{n}"]
    error = max(abs(v - math.sin(math.pi * i / n)) for i, (_, v) in enumerate(pairs))
    if not error <= SOLUTION_TOL:
        return [f"max |x - sin(pi t)| = {error!r} exceeds {SOLUTION_TOL!r}"]
    return []


def check_outputs(workload: Workload, exit_code: int, out: Path) -> list[str]:
    """Problems found in one invocation's outputs; empty means correct."""
    if exit_code != workload.expected_exit:
        return [f"exit status {exit_code}, expected {workload.expected_exit}"]
    try:
        rows = _read_rows(out)
    except (OSError, csv.Error) as exc:
        return [f"unreadable report.csv: {exc}"]
    got = [(r.get("check"), r.get("status"), r.get("samples")) for r in rows]
    expected = workload.table(workload.sizes)
    if got != expected:
        return [f"report.csv table {got} differs from expected {expected}"]
    if workload.name == "verify-interval":
        return _check_witness(rows)
    if workload.name == "solve-bvp":
        return _check_solution(out, workload.sizes["n"])
    return []
