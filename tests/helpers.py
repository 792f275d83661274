"""Helpers that only the tests use: reading a grid function back from the
CSV ``save_grid_csv`` writes, and the gate's start predicate."""

import csv
from pathlib import Path

import numpy as np

from picardkit import BVPProblem, Point, as_grid_function, integral_operator


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
