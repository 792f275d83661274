"""Metrics and grid-function helpers for the fixed-point verifiers.

The verifiers work on two carriers, whose elements the samplers in
:mod:`picardkit.sampling` draw:

* real intervals under the absolute-difference metric, and
* continuous functions on [0, 1] represented by their values on a uniform
  grid of ``n + 1`` nodes (both endpoints included), compared in the sup
  norm.

All operations are pure and reject non-finite values up front, so every
downstream check can assume finite distances. Values are immutable from the
library's point of view; concurrent use on shared inputs is safe.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Iterable, Union

import numpy as np

from .errors import DimensionError, DomainError

Point = Union[float, np.ndarray]
Metric = Callable[[Point, Point], float]
PointMap = Callable[[Point], Point]


def nodes(n: int) -> np.ndarray:
    """Uniform grid over [0, 1] with ``n + 1`` nodes, spacing ``1 / n``."""
    if n < 1:
        raise ValueError(f"grid size must be at least 1, got {n}")
    return np.linspace(0.0, 1.0, n + 1)


def as_grid_function(values: Iterable[float]) -> np.ndarray:
    """Validate ``values`` as a grid function and return it as a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DimensionError(
            f"a grid function is a 1-d array with at least 2 nodes, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("grid function contains non-finite values")
    return arr


def scalar_metric(x: Point, y: Point) -> Point:
    """Absolute difference ``|x - y|`` between two finite reals; elementwise
    on arrays of reals."""
    if getattr(x, "ndim", 0) or getattr(y, "ndim", 0):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
            raise DomainError("scalar_metric needs finite inputs")
        return np.abs(xa - ya)
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"scalar_metric needs finite inputs, got ({x}, {y})")
    return abs(x - y)


def sup_metric(x: Iterable[float], y: Iterable[float]) -> float:
    """Largest nodewise gap ``max_i |x(t_i) - y(t_i)|`` between two grid
    functions sampled on the same grid."""
    xa = as_grid_function(x)
    ya = as_grid_function(y)
    if xa.shape != ya.shape:
        raise DimensionError(f"grid sizes differ: {xa.size} vs {ya.size} nodes")
    return float(np.max(np.abs(xa - ya)))


def save_grid_csv(path: str | Path, values: Iterable[float],
                  grid: Iterable[float] | None = None) -> None:
    """Write a grid function as ``t,value`` rows with one header line."""
    arr = as_grid_function(values)
    ts = nodes(arr.size - 1) if grid is None else np.asarray(grid, dtype=float)
    if ts.shape != arr.shape:
        raise DimensionError("grid and values must have the same length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "value"])
        for t, v in zip(ts, arr):
            writer.writerow([repr(float(t)), repr(float(v))])


def load_grid_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``t,value`` CSV written by :func:`save_grid_csv`."""
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
