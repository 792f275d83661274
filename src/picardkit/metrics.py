"""Metrics and grid-function helpers for the fixed-point verifiers.

The verifiers work on two carriers, whose elements the samplers in
:mod:`picardkit.sampling` draw:

* real intervals under the absolute-difference metric, and
* continuous functions on [0, 1] represented by their values on a uniform
  grid of ``n + 1`` nodes (both endpoints included), compared in the sup
  norm.

A (k, n + 1) array is a *stack* of k grid functions, one per row (see
:func:`rowwise`).

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


def rowwise(fn: Callable) -> Callable:
    """Tag ``fn`` as row-wise: given stacks of grid functions in place of
    grid functions, it treats each row as one function and returns one value
    (or one grid function) per row. Returns ``fn``."""
    fn.rowwise = True
    return fn


def as_grid_function(values: Iterable[float], stack: bool = False) -> np.ndarray:
    """Validate ``values`` as a grid function (or, with ``stack``, also as a
    stack of them) and return it as a float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in ((1, 2) if stack else (1,)) or arr.shape[-1] < 2:
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


@rowwise
def sup_metric(x: Iterable[float], y: Iterable[float]) -> float | np.ndarray:
    """Largest nodewise gap ``max_i |x(t_i) - y(t_i)|`` between two grid
    functions sampled on the same grid; on two stacks, the gap of each pair
    of rows."""
    xa = as_grid_function(x, stack=True)
    ya = as_grid_function(y, stack=True)
    if xa.shape != ya.shape:
        raise DimensionError(f"grid sizes differ: {xa.size} vs {ya.size} nodes")
    gap = np.max(np.abs(xa - ya), axis=-1)
    return float(gap) if gap.ndim == 0 else gap


def save_grid_csv(path: str | Path, values: Iterable[float]) -> None:
    """Write a grid function as ``t,value`` rows, at its uniform nodes, with
    one header line."""
    arr = as_grid_function(values)
    table = np.column_stack([nodes(arr.size - 1), arr])
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for start in range(0, len(table), 1024):  # one string per block bounds the memory
            fh.write("".join(f"{t!r},{v!r}\n" for t, v in table[start:start + 1024].tolist()))


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
