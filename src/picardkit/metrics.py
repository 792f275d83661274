"""Metrics and grid-function helpers for the fixed-point verifiers.

The verifiers work on two carriers, whose elements the samplers in
:mod:`picardkit.sampling` draw:

* real intervals under the absolute-difference metric, and
* continuous functions on [0, 1] represented by their values on a uniform
  grid of ``n + 1`` nodes (both endpoints included), compared in the sup
  norm.

A (k, n + 1) array is a *stack* of k grid functions, one per row. A
callable declares which arrays it takes whole: :func:`elementwise` for 1-d
arrays of reals, :func:`rowwise` for stacks.

All operations are pure and reject non-finite values up front, so every
downstream check can assume finite distances. Values are immutable from the
library's point of view; concurrent use on shared inputs is safe.
"""

from __future__ import annotations

import csv
import math
import numbers
from pathlib import Path
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import DimensionError, DomainError

Point = Union[float, np.ndarray]
Metric = Callable[[Point, Point], float]
PointMap = Callable[[Point], Point]

# A margin fails below -eps, or for a strict inequality when not above eps;
# equalities use the same eps. Scalar-metric quantities resolve to 1e-12,
# sup-metric quantities to 1e-9 (quadrature noise).
SCALAR_EPS = 1e-12
GRID_EPS = 1e-9


def _require_int(name: str, value, least: int | None = None) -> None:  # a bool is no int here
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")


def _require_positive(name: str, value, rule: str = "positive") -> None:
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be {rule}, got {value!r}")


def nodes(n: int) -> np.ndarray:
    """Uniform grid over [0, 1] with ``n + 1`` nodes, spacing ``1 / n``."""
    _require_int("grid size", n, least=1)
    return np.linspace(0.0, 1.0, n + 1)


def _real_or_array(values: np.ndarray) -> float | np.ndarray:
    """A 0-d result of a pointwise formula as a Python float, any other as it is."""
    return float(values) if values.ndim == 0 else values


def elementwise(fn: Callable) -> Callable:
    """Tag ``fn`` as elementwise: given arrays of reals in place of reals,
    it treats each entry as one real and returns one value per entry. The
    verifiers give a chunk's columns of reals whole only to a callable so
    tagged, and call any other one sample at a time. The tag is an
    attribute set on ``fn``: a bound method or a builtin function takes
    none and raises :class:`AttributeError`, and a ufunc would be tagged
    for every caller, so wrap such a callable in a function to tag it.
    Returns ``fn``."""
    fn.elementwise = True
    return fn


def rowwise(fn: Callable) -> Callable:
    """Tag ``fn`` as row-wise: given stacks of grid functions in place of
    grid functions, it treats each row as one function and returns one value
    (or one grid function) per row. The verifiers give a chunk's stacks
    whole only to a callable so tagged, and call any other one function at
    a time; an elementwise tag does not stand for this one. As with
    :func:`elementwise`, wrap a ufunc, a bound method or a builtin function
    in a function to tag it. Returns ``fn``."""
    fn.rowwise = True
    return fn


def as_grid_function(values: Iterable[float], stack: bool = False) -> np.ndarray:
    """Validate ``values`` as a grid function (or, with ``stack``, also as a
    stack of them) and return it as a float array."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError("a grid function's node values must be reals") from exc
    if arr.ndim not in ((1, 2) if stack else (1,)) or arr.shape[-1] < 2:
        raise DimensionError(
            f"a grid function is a 1-d array with at least 2 nodes, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DomainError("grid function contains non-finite values")
    return arr


@elementwise
def scalar_metric(x: Point, y: Point) -> Point:
    """Absolute difference ``|x - y|`` between two finite reals; elementwise
    on arrays of reals."""
    try:
        xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"scalar_metric needs reals, got {x!r} and {y!r}") from exc
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya))):
        raise DomainError("scalar_metric needs finite inputs")
    return _real_or_array(np.abs(xa - ya))


def grid_pair(x: Point, y: Point) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y`` as float arrays that pair node for node: two grid
    functions on one grid, or two stacks of as many of them. Raises
    :class:`DimensionError` otherwise."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape[-1:] != ya.shape[-1:]:
        if not (xa.ndim and ya.ndim):
            raise DimensionError(f"a real does not pair with a grid function: "
                                 f"shapes {xa.shape} and {ya.shape}")
        raise DimensionError(f"grid sizes differ: {xa.shape[-1]} vs {ya.shape[-1]} nodes")
    if xa.shape != ya.shape:
        raise DimensionError(f"stacks of shapes {xa.shape} and {ya.shape} do not pair")
    return xa, ya


@rowwise
def sup_metric(x: Iterable[float], y: Iterable[float]) -> float | np.ndarray:
    """Largest nodewise gap ``max_i |x(t_i) - y(t_i)|`` between two grid
    functions sampled on the same grid; on two stacks, the gap of each pair
    of rows."""
    xa, ya = grid_pair(as_grid_function(x, stack=True), as_grid_function(y, stack=True))
    return _real_or_array(np.max(np.abs(xa - ya), axis=-1))


def save_grid_csv(path: str | Path, values: Iterable[float]) -> None:
    """Write a grid function as ``t,value`` rows, at its uniform nodes, with
    one header line."""
    arr = as_grid_function(values)
    table = np.column_stack([nodes(arr.size - 1), arr])
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for start in range(0, len(table), 1024):  # one string per block bounds the memory
            fh.write("".join(f"{t!r},{v!r}\n" for t, v in table[start:start + 1024].tolist()))


CSV_HEADER = ["check", "status", "samples", "mode", "witness", "lhs", "bound", "margin", "notes"]


def save_report_csv(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Write a run's report.csv: the header, then ``rows``, one per check."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([CSV_HEADER, *rows])
