"""Order-theoretic reduction: a partial order induces the admissibility
weight ``alpha(x, y) = 1 if x <= y else 0``, turning monotone-operator
hypotheses into inputs for the contraction verifiers.

Built-in comparators cover the two orders the library needs: the natural
order on reals and the pointwise order on grid functions. Antisymmetry is
checked metrically (d <= eps) rather than by identity, because grid
functions compare by values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionError
from .framework import (SCALAR_EPS, AlphaFunction, BlockCheck, _block_reports, _chained,
                        _table, alpha_admissible_check, check_pairs, evaluate_block)
from .metrics import Metric, Point, PointMap, grid_pair, rowwise
from .report import VerificationReport, make_report


@dataclass(frozen=True)
class PartialOrder:
    """Comparator ``leq(x, y)`` over the carrier; expected reflexive,
    metrically antisymmetric, and transitive (see
    :func:`check_order_axioms`)."""

    leq: Callable[[Point, Point], bool]
    name: str = "order"

    def __call__(self, x: Point, y: Point) -> bool:
        value = self.leq(x, y)
        if np.ndim(value):  # points the comparator takes for arrays of them
            raise DimensionError(f"the {self.name} order compares two points, "
                                 f"got values of shape {np.shape(value)}")
        return bool(value)


# Both comparators are elementwise over arrays of points: reals for the
# natural order, grid functions along the last axis for the pointwise order.
natural_order = PartialOrder(
    lambda x, y: np.asarray(x, dtype=float) <= np.asarray(y, dtype=float),
    name="natural")


@rowwise
def _pointwise_leq(x: Point, y: Point):
    """x <= y at every node; grid functions on different grids do not compare."""
    xa, ya = grid_pair(x, y)
    return np.all(xa <= ya, axis=-1)


pointwise_order = PartialOrder(_pointwise_leq, name="pointwise")


def alpha_from_order(order: PartialOrder) -> AlphaFunction:
    """Indicator weight of the order: 1 where x <= y, 0 elsewhere.

    For any increasing mapping this weight is admissible, and its
    triangularity follows from transitivity of the order. It is elementwise
    wherever the comparator is, and row-wise on stacks of grid functions
    where the comparator is tagged so.
    """
    def weight(x: Point, y: Point) -> np.ndarray:
        return np.where(order.leq(x, y), 1.0, 0.0)

    return AlphaFunction(rowwise(weight) if getattr(order.leq, "rowwise", False) else weight,
                         name=f"indicator({order.name})")


def check_increasing(T: PointMap, order: PartialOrder,
                     pairs: Iterable[tuple[Point, Point]] | np.ndarray) -> VerificationReport:
    """``x <= y`` must imply ``Tx <= Ty`` on every sampled pair: the
    alpha-admissibility of the order's indicator weight, so T maps only the
    ordered pairs."""
    increasing = alpha_admissible_check(0.0)._replace(
        name="increasing", check="order/increasing",
        detail=lambda value: "x <= y but Tx <= Ty fails")
    return check_pairs(T, alpha_from_order(order), pairs, [increasing])[0]


def check_initial_point(T: PointMap, order: PartialOrder, x1: Point) -> bool:
    """True when ``x1 <= T(x1)``: the starting hypothesis of the monotone
    fixed-point theorems. ``x1`` passes the samples' gate, as a real or a
    grid function."""
    x1 = _table([(x1,)], 1, grids=True)[0, 0]
    return order(x1, T(x1))


def check_order_axioms(order: PartialOrder, elements: Iterable[Point], d: Metric,
                       tol: float = SCALAR_EPS) -> VerificationReport:
    """Reflexivity, metric antisymmetry, and transitivity of the comparator
    on a finite element sample (cubic in the sample size; keep it small)."""
    items = list(elements)
    alpha = alpha_from_order(order)

    def reflexive(columns):
        value = alpha.values(columns[0], columns[0])
        return None, value, 1.0, value - 1.0

    def antisymmetric(columns):
        xs, ys = columns
        first = np.flatnonzero(alpha.values(xs, ys) >= 1.0)
        both = first[alpha.values(ys[first], xs[first]) >= 1.0]
        gap = evaluate_block(d, d, xs[both], ys[both])
        return both, gap, tol, tol - gap  # tol is the bound: the clause's own tolerance is 0

    clauses = [
        BlockCheck("order-axioms", "order/reflexive", reflexive, lambda _: "leq(x, x) fails"),
        BlockCheck("order-axioms", "order/antisymmetric", antisymmetric,
                   lambda gap: f"x <= y and y <= x but d(x, y) = {gap!r} > eps"),
        BlockCheck("order-axioms", "order/transitive", _chained(alpha, 0.0),
                   lambda _: "x <= y <= z but x <= z fails")]
    # one pass per clause, over the element 1-, 2- and 3-tuples
    reports = [_block_reports(_table(list(product(items, repeat=arity)), arity, grids=True),
                              [clause])[0]
               for arity, clause in enumerate(clauses, start=1)]
    return make_report("order-axioms", [w for rep in reports for w in rep.witnesses],
                       sum(rep.samples for rep in reports), tolerance=tol)
