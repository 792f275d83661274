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
from typing import Callable, Iterable

import numpy as np

from .framework import AlphaFunction, SCALAR_EPS
from .metrics import Metric, Point, PointMap, rowwise
from .report import Witness, VerificationReport, make_report


@dataclass(frozen=True)
class PartialOrder:
    """Comparator ``leq(x, y)`` over the carrier; expected reflexive,
    metrically antisymmetric, and transitive (see
    :func:`check_order_axioms`)."""

    leq: Callable[[Point, Point], bool]
    name: str = "order"

    def __call__(self, x: Point, y: Point) -> bool:
        return bool(self.leq(x, y))


# Both comparators are elementwise over arrays of points: reals for the
# natural order, grid functions along the last axis for the pointwise order.
natural_order = PartialOrder(
    lambda x, y: np.asarray(x, dtype=float) <= np.asarray(y, dtype=float),
    name="natural")

pointwise_order = PartialOrder(rowwise(
    lambda x, y: np.all(np.asarray(x, dtype=float) <= np.asarray(y, dtype=float), axis=-1)),
    name="pointwise")


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
                     pairs: Iterable[tuple[Point, Point]]) -> VerificationReport:
    """``x <= y`` must imply ``Tx <= Ty`` on every sampled pair."""
    witnesses: list[Witness] = []
    checked = 0
    for x, y in pairs:
        checked += 1
        if order(x, y) and not order(T(x), T(y)):
            witnesses.append(Witness(
                "order/increasing", (x, y), -1.0,
                "x <= y but Tx <= Ty fails", lhs=0.0, bound=1.0))
    return make_report("increasing", witnesses, checked)


def check_initial_point(T: PointMap, order: PartialOrder, x1: Point) -> bool:
    """True when ``x1 <= T(x1)``: the starting hypothesis of the monotone
    fixed-point theorems."""
    return order(x1, T(x1))


def check_order_axioms(order: PartialOrder, elements: Iterable[Point], d: Metric,
                       tol: float = SCALAR_EPS) -> VerificationReport:
    """Reflexivity, metric antisymmetry, and transitivity of the comparator
    on a finite element sample (cubic in the sample size; keep it small)."""
    items = list(elements)
    witnesses: list[Witness] = []
    checked = 0
    for x in items:
        checked += 1
        if not order(x, x):
            witnesses.append(Witness(
                "order/reflexive", (x,), -1.0, "leq(x, x) fails", lhs=0.0, bound=1.0))
    for x in items:
        for y in items:
            checked += 1
            if order(x, y) and order(y, x):
                gap = d(x, y)
                if gap > tol:
                    witnesses.append(Witness(
                        "order/antisymmetric", (x, y), tol - gap,
                        f"x <= y and y <= x but d(x, y) = {gap!r} > eps",
                        lhs=gap, bound=tol))
    for x in items:
        for y in items:
            for z in items:
                checked += 1
                if order(x, y) and order(y, z) and not order(x, z):
                    witnesses.append(Witness(
                        "order/transitive", (x, y, z), -1.0,
                        "x <= y <= z but x <= z fails", lhs=0.0, bound=1.0))
    return make_report("order-axioms", witnesses, checked, tolerance=tol)
