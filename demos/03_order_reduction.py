"""Walkthrough: from a partial order to an admissibility weight.

A partial order induces the indicator weight alpha(x, y) = 1 iff x <= y;
for an increasing map that weight is automatically admissible and
triangular, so order-theoretic hypotheses feed straight into the
contraction verifiers. Shown here for the halving map x/2 + 1/4 on the
natural order and for grid functions under the pointwise order.
"""

import numpy as np

from picardkit import (alpha_from_order, check_alpha_admissible,
                       check_increasing, check_initial_point,
                       check_order_axioms, check_triangular_alpha, elementwise,
                       natural_order, nodes, pointwise_order, scalar_metric)
from picardkit.sampling import Draw, Mesh, seeded_rng

rng = seeded_rng(42)
# elementwise: the checks map whole arrays of sampled points in one call
halving = elementwise(lambda x: x / 2.0 + 0.25)

print("== natural order on the reals ==")
axioms = check_order_axioms(natural_order, [0.0, 0.25, 0.5, 0.75, 1.0],
                            scalar_metric)
print("order axioms on a sample:", axioms.status)

alpha = alpha_from_order(natural_order)
pairs = Mesh(0.0, 1.0, 21)[:]
print("x/2 + 1/4 is increasing:", check_increasing(halving, natural_order, pairs).status)
print("x1 = 0 satisfies x1 <= T x1:", check_initial_point(halving, natural_order, 0.0))
print("induced weight admissible:",
      check_alpha_admissible(halving, alpha, pairs).status)
print("induced weight triangular:",
      check_triangular_alpha(alpha, Draw(rng, 200, (3,), 0.0, 1.0)).status)
print()

print("== the orbit is an ascending chain ==")
x = 0.0
chain = [x]
for _ in range(6):
    x = halving(x)
    chain.append(x)
print(" <= ".join(f"{v:.4f}" for v in chain), " ...  -> 0.5")
print()

print("== pointwise order on grid functions ==")
ts = nodes(16)
target = np.sin(np.pi * ts) + 0.5
towards = lambda f: 0.5 * (f + target)
f = np.zeros(17)
ascending = True
for _ in range(10):
    nxt = towards(f)
    ascending = ascending and pointwise_order(f, nxt)
    f = nxt
print("averaging toward a positive target ascends nodewise:", ascending)
print("final sup distance to target:", float(np.max(np.abs(f - target))))

print()
print("counterexample: x -> 1 - x reverses the order")
print("increasing check:",
      check_increasing(elementwise(lambda x: 1.0 - x), natural_order, [(0.0, 1.0)]).status)
