"""Walkthrough: the boundary-value solver and its 1/8 contraction bound.

Solves -x'' = f(t, x) with zero boundary values by Picard iteration
on the kernel integral operator: first with a source term whose solution
is known exactly, then with a genuinely nonlinear right-hand side, whose
solve is compared with one on a grid twice as fine. Then checks the
hypotheses behind the bound, the gate's among them, on sampled data.
Writes the nonlinear solution and its trace next to this script.
"""

from pathlib import Path

import numpy as np

from picardkit import (BVPProblem, PicardConfig, check_gate_limit, check_gate_propagation,
                       check_operator_contraction, check_rhs_displacement_bound, elementwise,
                       green_kernel, green_row_integral, integral_operator, nodes,
                       row_integral_quadrature, save_grid_csv, solve_bvp)
from picardkit.builtins import rhs_pi2sin, rhs_sin_plus_one
from picardkit.cli import write_trace_csv
from picardkit.sampling import Draw, seeded_rng

print("== kernel facts ==")
ts = nodes(100)
print("kernel at the diagonal midpoint:", green_kernel(0.5, 0.5))
print("symmetric:", green_kernel(0.2, 0.7) == green_kernel(0.7, 0.2))
rows = row_integral_quadrature(100)
closed = green_row_integral(ts)
print("split-Simpson row integrals match -t^2/2 + t/2 within",
      float(np.max(np.abs(rows - closed))))
print("row-integral maximum (the contraction constant):", float(closed.max()),
      "at t =", float(ts[int(np.argmax(closed))]))
print()

print("== source with a known solution ==")
problem = BVPProblem(rhs=rhs_pi2sin, n=100)
solution = solve_bvp(problem, PicardConfig(tolerance=1e-8, max_iterations=20))
error = float(np.max(np.abs(solution.values - np.sin(np.pi * ts))))
print(f"converged in {solution.trace.iterations} steps "
      f"(the source ignores x, so the operator is constant)")
print(f"sup error against sin(pi t): {error:.2e}")
print()

print("== nonlinear right-hand side sin(x) + 1 ==")
nonlinear = BVPProblem(rhs=rhs_sin_plus_one, n=100, tolerance=1e-10)
solved = solve_bvp(nonlinear, PicardConfig(tolerance=1e-10, max_iterations=100))
print(f"converged in {solved.trace.iterations} steps; "
      f"observed max gap ratio {solved.contraction_estimate:.5f} "
      f"(kernel bound 0.125)")
fine = solve_bvp(BVPProblem(rhs=rhs_sin_plus_one, n=200, tolerance=1e-10),
                 PicardConfig(tolerance=1e-10, max_iterations=100))
print(f"agreement with the n = 200 solve at the shared nodes: "
      f"{float(np.max(np.abs(solved.values - fine.values[::2]))):.2e} sup norm")
print(f"second-difference residual: {solved.residual:.2e}")
print()

print("== the hypotheses behind the bound ==")
rng = seeded_rng(42)
triples = [(float(round(t * 100) / 100), float(a), float(b))
           for t, a, b in Draw(rng, 60, (3,), 0.0, 1.0)[:]]
print("rhs displacement bound:",
      check_rhs_displacement_bound(nonlinear, triples).status)
# 40 pairs of grid functions, drawn a chunk at a time by the check
pairs = Draw(rng, 40, (2, 101), 0.0, 1.0)
print("operator eighth-contraction on random pairs:",
      check_operator_contraction(nonlinear, pairs).status)
# a gate that is not open: xi(a, b) = 1 - max(|a|, |b|) admits the pairs whose
# values stay inside (-1, 1); elementwise, it reads all the nodes in one call
gated = BVPProblem(rhs=rhs_sin_plus_one, n=100,
                   gate=elementwise(lambda a, b: 1.0 - np.maximum(np.abs(a), np.abs(b))))
print("gate positivity survives one operator step:",
      check_gate_propagation(gated, pairs).status)
limit = integral_operator(gated, np.zeros(101))
print("gate limit condition on a sequence tending to T(0):",
      check_gate_limit(gated, [(1.0 - 2.0 ** -k) * limit for k in range(1, 11)], limit).status)

out_dir = Path(__file__).resolve().parent
save_grid_csv(out_dir / "nonlinear_solution.csv", solved.values)
write_trace_csv(out_dir / "nonlinear_trace.csv", solved.trace)
print()
print("wrote nonlinear_solution.csv and nonlinear_trace.csv")
