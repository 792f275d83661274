"""Walkthrough: Picard orbits and their convergence diagnostics.

Follows the orbit of the x/3 map step by step, checks the decreasing-gap
and ratio-bound predictions and the orbit's alpha-admissibility, probes
uniqueness from several starts, and shows how a non-contractive map
terminates.
"""

from picardkit import (PicardConfig, check_alpha_orbit, check_ratio_bound, gaps_monotone,
                       picard_iterate, scalar_metric, uniqueness_probe)
from picardkit.builtins import alpha_box, beta_reciprocal, example31_map

cfg = PicardConfig(tolerance=1e-10)

print("== orbit of x/3 from 1.0 ==")
trace = picard_iterate(example31_map, 1.0, cfg, scalar_metric)
print(f"termination: {trace.termination} after {trace.iterations} steps, "
      f"residual {trace.residual:.3e}")
print(f"{'step':>4} {'iterate':>14} {'gap':>12} {'ratio':>8}")
x = 1.0  # the trace keeps only the last iterate, so the table walks the orbit again
for k in range(min(8, trace.iterations)):
    x = example31_map(x)
    ratio = "" if k == 0 or trace.ratios[k - 1] is None else f"{trace.ratios[k - 1]:.6f}"
    print(f"{k + 1:>4} {x:>14.3e} {trace.gaps[k]:>12.3e} {ratio:>8}")
print("...")
print()

print("gaps non-increasing:", gaps_monotone(trace))
ratio_report = check_ratio_bound(trace, beta_reciprocal())
print("every ratio below beta(gap):", ratio_report.passed,
      f"(first gap {trace.gaps[0]:.4f}, beta there = "
      f"{beta_reciprocal()(trace.gaps[0]):.4f})")
print()

print("== alpha-admissibility along the orbit ==")
# alpha(x_n, x_m) >= 1 for every n < m <= 10 once alpha(x0, T(x0)) >= 1;
# from 2.0 the map leaves [0, 1] at once, so that hypothesis is unmet
for start in (1.0, 2.0):
    orbit = check_alpha_orbit(example31_map, alpha_box(0.0, 1.0), start, 10)
    print(f"alpha_box(0, 1) from {start}: {orbit.status} on {orbit.samples} pairs",
          *orbit.notes, sep="; ")
print()

print("== uniqueness probe ==")
probe = uniqueness_probe(lambda x: x / 2.0 + 0.25, [0.0, 0.2, 0.5, 0.8, 1.0],
                         cfg, scalar_metric)
print(f"limits found: {[round(v, 12) for v in probe.limits]}")
print(f"distinct limits: {probe.distinct_limits} "
      f"-> consistent with uniqueness: {probe.consistent_with_uniqueness}")
print()
probe_id = uniqueness_probe(lambda x: x, [0.2, 0.8], cfg, scalar_metric)
print(f"identity map from two starts keeps both: {probe_id.distinct_limits} "
      f"-> uniqueness fails, as it should")
print()

print("== divergence handling ==")
diverged = picard_iterate(lambda x: 3.0 * x, 1.0,
                          PicardConfig(divergence_bound=1e6), scalar_metric)
print(f"tripling map: termination '{diverged.termination}' after "
      f"{diverged.iterations} steps, last gap {diverged.gaps[-1]:.3e}")
