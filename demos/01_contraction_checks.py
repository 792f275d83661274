"""Walkthrough: verifying a contraction hypothesis from its parts.

Builds the reference scalar bundle (the piecewise x/3-or-3x map with the
unit-box admissibility weight), runs every axiom check plus the master
contraction inequality, and then shows what a failing check looks like by
feeding in deliberately broken functions.
"""

import numpy as np

from picardkit import (CClassFunction, SimulationFunction,
                       check_alpha_admissible, check_cclass, check_geraghty,
                       check_simulation_pointwise, check_simulation_sequences,
                       render_text, scalar_metric, verify_contraction)
from picardkit.builtins import (alpha_box, default_beta_probes,
                                default_sequence_probes, example31_bundle)
from picardkit.sampling import mesh_array, seeded_rng, uniform_array

rng = seeded_rng(42)
bundle = example31_bundle()

print("== the reference bundle ==")
print(f"mapping: x/3 on [0, 1], 3x elsewhere; zeta = {bundle.zeta.name}; "
      f"beta = {bundle.beta.name}; G = {bundle.g.name} (c_g = {bundle.g.c_g})")
print()

# axiom checks on seeded samples: (N, 2) arrays, joined with np.concatenate
zeta_samples = np.concatenate([[(0.0, 0.0)], mesh_array(1e-2, 10.0, 40),
                               uniform_array(rng, 100, 1e-3, 10.0, 2)])
pairs = np.concatenate([mesh_array(0.0, 1.0, 51), uniform_array(rng, 100, 0.0, 3.0, 2)])
reports = [
    check_simulation_pointwise(bundle.zeta, zeta_samples),
    check_simulation_sequences(bundle.zeta, default_sequence_probes()),
    check_cclass(bundle.g, np.concatenate([mesh_array(1e-2, 10.0, 30),
                                           [(0.0, 1.0), (0.0, 0.0)]])),
    check_geraghty(bundle.beta, np.linspace(0.0, 10.0, 41), default_beta_probes()),
    check_alpha_admissible(bundle.mapping, bundle.alpha, pairs),
    verify_contraction(bundle, pairs, scalar_metric),
]
print(render_text(reports, ["reference bundle checks"]))

# note the geraghty row above: beta(0) = 1/(1+0) = 1 sits on the boundary of
# the [0, 1) range, so the range check reports it even though the master
# inequality still passes (its left side degenerates to zeta(0, 0) = 0).

print("== what failures look like ==")
broken = [
    ("zeta = s - t (never strict)",
     check_simulation_pointwise(SimulationFunction(lambda t, s: s - t),
                                [(1.0, 2.0), (0.5, 0.5)])),
    ("G = s + t (exceeds s)",
     check_cclass(CClassFunction(lambda s, t: s + t), [(1.0, 1.0)])),
    ("tripling map under the unit-box weight",
     check_alpha_admissible(lambda x: 3.0 * x, alpha_box(0.0, 1.0),
                            [(0.5, 0.5)])),
]
print(render_text([report for _, report in broken],
                  [label for label, _ in broken]))
