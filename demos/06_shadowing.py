"""Periodic shadowing: noisy pseudo-orbits snap to true orbits.

A periodic pseudo-orbit is a cyclic chain of chart points q_i with
q_{i+1} approximately f_i(q_i).  Every Poincare map here is affine, so one
exact solve of the cyclic affine system finds the true periodic orbit; its
residual is certified, and the summed correction is certified against
K_Gamma times the summed pseudo-orbit error.
"""

import numpy as np

from weakkam import (SuspensionFlow, affine_poincare, build_atlas,
                     pseudo_orbit_suite, shadow_periodic)
from weakkam.shadowing import k_gamma_from_maps, lattice_box_chains

model = SuspensionFlow()
atlas = build_atlas(model, tau=1.0, rho=0.25, eps=0.25)

chains = lattice_box_chains(atlas)
print("lattice box-chain cycle lengths:",
      sorted(period for _, period in chains))

cyc = max(chains, key=lambda c: c[1])[0]
maps = [affine_poincare(atlas, cyc[i], cyc[(i + 1) % len(cyc)])
        for i in range(len(cyc))]
print(f"\nshadowing a noisy pseudo-orbit of length {len(cyc)} "
      f"(K_Gamma = {k_gamma_from_maps(maps):.3f})")
rng = np.random.default_rng(0)
pts = rng.uniform(-1e-3, 1e-3, (len(cyc), 2))
res = shadow_periodic(pts, maps, atlas.rho)
print("one exact solve of the cyclic affine system, residual certified: "
      f"{res.residuals.max():.2e} after {res.newton_iterations} residual "
      "evaluations")
print(f"sum of corrections {res.distance_sum:.3e} <= "
      f"K_Gamma * sum of errors {res.k_gamma * res.error_sum:.3e}: "
      f"{res.passed}")

print("\nrandomized suite (100 orbits, noise 1e-6..1e-2):")
results = pseudo_orbit_suite(atlas, 100, seed=0)
print(f"  all passed: {all(r['passed'] for r in results)}")
print(f"  worst certified residual: "
      f"{max(r['max_residual'] for r in results):.2e}")
