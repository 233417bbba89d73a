"""Flow-box atlases, Poincare maps, and hyperbolicity certification.

The atlas covers the manifold with adapted flow boxes whose section charts
align with the stable/unstable eigenframe.  Poincare maps between aligned
boxes are affine with diagonal hyperbolic linear part; the certifier measures
expansion, contraction, coupling, and nonlinearity against the admissible
constants and reports pass/fail margins.
"""

import numpy as np

from weakkam import (SuspensionFlow, affine_poincare, build_atlas,
                     certify_hyperbolic, poincare_map)
from weakkam.shadowing import lattice_box_chains

model = SuspensionFlow()
atlas = build_atlas(model, tau=1.0, rho=0.25, eps=0.25)
print(f"atlas: {atlas.n_gamma} boxes, chart C^1 bound {atlas.lip_gamma:.3f}")
h = atlas.hyper
print(f"constants: sigma_u={h.sigma_u:.6f} sigma_s={h.sigma_s:.6f} "
      f"eta={h.eta:.6f} eps(rho)={h.eps_rho:.6f}")
print("covering:", atlas.covering_report)

# Flat sections give a return time that is the same for every section point,
# so the Poincare map is affine; compare its closed form against flowing
# section points to the next section.
chains = lattice_box_chains(atlas)
cyc = next(c for c, period in chains if period >= 3)
x, y = cyc[0], cyc[1]
aff = affine_poincare(atlas, x, y)
q = np.array([0.03, -0.05])
flowed = poincare_map(atlas, x, y, q)
print(f"\nPoincare map {x}->{y}: affine {aff(q)}, flowed {flowed}")
print(f"linear part:\n{aff.linear_part}")
assert np.abs(aff(q) - flowed).max() <= 1e-12

cert = certify_hyperbolic(aff, required=atlas.hyper)
print(f"\nhyperbolicity certificate passed: {cert.passed}")
for name, chk in cert.checks.items():
    print(f"  {name:>12}: margin {chk['margin']:+.3e}  ok={chk['ok']}")
