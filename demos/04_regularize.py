"""Smoothing a weak-KAM solution into a certified Lipschitz subaction.

A weak-KAM fixed point satisfies the integrated inequality but its flow
derivative is only defined almost everywhere.  The regularizer composes
bump-function surgeries over a covering family of flow boxes; inside each
box the corrected function's flow derivative becomes phi - phi_bar minus a
constant, hence Lipschitz.  The certificate reports the pointwise margin
phi - phi_bar - L_V[u] >= -slack over the covered region.
"""

from weakkam import (Grid, SuspensionFlow, build_kernel,
                     coboundary_observable, default_cover, regularize_all,
                     verify_subaction, weak_kam_solve)

model = SuspensionFlow()
phi, _ = coboundary_observable(model)
grid = Grid((16, 16, 10), (1.0, 1.0, model.roof), model.base_matrix)
c = 4.0 * max(1.0, phi.lipschitz_constant)
kern = build_kernel(grid, model, phi, c, 0.0, grid.spacings[2])
sol = weak_kam_solve(kern)

cover = default_cover(model)
print(f"smoothing cover: {len(cover)} flow boxes")
cert = regularize_all(sol.u, cover, phi, sol.phi_bar)
print(f"certified region: {cert.report['n_region_nodes']} grid nodes")
print(f"worst node margin: {cert.margin:+.4f}  (slack budget {cert.slack:.4f})")
print(f"Lip(u) = {cert.lip_u:.3f}, Lip(L_V[u]) = {cert.lip_lie:.3f}, "
      f"Lip(phi) = {cert.lip_phi:.3f}")
print(f"ratios: Lip(u)/Lip(phi) = {cert.ratio_u:.2f}, "
      f"Lip(L_V[u])/Lip(phi) = {cert.ratio_lie:.2f}")

rep = verify_subaction(cert, phi, cert.phi_bar, 2000, model)
print(f"\noff-grid re-check at 2000 samples: worst margin "
      f"{rep['worst_margin']:+.4f}, passed={rep['passed']}")
print(f"path-action floor check: min action {rep['path_min_action']:+.3f} "
      f">= floor {rep['path_floor']:+.3f}")
