"""Two independent estimators of the ergodic minimizing value.

The ergodic minimizing value of an observable is the smallest possible
long-run time average over orbits.  The package estimates it two ways:
by enumerating periodic orbits, and as the additive eigenvalue (min cycle
mean) of a min-plus kernel, the phi_bar that ``weak_kam_solve`` refines on a
kernel built at reference value 0 (what ``weakkam solve`` reports).  Their
agreement cross-validates both.
"""

from weakkam import (Grid, SuspensionFlow, build_kernel, constant_observable,
                     distance_squared_observable, ergodic_value,
                     make_observable, weak_kam_solve)

model = SuspensionFlow()
grid = Grid((16, 16, 10), (1.0, 1.0, model.roof), model.base_matrix)


def minplus_value(phi):
    """phi_bar of the weak-KAM solve on the kernel at reference value 0."""
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(grid, model, phi, c, 0.0, grid.spacings[2])
    return weak_kam_solve(kern).phi_bar


for phi in (constant_observable(1.7),
            make_observable(model, "coboundary"),
            distance_squared_observable(model)):
    v_orb, _ = ergodic_value(model, phi, "periodic_orbits", max_period=4)
    v_drift = minplus_value(phi)
    print(f"{phi.name:>20}: periodic-orbit {v_orb:+.6f}   "
          f"min-plus drift {v_drift:+.6f}   gap {abs(v_orb - v_drift):.2e}")

# With periods up to 6 the two estimators agree on the distance-squared
# observable to rounding: the fiber orbit through its base point is a grid
# orbit, so both find the exact minimizing value 0.
phi = distance_squared_observable(model)
v_orb, _ = ergodic_value(model, phi, "periodic_orbits")
value = minplus_value(phi)
print("\nmin-plus drift value for the distance-squared observable:", value)
print("estimator gap:", abs(v_orb - value))
