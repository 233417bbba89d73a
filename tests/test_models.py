import numpy as np
import pytest

from weakkam import (HorizonError, SuspensionFlow, birkhoff_integral,
                     periodic_orbits)

# Distinct minimal orbits per base period for the default base matrix:
# fixed-point counts of A^n are 1, 5, 16, 45, 121, 320.
ORBITS_PER_PERIOD = {1: 1, 2: 2, 3: 5, 4: 10, 5: 24, 6: 50}


def test_flow_roundtrip(model):
    rng = np.random.default_rng(0)
    p = rng.random((50, 3))
    for t in (0.3, 1.7, -2.9, 12.5):
        q = model.flow_map(p, t)
        back = model.flow_map(q, -t)
        # rounding accumulates with the number of roof crossings
        assert np.abs(back - p).max() < 1e-12 * max(1.0, 40.0 * abs(t))


def test_flow_group_property(model):
    rng = np.random.default_rng(1)
    p = rng.random((20, 3))
    a = model.flow_map(model.flow_map(p, 0.7), 1.9)
    b = model.flow_map(p, 2.6)
    assert np.abs(a - b).max() < 1e-12


def test_flow_applies_base_map_at_roof(model):
    p = np.array([0.2, 0.7, 0.9])
    q = model.flow_map(p, 0.2)
    A = model.base_matrix.astype(float)
    expect = np.mod(A @ p[:2], 1.0)
    assert np.allclose(q[:2], expect)
    assert abs(q[2] - 0.1) < 1e-12


@pytest.mark.parametrize("roof", [1.0, 1.3, 2.5])
def test_flow_map_leaves_s_in_zero_to_roof(roof):
    # s just below a multiple of the roof: s / roof can round up to the
    # integer, and the rounding must not leave s below 0
    model = SuspensionFlow(roof=roof)
    rng = np.random.default_rng(7)
    p = rng.random((4000, 3))
    k = rng.integers(-20, 20, 4000)
    p[:, 2] = np.nextafter(k * roof, -np.inf)
    q = model.flow_map(p, 0.0)
    assert ((0.0 <= q[:, 2]) & (q[:, 2] < roof)).all()
    # the point left is the point reached by whole roofs: A^(k-1) on the base
    # at s just below the roof, or A^k at s = 0
    last = q[:, 2] > 0.5 * roof
    want = model._apply_base(p[:, :2], k - last)
    d = q[:, :2] - want
    assert np.abs(d - np.round(d)).max() < 1e-6
    assert np.abs(q[~last, 2]).max() < 1e-12 * roof * 20
    assert np.abs(q[last, 2] - roof).max() < 1e-12 * roof * 20


def test_velocity_is_unit_roof_direction(model):
    v = model.velocity(np.random.default_rng(2).random((5, 3)))
    assert np.allclose(v[:, :2], 0.0) and np.allclose(v[:, 2], 1.0)
    assert model.sup_norm_bound == 1.0


def test_horizon_guard(model):
    with pytest.raises(HorizonError):
        model.flow_map(np.zeros(3), model.max_horizon + 1.0)


def test_difference_identity_and_local_antisymmetry(model):
    rng = np.random.default_rng(3)
    p = rng.random((40, 3))
    assert np.abs(model.difference(p, p)).max() == 0.0
    # Antisymmetry where the identity branch wins (no carry across the roof):
    # perturbations small against the distance to the gluing surface.
    p[:, 2] = 0.3 + 0.4 * p[:, 2]
    q = p + rng.uniform(-0.05, 0.05, size=p.shape)
    d1 = model.difference(q, p)
    d2 = model.difference(p, q)
    assert np.abs(d1 + d2).max() < 1e-12
    assert np.abs(model.distance(q, p) - model.distance(p, q)).max() < 1e-12


def test_difference_across_gluing(model):
    # Points just below the roof and just above 0 are close through the glue.
    p = np.array([0.2, 0.7, 0.999])
    q = model.flow_map(p, 0.002)
    assert model.distance(q, p) < 0.003


def test_distance_triangle_sampled(model):
    rng = np.random.default_rng(4)
    p, q, r = (rng.random((30, 3)) for _ in range(3))
    assert np.all(model.distance(p, r)
                  <= model.distance(p, q) + model.distance(q, r) + 1e-12)


def test_diameter_bounds(model):
    d = model.diameter()
    assert 0.5 < d <= np.sqrt(0.5 + 0.25) + 1e-12


def test_eigen_data(model):
    lam = (3.0 + np.sqrt(5.0)) / 2.0
    assert abs(model.unstable_eigenvalue - lam) < 1e-12
    assert abs(model.stable_eigenvalue - 1.0 / lam) < 1e-12
    assert abs(model.hyperbolicity.lambda_u - np.log(lam)) < 1e-12
    A = model.base_matrix.astype(float)
    eu = model.unstable_direction
    assert np.abs(A @ eu - lam * eu).max() < 1e-10


def test_hyperbolic_validation():
    with pytest.raises(ValueError):
        SuspensionFlow(base_matrix=np.array([[1, 1], [0, 1]]))  # parabolic
    with pytest.raises(ValueError):
        SuspensionFlow(base_matrix=np.array([[2, 0], [0, 2]]))  # det 4
    with pytest.raises(ValueError):
        SuspensionFlow(roof=0.0)


@pytest.mark.parametrize("roof", [np.nan, np.inf])
def test_non_finite_roof_is_named(roof):
    with pytest.raises(ValueError, match=f"roof must be positive and finite, "
                                         f"got {roof}"):
        SuspensionFlow(roof=roof)


def test_periodic_orbit_counts(model):
    orbits = periodic_orbits(model, 6)
    per_period = {}
    for _, period in orbits:
        n = int(round(period / model.roof))
        per_period[n] = per_period.get(n, 0) + 1
    assert per_period == ORBITS_PER_PERIOD


def test_periodic_orbits_are_periodic(model):
    for base, period in periodic_orbits(model, 4):
        p = np.array([base[0], base[1], 0.0])
        q = model.flow_map(p, period)
        assert model.distance(q, p) < 1e-9


def test_periodic_orbits_cap(model):
    with pytest.raises(ValueError):
        periodic_orbits(model, 13)


def test_birkhoff_constant(model):
    from weakkam import constant_observable
    phi = constant_observable(2.5)
    val = birkhoff_integral(model, phi, np.array([0.1, 0.2, 0.3]), 1.7, 0.01)
    assert abs(val - 2.5 * 1.7) < 1e-12


def test_birkhoff_is_signed(model, cobound):
    phi, _ = cobound
    rng = np.random.default_rng(4)
    x = rng.random((6, 3))
    for t in (0.37, 1.7, 5.25):
        back = birkhoff_integral(model, phi, x, -t, 0.01)
        fwd = birkhoff_integral(model, phi, model.flow_map(x, -t), t, 0.01)
        assert np.abs(back + fwd).max() < 1e-12
    assert np.all(birkhoff_integral(model, phi, x, 0.0, 0.01) == 0.0)


def test_non_finite_input_raises(model, cobound):
    phi, _ = cobound
    p = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        model.flow_map(p, np.nan)
    for s in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            model.flow_map(np.array([0.1, 0.2, s]), 0.5)
        with pytest.raises(ValueError):
            birkhoff_integral(model, phi, np.array([0.1, 0.2, s]), 1.0, 0.1)
    with pytest.raises(ValueError):
        model.flow_map(np.tile(p, (4, 1)), np.array([0.1, 0.2, np.nan, 0.4]))
    for t in (np.inf, np.nan):
        with pytest.raises(ValueError):
            birkhoff_integral(model, phi, p, t, 0.1)


def test_birkhoff_coboundary_telescopes(model, cobound):
    phi, pot = cobound
    rng = np.random.default_rng(5)
    starts = rng.random((10, 3))
    t = 3.0
    integ = birkhoff_integral(model, phi, starts, t, 0.002)
    ends = model.flow_map(starts, t)
    expect = pot(ends) - pot(starts)
    assert np.abs(integ - expect).max() < 1e-4


def _oracle_periodic_orbits(model, max_period):
    """The rational fixed points of A^n as Fractions, x = M^{-1} k for every
    integer k in M([0,1)^2), M = A^n - I, grouped into exact orbits; k2 is
    bounded per k1 by the exact bounds of x in [0,1)^2."""
    import math
    from fractions import Fraction

    A = [[int(v) for v in row] for row in model.base_matrix]
    seen, orbits = set(), []
    for n in range(1, max_period + 1):
        M = (np.linalg.matrix_power(np.array(A, dtype=object), n)
             - np.eye(2, dtype=object)).tolist()
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        inv = [[Fraction(M[1][1], det), Fraction(-M[0][1], det)],
               [Fraction(-M[1][0], det), Fraction(M[0][0], det)]]
        k1s = [0, M[0][0], M[0][1], M[0][0] + M[0][1]]
        k2s = [0, M[1][0], M[1][1], M[1][0] + M[1][1]]
        for k1 in range(min(k1s), max(k1s) + 1):
            lo, hi = Fraction(min(k2s)), Fraction(max(k2s))
            for row in inv:
                # 0 <= row[0] k1 + row[1] k2 < 1
                ends = sorted(((0 - row[0] * k1) / row[1],
                               (1 - row[0] * k1) / row[1]))
                lo, hi = max(lo, ends[0]), min(hi, ends[1])
            for k2 in range(math.ceil(lo), math.floor(hi) + 1):
                x = (inv[0][0] * k1 + inv[0][1] * k2,
                     inv[1][0] * k1 + inv[1][1] * k2)
                if not (0 <= x[0] < 1 and 0 <= x[1] < 1) or x in seen:
                    continue
                orbit = [x]
                while True:
                    y = orbit[-1]
                    y = ((A[0][0] * y[0] + A[0][1] * y[1]) % 1,
                         (A[1][0] * y[0] + A[1][1] * y[1]) % 1)
                    if y == x:
                        break
                    orbit.append(y)
                seen.update(orbit)
                rep = min(orbit)
                orbits.append((np.array([float(rep[0]), float(rep[1])]),
                               len(orbit) * model.roof))
    orbits.sort(key=lambda o: (o[1], o[0][0], o[0][1]))
    return orbits


# The second matrix stops at period 6: its 37,632 fixed points of A^8 take
# the Fraction oracle several seconds.
@pytest.mark.parametrize("matrix, top", [([[2, 1], [1, 1]], 8),
                                         ([[3, 1], [2, 1]], 6)])
def test_periodic_orbits_match_fraction_oracle(matrix, top):
    model = SuspensionFlow(base_matrix=np.array(matrix), roof=1.3)
    want = _oracle_periodic_orbits(model, top)
    A = np.array(matrix, dtype=object)
    for m in range(1, top + 1):
        got = periodic_orbits(model, m)
        expect = [o for o in want if o[1] <= m * model.roof]
        assert len(got) == len(expect)
        for (b, per), (b0, per0) in zip(got, expect):
            assert per == per0 and b.tobytes() == b0.tobytes()
        # the orbit lengths dividing m add up to |det(A^m - I)| points
        points = sum(int(round(per / model.roof)) for _, per in got
                     if m % int(round(per / model.roof)) == 0)
        M = np.linalg.matrix_power(A, m) - np.eye(2, dtype=object)
        assert points == abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
