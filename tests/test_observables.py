import numpy as np
import pytest

from weakkam import (BUILTIN_FAMILIES, GluePotential, birkhoff_integral,
                     constant_observable, coboundary_observable,
                     distance_squared_observable, make_observable,
                     periodic_orbits, smoothstep, smoothstep_prime)


def test_smoothstep_shape():
    assert smoothstep(-1.0) == 0.0 and smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0 and smoothstep(2.0) == 1.0
    assert abs(smoothstep(0.5) - 0.5) < 1e-12
    # derivative consistency with central differences
    xs = np.linspace(0.05, 0.95, 19)
    fd = (smoothstep(xs + 1e-6) - smoothstep(xs - 1e-6)) / 2e-6
    assert np.abs(fd - smoothstep_prime(xs)).max() < 1e-6
    assert smoothstep_prime(0.0) == 0.0 and smoothstep_prime(1.0) == 0.0


def test_constant_observable():
    phi = constant_observable(-1.5)
    pts = np.random.default_rng(0).random((7, 3))
    assert np.all(phi(pts) == -1.5)
    assert phi.lipschitz_constant == 0.0
    assert phi.sup_bound == 1.5


def test_glue_potential_continuous_across_roof(model):
    pot = GluePotential(model)
    rng = np.random.default_rng(1)
    b = rng.random((50, 2))
    A = model.base_matrix.astype(float)
    below = np.concatenate([b, np.full((50, 1), model.roof - 1e-9)], axis=1)
    above = np.concatenate([np.mod(b @ A.T, 1.0), np.full((50, 1), 1e-9)],
                           axis=1)
    assert np.abs(pot(below) - pot(above)).max() < 1e-6


def test_glue_potential_flow_derivative_matches_fd(model):
    pot = GluePotential(model)
    rng = np.random.default_rng(2)
    p = rng.random((100, 3))
    p[:, 2] = 0.05 + 0.9 * p[:, 2]  # keep the +/- h stencil off the glue
    hh = 1e-6
    fd = (pot(model.flow_map(p, hh)) - pot(model.flow_map(p, -hh))) / (2 * hh)
    assert np.abs(fd - pot.flow_derivative(p)).max() < 1e-7


def test_coboundary_orbit_averages_vanish(model, cobound):
    phi, _ = cobound
    for base, period in periodic_orbits(model, 3):
        x0 = np.array([base[0], base[1], 0.0])
        avg = float(birkhoff_integral(model, phi, x0, period, 0.002)) / period
        assert abs(avg) < 1e-4


def test_coboundary_lipschitz_bound_holds(model, cobound):
    phi, pot = cobound
    rng = np.random.default_rng(3)
    p = rng.random((500, 3))
    q = p + 1e-4 * rng.standard_normal(p.shape)
    q[:, :2] %= 1.0
    q[:, 2] = np.clip(q[:, 2], 0.0, model.roof * (1 - 1e-12))
    quot = np.abs(phi(q) - phi(p)) / np.linalg.norm(q - p, axis=1)
    assert quot.max() <= phi.lipschitz_constant
    assert np.abs(phi(p)).max() <= phi.sup_bound
    assert pot.lipschitz_estimate() > 0.0


def test_distance_squared_observable(model):
    phi = distance_squared_observable(model)
    assert phi(np.array([0.0, 0.0, 0.3])) == 0.0
    # periodic in the base: value at 0.999 ~ value at 0.001
    a = phi(np.array([0.999, 0.0, 0.1]))
    b = phi(np.array([0.001, 0.0, 0.1]))
    assert abs(a - b) < 1e-5
    pts = np.random.default_rng(4).random((200, 3))
    vals = phi(pts)
    assert np.all(vals >= 0.0) and vals.max() <= phi.sup_bound + 1e-12


def test_make_observable_dispatch(model):
    assert make_observable(model, "constant", value=2.0)(np.zeros(3)) == 2.0
    assert make_observable(model, "coboundary").name == "coboundary"
    assert make_observable(model, "dist2")(np.zeros(3)) == 0.0
    with pytest.raises(ValueError):
        make_observable(model, "nope")
    for family in BUILTIN_FAMILIES:  # the config accepts only these
        make_observable(model, family)


def _lines(model):
    """Flow lines over a (5, 4) block of base points: one run up to just
    below the roof, then a crossing and a run from s = 0."""
    rng = np.random.default_rng(6)
    b0 = rng.random((5, 4, 2))
    b1 = np.mod(b0 @ model.base_matrix.astype(float).T, 1.0)
    below = np.nextafter(model.roof, 0.0)
    s = np.array([0.3, 0.6, 0.9, below - 1e-9, below, 0.0, 1e-12, 0.25])
    run = np.array([0, 0, 0, 0, 0, 1, 1, 1])
    return s, np.stack([b0, b1]), run


def _line_points(s, base, run):
    pts = np.empty(s.shape + base.shape[1:-1] + (3,))
    pts[..., :2] = base[run]
    pts[..., 2] = s[:, None, None]
    return pts


@pytest.mark.parametrize("family", ["constant", "coboundary", "dist2"])
def test_along_lines_matches_evaluate_bitwise(family):
    from weakkam import Observable, SuspensionFlow
    model = SuspensionFlow(roof=1.3)  # a roof of 1 would hide a misordered /
    phi = make_observable(model, family, value=-0.75)
    assert phi.lines is not None
    s, base, run = _lines(model)
    want = phi(_line_points(s, base, run))
    got = phi.along_lines(s, base, run)
    assert got.shape == (8, 5, 4)
    assert got.tobytes() == want.tobytes()
    # the pointwise default agrees as well
    plain = Observable(evaluate=phi.evaluate, lipschitz_constant=1.0,
                       sup_bound=1.0)
    assert plain.along_lines(s, base, run).tobytes() == want.tobytes()


def test_along_lines_default_evaluates_the_built_points(model):
    from weakkam import Observable
    seen = []

    def ev(p):
        seen.append(p.copy())
        return p[..., 0] + 10.0 * p[..., 2]

    phi = Observable(evaluate=ev, lipschitz_constant=1.0, sup_bound=1.0)
    s, base, run = _lines(model)
    got = phi.along_lines(s, base, run)
    assert len(seen) == 1
    assert np.array_equal(seen[0], _line_points(s, base, run))
    assert got.tobytes() == ev(_line_points(s, base, run)).tobytes()
