import numpy as np
import pytest

from weakkam import (AdmissibilityError, affine_poincare, build_atlas,
                     certify_hyperbolic, check_constants,
                     check_forward_admissible, default_hyper_constants,
                     from_poincare, poincare_map, return_time)
from weakkam.charts import ConstantConsistencyError, LocalHyperbolicMap


def _chained_pair(atlas):
    """A box pair aligned with the base automorphism (zero Poincare offset)."""
    m = int(round(np.sqrt(sum(1 for b in atlas.boxes
                              if abs(b.center[2]) < 1e-12))))
    A = atlas.model.base_matrix
    # level-0 box at lattice point (1, 0) maps to (A @ (1, 0)) / m
    x = next(i for i, b in enumerate(atlas.boxes)
             if abs(b.center[2]) < 1e-12
             and abs(b.center[0] - 1.0 / m) < 1e-12
             and abs(b.center[1]) < 1e-12)
    tx = (int(A[0, 0]) % m, int(A[1, 0]) % m)
    y = next(i for i, b in enumerate(atlas.boxes)
             if abs(b.center[2]) < 1e-12
             and abs(b.center[0] - tx[0] / m) < 1e-12
             and abs(b.center[1] - tx[1] / m) < 1e-12)
    return x, y


def test_default_constants_values(model, atlas):
    lam = model.unstable_eigenvalue
    h = atlas.hyper
    assert abs(h.sigma_u - lam ** 0.25) < 1e-12
    assert abs(h.sigma_s - lam ** -0.25) < 1e-12
    assert 0.0 < h.eta < (h.sigma_u - 1.0) / 6.0
    assert h.eps_rho > 0.0


def test_check_constants_guards(model, atlas):
    check_constants(model, 1.0, 0.25, 0.25, atlas.hyper)
    with pytest.raises(ConstantConsistencyError):
        check_constants(model, 1.0, 0.4, 0.25, atlas.hyper)  # rho >= tau/3
    with pytest.raises(ConstantConsistencyError):
        check_constants(model, 1.0, 0.25, 0.6, atlas.hyper)  # eps >= tau/2


def test_atlas_covers_and_sizes(atlas):
    assert atlas.covering_report["uncovered"] == 0
    assert atlas.n_gamma == atlas.covering_report["n_boxes"]
    assert atlas.lip_gamma >= 1.0
    # every random point is inside some box's U_x(eps)
    rng = np.random.default_rng(0)
    pts = rng.random((50, 3))
    pts[:, 2] *= atlas.model.roof
    for p in pts:
        i = atlas.nearest_center(p)
        assert i is not None
        assert atlas.contains_in_u(i, p)


def test_chart_roundtrip(atlas):
    box = atlas.boxes[7]
    rng = np.random.default_rng(1)
    t = rng.uniform(-0.4, 0.4, 30)
    u = rng.uniform(-0.2, 0.2, (30, 2))
    p = box.chart_forward(t, u)
    t2, u2 = box.chart_inverse(p)
    assert np.abs(t2 - t).max() < 1e-12
    assert np.abs(u2 - u).max() < 1e-10


def test_return_time_matches_level_offset(model, atlas):
    x, y = _chained_pair(atlas)
    # same s-level: the forward return time is exactly one roof crossing
    t = return_time(atlas, x, y, np.array([0.01, -0.02]))
    assert abs(t - model.roof) < 1e-9


@pytest.mark.parametrize("hint", [0.8, 0.9, 0.932, 1.0, 1.1])
def test_return_time_skips_the_branch_wrap(model, atlas, hint):
    # tau = roof here, so the nearest-branch gap wraps at +-tau/2 inside the
    # scanned bracket; the returned time must be a true crossing of Sigma_0
    box = atlas.boxes[0]
    q = np.zeros(2)
    t = return_time(atlas, 0, 0, q, t_hint=hint)
    gap, _ = box.chart_inverse(model.flow_map(box.chart_forward(0.0, q), t))
    assert abs(float(gap)) <= 1e-9


def test_forward_admissibility_of_chained_pair(atlas):
    assert check_forward_admissible(atlas, *_chained_pair(atlas))


def test_poincare_strict_rejects_random_pair(atlas):
    # two far-apart level-0 boxes are not an admissible time-tau pair
    x, y = _chained_pair(atlas)
    with pytest.raises(AdmissibilityError):
        poincare_map(atlas, x, x, np.zeros(2), strict=True)


def test_affine_poincare_matches_bisection(model, atlas):
    x, y = _chained_pair(atlas)
    aff = affine_poincare(atlas, x, y)
    num = from_poincare(atlas, x, y)
    lam = model.unstable_eigenvalue
    assert np.abs(aff.linear_part - np.diag([lam, 1 / lam])).max() < 1e-12
    assert np.abs(aff.offset).max() < 1e-12  # lattice-aligned pair
    rng = np.random.default_rng(2)
    for q in rng.uniform(-atlas.rho / 2, atlas.rho / 2, (10, 2)):
        assert np.abs(aff(q) - num(q)).max() < 1e-8
    assert np.abs(num.linear_part - aff.linear_part).max() < 1e-6


def test_certify_hyperbolic_passes_for_chain_map(model, atlas):
    x, y = _chained_pair(atlas)
    cert = certify_hyperbolic(affine_poincare(atlas, x, y),
                              required=atlas.hyper)
    assert cert.passed, cert.checks
    assert cert.sigma_u > 1.0 > cert.sigma_s
    assert cert.lip_nonlinear < 1e-9  # affine map has no nonlinearity


def test_certify_hyperbolic_rejects_identity(atlas):
    ident = LocalHyperbolicMap(f_map=lambda q: np.asarray(q, dtype=float),
                               linear_part=np.eye(2), offset=np.zeros(2),
                               rho=atlas.rho)
    cert = certify_hyperbolic(ident, required=atlas.hyper)
    assert not cert.passed
    assert not cert.checks["expansion"]["ok"]
