import numpy as np
import pytest

from weakkam import (AdmissibilityError, SuspensionFlow, affine_poincare,
                     build_atlas, certify_hyperbolic, check_constants,
                     check_forward_admissible, poincare_map, return_time)
from weakkam.charts import (ConstantConsistencyError, FlowBox,
                            LocalHyperbolicMap)


# Oracles: the numerical return time and Poincare map that the closed form
# replaced.  The return time scans 41 flow times around the hint for a sign
# change of the y-chart time, then bisects; it returns None when the scan
# brackets no crossing.
def _oracle_return_time(atlas, x, y, q, t_hint=None, tol_factor=1e-12):
    box_x = atlas._box(x)
    box_y = atlas._box(y)
    z = box_x.chart_forward(0.0, np.asarray(q, dtype=float))
    tau = atlas.tau
    if t_hint is None:
        t_hint, _ = box_x.chart_inverse(box_y.center, branch="forward")
        t_hint = float(t_hint)
    span = 0.45 * atlas.model.roof
    ts = t_hint + np.linspace(-span, span, 41)
    gaps, _ = box_y.chart_inverse(atlas.model.flow_map(z, ts))
    for i in range(len(ts) - 1):
        if gaps[i] == 0.0:
            return ts[i]
        # The nearest-branch gap also changes sign where it wraps at
        # +-roof/2; only a true crossing moves it by less than roof/2.
        if gaps[i] * gaps[i + 1] < 0 and abs(gaps[i]) < tau / 2 \
                and abs(gaps[i + 1]) < tau / 2 \
                and abs(gaps[i + 1] - gaps[i]) < atlas.model.roof / 2:
            break
    else:
        return None
    a, b, ga = ts[i], ts[i + 1], gaps[i]
    while b - a > tol_factor * tau:
        mid = 0.5 * (a + b)
        gm = float(box_y.chart_inverse(atlas.model.flow_map(z, mid))[0])
        if gm == 0.0:
            return mid
        if ga * gm < 0:
            b = mid
        else:
            a, ga = mid, gm
    return 0.5 * (a + b)


def _oracle_image(atlas, x, y, q, t):
    """y-chart coordinate of gamma_x(0, q) flowed for time t."""
    w = atlas.model.flow_map(atlas._box(x).chart_forward(0.0, q), t)
    return atlas._box(y).chart_inverse(w)[1]


def _oracle_poincare_map(atlas, x, y, q, t_hint=None):
    q = np.asarray(q, dtype=float)
    return _oracle_image(atlas, x, y, q,
                         _oracle_return_time(atlas, x, y, q, t_hint=t_hint))


def _oracle_linear_part(atlas, x, y):
    """Central-difference linear part of the oracle map at q = 0; each
    difference is taken modulo the base lattice, as the chart wraps."""
    model = atlas.model
    cols = []
    for e in 1e-7 * np.eye(2):
        d = (_oracle_poincare_map(atlas, x, y, e)
             - _oracle_poincare_map(atlas, x, y, -e)) @ model.eigen_frame.T
        cols.append((d - np.round(d)) @ model.eigen_frame_inv.T / 2e-7)
    return np.column_stack(cols)


def _random_cases(atlas, n, seed):
    """(x, y, q, t_hint) draws over all box pairs and hints within a roof."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x, y = (int(i) for i in rng.integers(0, atlas.n_gamma, 2))
        q = rng.uniform(-atlas.rho, atlas.rho, 2)
        hint = float(return_time(atlas, x, y)
                     + rng.uniform(-1.0, 1.0) * atlas.model.roof)
        yield x, y, q, hint


def _torus_gap(model, u, v):
    """Distance of two chart coordinates modulo the base lattice (a chart
    that is not injective picks the minimal-norm representative)."""
    d = (u - v) @ model.eigen_frame.T
    return float(np.abs(d - np.round(d)).max())


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
    assert atlas.covering_report["radius"] <= atlas.eps / 2
    assert atlas.covering_report["level_half_gap"] <= atlas.eps / 4
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
    assert return_time(atlas, x, y) == model.roof
    assert return_time(atlas, x, y, t_hint=2.4 * model.roof) == 2 * model.roof
    # level k of 8 lies k/8 roof ahead of level 0, and 1 - k/8 behind it
    lvl = atlas.boxes[0].center[2]
    for i, box in enumerate(atlas.boxes):
        dt = (box.center[2] - lvl) % model.roof
        assert abs(return_time(atlas, x, i) - (dt or model.roof)) < 1e-15
        assert abs(return_time(atlas, i, x) - (model.roof - dt)) < 1e-15


@pytest.mark.parametrize("hint", [0.8, 0.9, 0.932, 1.0, 1.1])
def test_return_time_skips_the_branch_wrap(model, atlas, hint):
    # tau = roof here, so the nearest-branch gap wraps at +-tau/2 inside the
    # oracle's scanned bracket; the returned time must be a true crossing of
    # Sigma_0, and the oracle must find the same one
    box = atlas.boxes[0]
    q = np.zeros(2)
    t = return_time(atlas, 0, 0, t_hint=hint)
    gap, _ = box.chart_inverse(model.flow_map(box.chart_forward(0.0, q), t))
    assert abs(float(gap)) <= 1e-9
    assert abs(t - _oracle_return_time(atlas, 0, 0, q, t_hint=hint)) <= 1e-9


def test_closed_form_matches_bisection_oracle(atlas):
    found = 0
    for x, y, q, hint in _random_cases(atlas, 120, seed=3):
        t_ref = _oracle_return_time(atlas, x, y, q, t_hint=hint)
        if t_ref is None:
            continue
        found += 1
        t = return_time(atlas, x, y, t_hint=hint)
        assert abs(t - t_ref) <= 1e-9
        # bitwise the oracle's flow-then-chart at the closed-form time; the
        # bisected time differs by rounding, which moves the map by ~1 ulp
        f = poincare_map(atlas, x, y, q, t_hint=hint)
        assert np.array_equal(f, _oracle_image(atlas, x, y, q, t))
        assert np.abs(f - _oracle_image(atlas, x, y, q, t_ref)).max() <= 1e-15
    assert found >= 100


def test_forward_admissibility_of_chained_pair(atlas):
    assert check_forward_admissible(atlas, *_chained_pair(atlas))


def _admissibility_failure(atlas, x, y):
    with pytest.raises(AdmissibilityError) as err:
        check_forward_admissible(atlas, x, y)
    return err.value.condition


def test_forward_admissible_rejects_time_offset(atlas):
    # y one level (roof/8) ahead of x: t0 = 0.125 is far from tau = 1
    x, _ = _chained_pair(atlas)
    cx = atlas.boxes[x].center
    y = next(i for i, b in enumerate(atlas.boxes)
             if np.allclose(b.center[:2], cx[:2])
             and abs(b.center[2] - cx[2] - atlas.model.roof / 8) < 1e-12)
    assert _admissibility_failure(atlas, x, y).startswith(
        "y not within rho of time-tau slice")


def test_forward_admissible_rejects_transverse_offset(atlas):
    # same level, so t0 = roof = tau, but y's center is far off in the chart
    x, _ = _chained_pair(atlas)
    cx = atlas.boxes[x].center
    y = next(i for i, b in enumerate(atlas.boxes)
             if abs(b.center[2] - cx[2]) < 1e-12
             and float(np.abs(atlas.boxes[x].chart_inverse(b.center)[1])
                       .max()) >= atlas.rho)
    assert (_admissibility_failure(atlas, x, y)
            == "y outside B_x(rho) transversally")


def test_forward_admissible_rejects_poincare_offset(atlas):
    # x -> x passes both slice tests (t0 = tau, u0 = 0), but one roof maps
    # x's center by the base automorphism, far from x's own center
    x, _ = _chained_pair(atlas)
    assert _admissibility_failure(atlas, x, x).startswith(
        "f_xy(0) outside B_y(eps(rho))")


def test_affine_poincare_matches_bisection(model, atlas):
    x, y = _chained_pair(atlas)
    aff = affine_poincare(atlas, x, y)
    lam = model.unstable_eigenvalue
    assert np.abs(aff.linear_part - np.diag([lam, 1 / lam])).max() < 1e-12
    assert np.abs(aff.offset).max() < 1e-12  # lattice-aligned pair
    rng = np.random.default_rng(2)
    for q in rng.uniform(-atlas.rho / 2, atlas.rho / 2, (10, 2)):
        assert np.abs(aff(q) - _oracle_poincare_map(atlas, x, y, q)).max() \
            < 1e-8
    assert np.abs(_oracle_linear_part(atlas, x, y)
                  - aff.linear_part).max() < 1e-6
    # off-lattice pairs at other levels: offset and linear part too
    for x, y, q, _ in _random_cases(atlas, 8, seed=4):
        aff = affine_poincare(atlas, x, y)
        assert _torus_gap(model, aff(q),
                          _oracle_poincare_map(atlas, x, y, q)) < 1e-8
        assert np.abs(_oracle_linear_part(atlas, x, y)
                      - aff.linear_part).max() < 1e-6


def test_certify_hyperbolic_passes_for_chain_map(model, atlas):
    x, y = _chained_pair(atlas)
    cert = certify_hyperbolic(affine_poincare(atlas, x, y),
                              required=atlas.hyper)
    assert cert.passed, cert.checks
    assert cert.sigma_u > 1.0 > cert.sigma_s


def test_certify_hyperbolic_rejects_identity(atlas):
    ident = LocalHyperbolicMap(f_map=lambda q: np.asarray(q, dtype=float),
                               linear_part=np.eye(2), offset=np.zeros(2),
                               rho=atlas.rho, affine=True)
    cert = certify_hyperbolic(ident, required=atlas.hyper)
    assert not cert.passed
    assert not cert.checks["expansion"]["ok"]


def _cubic_map(rho):
    """A map that is not affine: f(q) = 2 q + q^3."""
    return LocalHyperbolicMap(f_map=lambda q: 2.0 * q + q ** 3,
                              linear_part=np.diag([2.0, 2.0]),
                              offset=np.zeros(2), rho=rho)


def test_certify_hyperbolic_refuses_non_affine_map(atlas):
    with pytest.raises(ValueError, match="affine"):
        certify_hyperbolic(_cubic_map(atlas.rho), required=atlas.hyper)


def _oracle_nonlinearity(hmap, n_samples=200, seed=0):
    """The sampled Lipschitz constant of q -> f(q) - A q over random pairs in
    the ball of radius rho/2 that ``certify_hyperbolic`` used to measure."""
    A = hmap.linear_part
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-hmap.rho / 2, hmap.rho / 2, (n_samples, 2))
    vals = np.array([hmap(p) - A @ p for p in pts])
    lip = 0.0
    for _ in range(n_samples):
        i, j = rng.integers(0, n_samples, 2)
        den = float(np.abs(pts[i] - pts[j]).max())
        if i != j and den > 1e-12:
            lip = max(lip, float(np.abs(vals[i] - vals[j]).max()) / den)
    return lip


def test_affine_maps_have_no_sampled_nonlinearity(atlas):
    from weakkam.shadowing import lattice_box_chains
    pairs = {(cyc[i], cyc[(i + 1) % len(cyc)])
             for cyc, _ in lattice_box_chains(atlas) for i in range(len(cyc))}
    assert len(pairs) > 10
    for x, y in sorted(pairs):
        assert _oracle_nonlinearity(affine_poincare(atlas, x, y)) <= 1e-12
    # the sampler does see the nonlinearity of a map that has some
    assert _oracle_nonlinearity(_cubic_map(atlas.rho)) > 1e-3


def test_adapted_norm_is_the_max_norm_bitwise():
    from weakkam.charts import adapted_norm
    rng = np.random.default_rng(5)
    q = rng.standard_normal((7, 5, 2))
    q[0, 0] = [np.nan, 1.0]
    q[0, 1] = [-2.0, np.nan]
    q[1, 0] = [-0.0, 0.0]
    q[1, 1] = [-np.inf, 3.0]
    want = np.abs(q).max(axis=-1)
    got = adapted_norm(q)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert float(adapted_norm(np.array([0.3, -0.4]))) == 0.4


def _oracle_uncovered(atlas, pts):
    """The per-box covering loop: one ``chart_inverse``, so one ``flow_map``,
    per box over the samples still uncovered."""
    uncovered = np.ones(len(pts), dtype=bool)
    for box in atlas.boxes:
        if not uncovered.any():
            break
        t, u = box.chart_inverse(pts[uncovered])
        inside = (np.abs(t) < atlas.eps) & (np.abs(u).max(axis=1) < atlas.eps)
        idx = np.nonzero(uncovered)[0]
        uncovered[idx[inside]] = False
    return uncovered


def _samples(model, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    pts[:, 2] *= model.roof
    return pts


MATRICES = {"A211": [[2, 1], [1, 1]], "A3121": [[3, 1], [2, 1]]}


@pytest.mark.parametrize("settings", [(1.0, 0.25, 0.25), (0.8, 0.2, 0.15)],
                         ids=["tau1", "tau0.8"])
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_per_box_loop_finds_no_gap_in_lattice_cover(name, settings):
    model = SuspensionFlow(base_matrix=np.array(MATRICES[name]))
    atlas = build_atlas(model, *settings)
    rep = atlas.covering_report
    assert rep["radius"] <= atlas.eps / 2
    assert rep["level_half_gap"] <= atlas.eps / 4
    assert rep["n_boxes"] == atlas.n_gamma
    assert not _oracle_uncovered(atlas, _samples(model, 20000)).any()


@pytest.mark.parametrize("keep", [slice(None, None, 7), slice(None, 100)],
                         ids=["every_7th", "first_100"])
def test_per_box_loop_flags_thinned_cover(atlas, keep):
    from dataclasses import replace
    thin = replace(atlas, boxes=atlas.boxes[keep])
    assert _oracle_uncovered(thin, _samples(atlas.model, 20000)).any()


def _oracle_net_count(model, eps):
    """The search that picked the per-axis net count m: the least m >= 2
    whose cell-corner radius in the adapted norm is at most eps/2."""
    m = 2
    while True:
        d = 1.0 / m
        corners = np.array([[d / 2, d / 2], [d / 2, -d / 2]])
        if np.abs(corners @ model.eigen_frame_inv.T).max() <= eps / 2.0:
            return m
        m += 1


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_net_count_matches_search(name):
    model = SuspensionFlow(base_matrix=np.array(MATRICES[name]))
    for eps in np.linspace(0.06, 0.33, 55):
        atlas = build_atlas(model, 1.0, 0.25, float(eps))
        n_levels = len(atlas._levels[0])
        assert atlas.n_gamma == n_levels * _oracle_net_count(model, eps) ** 2


def test_build_atlas_rejects_non_positive_sizes(model):
    for args in ((1.0, 0.25, 0.0), (1.0, 0.25, -0.1), (1.0, 0.0, 0.25),
                 (0.0, 0.25, 0.25), (1.0, 0.25, float("nan"))):
        with pytest.raises(ValueError):
            build_atlas(model, *args)


def _oracle_lip_gamma(model, box: FlowBox, n_samples=400, seed=0):
    """The sampled C^1 bounds of the chart and its inverse that
    ``build_atlas`` used to report: forward steps along one chart coordinate
    at a time over |t| <= 2 tau, and inverse steps along 8 random ambient
    directions, on the nearest branch only."""
    rng = np.random.default_rng(seed)
    tau = box.tau
    t = rng.uniform(-2 * tau, 2 * tau, n_samples)
    u = rng.uniform(-1.0, 1.0, (n_samples, 2))
    base = box.chart_forward(t, u)
    fd = 1e-6
    worst_fwd = 0.0
    for d_t, d_u in ((fd, (0.0, 0.0)), (0.0, (fd, 0.0)), (0.0, (0.0, fd))):
        moved = box.chart_forward(t + d_t, u + np.asarray(d_u))
        dist = model.distance(moved, base)
        worst_fwd = max(worst_fwd, float(dist.max()) / fd)
    worst_inv = 0.0
    dirs = rng.standard_normal((8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d in dirs:
        moved = base + fd * d
        moved[:, :2] %= 1.0
        keep = (moved[:, 2] >= 0) & (moved[:, 2] < model.roof)
        t2, u2 = box.chart_inverse(moved[keep])
        adapted = np.maximum(np.abs(t2 - t[keep]),
                             np.abs(u2 - u[keep]).max(axis=-1))
        good = adapted < 0.5  # exclude branch flips
        if good.any():
            worst_inv = max(worst_inv, float(adapted[good].max()) / fd)
    return max(1.0, worst_fwd, worst_inv)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_lip_gamma_bounds_the_sampled_estimate(name):
    model = SuspensionFlow(base_matrix=np.array(MATRICES[name]))
    atlas = build_atlas(model, 1.0, 0.25, 0.25)
    for box in atlas.boxes[::37]:
        est = _oracle_lip_gamma(model, box)
        assert est <= atlas.lip_gamma
        assert est >= 0.98 * atlas.lip_gamma
    if name == "A211":
        # two roof crossings, a max-norm step of 1 in both u-coordinates
        assert atlas.lip_gamma == pytest.approx(4 * np.sqrt(3), rel=1e-14)
