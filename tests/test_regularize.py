import dataclasses
import time

import numpy as np
import pytest

from weakkam.observables import smoothstep_prime

from weakkam import (BumpPair, CoverGapError, Grid, GridFunction,
                     NotSubactionError, SubactionCertificate, SuspensionFlow,
                     build_kernel, coboundary_observable, default_cover,
                     distance_squared_observable, lie_derivative_field,
                     regularize_all, regularize_once,
                     verify_integrated_subaction, verify_subaction,
                     weak_kam_solve)
from weakkam import regularize as regularize_mod
from weakkam.charts import FlowBox
from weakkam.regularize import (_CHUNK, EPS, N_Q, N_T, TAU, _corrected_table,
                                _Level, _smooth_box, _smooth_cover)


def _bump_check(bumps, n_samples=200, seed=0):
    """Sampled support and plateau invariants of a BumpPair; beta'
    integrates to zero."""
    eps, tau = bumps.eps, bumps.tau
    rng = np.random.default_rng(seed)
    q_in = rng.uniform(-eps, eps, (n_samples, 2))
    q_out = rng.uniform(2 * eps, 3 * eps, (n_samples, 2))
    t_in = rng.uniform(0.0, tau, n_samples)
    t_out = np.concatenate([
        rng.uniform(-2 * eps, -eps, n_samples // 2),
        rng.uniform(tau + eps, tau + 2 * eps, n_samples // 2)])
    ts = np.linspace(-2 * eps, tau + 2 * eps, 4001)
    net = np.trapezoid(bumps.beta_prime(ts), ts)
    return bool(np.all(bumps.alpha(q_in) == 1.0)
                and np.all(bumps.alpha(q_out) == 0.0)
                and np.all(bumps.beta(t_in) == 1.0)
                and np.all(bumps.beta(t_out) == 0.0)
                and np.all((bumps.beta(ts) >= 0) & (bumps.beta(ts) <= 1))
                and abs(net) < 1e-6)


def _flow_box(box):
    """The FlowBox of a one-box cover."""
    return FlowBox(box.model, box.centers[0])


def _chart_window(box, points):
    """(t, u, inside) of manifold points against the D'' of the one-box
    cover ``box``: the chart time the smoothing takes, the chart coordinate
    at the section, and ``in_window`` of the two."""
    p = np.asarray(points, dtype=float)
    t = box._chart_time(p, box.centers[0, 2])
    u = _flow_box(box).section_u(box.model.flow_map(p, -t))
    return t, u, box.in_window(t, u)


@pytest.fixture(scope="module")
def cover(model):
    return default_cover(model)


@pytest.fixture(scope="module")
def certificate(model, cobound, medium_solution, cover):
    phi, _ = cobound
    sol, _ = medium_solution
    return regularize_all(sol.u, cover, phi, sol.phi_bar)


def test_bump_pair_invariants():
    bumps = BumpPair(0.1, 0.4)
    assert _bump_check(bumps)
    assert bumps.alpha(np.array([0.05, -0.08])) == 1.0
    assert bumps.alpha(np.array([0.25, 0.0])) == 0.0
    assert bumps.beta(0.2) == 1.0
    assert bumps.beta(-0.15) == 0.0 and bumps.beta(0.52) == 0.0


def test_beta_prime_closed_form_matches_difference_quotient():
    bumps = BumpPair(0.1, 0.4)
    t = np.linspace(-0.25, 0.65, 1001)
    fd = 1e-7
    quotient = (bumps.beta(t + fd) - bumps.beta(t - fd)) / (2 * fd)
    assert np.abs(bumps.beta_prime(t) - quotient).max() < 1e-6
    assert np.all(bumps.beta_prime(np.array([-0.15, 0.2, 0.55])) == 0.0)


def test_bump_check_fails_on_wrong_beta_prime():
    class RiseOnly(BumpPair):
        # drops the fall term, so beta' integrates to 1, not 0
        def beta_prime(self, t):
            x = (np.asarray(t, dtype=float) + self.eps) / self.eps
            return smoothstep_prime(x) / self.eps

    assert _bump_check(BumpPair(0.1, 0.4))
    assert not _bump_check(RiseOnly(0.1, 0.4))


def test_spec_validation():
    # a box's time extent tau + 4 eps = 0.8 must stay below the roof
    for roof in (0.5, 0.8):
        with pytest.raises(ValueError, match="roof"):
            default_cover(SuspensionFlow(roof=roof))
    assert len(default_cover(SuspensionFlow(roof=1.0))) == 256


def test_default_cover_shape(model, cover):
    assert len(cover) == 8 * 8 * 4 and cover.centers.shape == (256, 3)
    assert TAU + 4 * EPS < model.roof
    levels = cover.levels()
    assert [len(level) for level in levels] == [64] * 4
    assert [level.centers[0, 2] for level in levels] == [0, 0.25, 0.5, 0.75]
    assert np.array_equal(cover[17].centers, cover.centers[17:18])
    assert np.array_equal(cover[3:80].centers, cover.centers[3:80])


def test_regularize_once_is_local(model, cobound, medium_solution, cover):
    phi, _ = cobound
    sol, _ = medium_solution
    box = cover[17]
    out = regularize_once(sol.u, box, phi, sol.phi_bar)
    nodes = sol.u.grid.node_points().reshape(-1, 3)
    _, _, inside = _chart_window(box, nodes)
    outside = ~inside.reshape(sol.u.grid.shape)
    # untouched nodes are bitwise identical
    assert np.array_equal(out.values[outside], sol.u.values[outside])
    assert np.any(out.values != sol.u.values)


def test_regularize_once_near_identity_on_exact_data(model, cobound, cover):
    # u equal to the closed-form potential with phi its exact flow derivative:
    # the corrected integrand vanishes, so one pass is the identity up to
    # chart interpolation error
    phi, pot = cobound
    from weakkam import Grid
    grid = Grid((16, 16, 10), (1.0, 1.0, model.roof), model.base_matrix)
    u = GridFunction(grid, pot(grid.node_points()))
    out = regularize_once(u, cover[5], phi, 0.0)
    assert np.abs(out.values - u.values).max() < 2e-2


def test_regularize_all_certificate(certificate):
    cert = certificate
    assert cert.region_mask.any()
    assert cert.margin >= -cert.slack, (cert.margin, cert.slack)
    assert cert.lip_u > 0 and cert.lip_lie > 0 and cert.lip_phi > 0
    assert cert.ratio_u > 0 and cert.ratio_lie > 0
    assert cert.report["n_region_nodes"] > 0


def test_certificate_ratios_are_ieee_quotients():
    cert = SubactionCertificate(u=None, region_mask=None, margin=0.0,
                                lip_u=2.0, lip_lie=0.0, lip_phi=0.0,
                                slack=0.0, phi_bar=0.0, fd_step=0.1)
    assert cert.ratio_u == np.inf and np.isnan(cert.ratio_lie)
    cert.lip_phi = 4.0
    assert cert.ratio_u == 0.5 and cert.ratio_lie == 0.0
    assert type(cert.ratio_u) is float


def test_verify_subaction_offgrid(model, cobound, certificate):
    phi, _ = cobound
    rep = verify_subaction(certificate, phi, certificate.phi_bar, 500, model,
                           n_paths=30)
    assert rep["passed"], rep
    assert rep["path_min_action"] >= rep["path_floor"] - certificate.slack


@pytest.mark.parametrize("n_samples,n_paths,name", [
    (0, 30, "n_samples"), (-1, 30, "n_samples"),
    (500, 0, "n_paths"), (500, -2, "n_paths")])
def test_verify_subaction_rejects_empty_draws(model, cobound, certificate,
                                              n_samples, n_paths, name):
    # no sample has no worst margin; no path would pass the path check as
    # an infinite action
    phi, _ = cobound
    with pytest.raises(ValueError, match=name):
        verify_subaction(certificate, phi, certificate.phi_bar, n_samples,
                         model, n_paths=n_paths)


def test_verify_subaction_rejects_an_empty_region(model, cobound,
                                                  certificate):
    # the sampler draws until enough points land in the region: with no
    # node in it, it would never stop
    phi, _ = cobound
    empty = dataclasses.replace(
        certificate, region_mask=np.zeros_like(certificate.region_mask))
    with pytest.raises(ValueError, match="region_mask"):
        verify_subaction(empty, phi, empty.phi_bar, 10, model, n_paths=1)


def test_report_times_the_two_phases(certificate):
    timings = certificate.report["timings"]
    assert list(timings) == ["chunks", "passes"]
    assert all(v > 0 for v in timings.values())


def test_cover_gap_detected(model, cobound, medium_solution, cover):
    phi, _ = cobound
    sol, _ = medium_solution
    with pytest.raises(CoverGapError):
        regularize_all(sol.u, cover[:10], phi, sol.phi_bar, precheck=False)


def _axis_cell(nodes, x):
    step = nodes[1] - nodes[0]
    f = np.clip((np.asarray(x) - nodes[0]) / step, 0, len(nodes) - 1 - 1e-12)
    i = f.astype(np.int64)
    return i, f - i


def _interp_table(t_nodes, q_nodes, table, t, u):
    """Trilinear interpolation of a whole chart table at (t, u) queries in
    two steps: on each of the two q2-layers of the cell, the (t, q1) plane
    sum of its four corners in the order (0, 0), (0, 1), (1, 0), (1, 1),
    then the interpolation between the two along q2; each sum starts at
    0.0."""
    i0, f0 = _axis_cell(t_nodes, t)
    i1, f1 = _axis_cell(q_nodes, u[..., 0])
    i2, f2 = _axis_cell(q_nodes, u[..., 1])
    plane = []
    for d2 in (0, 1):
        p = 0.0
        for d0 in (0, 1):
            for d1 in (0, 1):
                w = (f0 if d0 else 1 - f0) * (f1 if d1 else 1 - f1)
                p = p + w * table[i0 + d0, i1 + d1, i2 + d2]
        plane.append(p)
    return 0.0 + (1 - f2) * plane[0] + f2 * plane[1]


def _table_axes():
    t_nodes = np.linspace(-2 * EPS, TAU + 2 * EPS, N_T)
    q_nodes = np.linspace(-3 * EPS, 3 * EPS, N_Q)
    return t_nodes, q_nodes


def _chart_points(box):
    """The whole chart table of the one-box cover ``box`` as its level
    translates it: the table of the reference box (centre (0, 0, s)) moved
    row by row by the flow of the box's centre."""
    model, center = box.model, box.centers[0]
    t_nodes, q_nodes = _table_axes()
    T, Q1, Q2 = np.meshgrid(t_nodes, q_nodes, q_nodes, indexing="ij")
    ref = FlowBox(model, np.array([0.0, 0.0, center[2]]))
    pts = ref.chart_forward(T, np.stack([Q1, Q2], axis=-1))
    shift = model.flow_map(center, t_nodes)[:, :2]
    pts[..., :2] = np.mod(pts[..., :2] + shift[:, None, None, :], 1.0)
    return pts


def _oracle_smooth_box(u, box, window, phi, phi_bar):
    """The pass that prices u on every point and phi on every column of the
    one-box cover's translated chart table, and interpolates w at every
    window node (``window`` as ``_chart_window`` returns it)."""
    t, uu, inside = window
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        return u.copy()
    t_nodes, q_nodes = _table_axes()
    pts = _chart_points(box)
    ut = np.asarray(u(pts), dtype=float)
    beta = box.bumps.beta(t_nodes)
    rows = beta > 0
    pht = np.zeros_like(ut)
    pht[rows] = np.asarray(phi(pts[rows]), dtype=float) - phi_bar
    wt = _corrected_table(t_nodes[1] - t_nodes[0], beta, ut, pht)
    a = box.bumps.alpha(uu[idx])
    w_vals = _interp_table(t_nodes, q_nodes, wt, t[idx], uu[idx])
    flat = u.values.reshape(-1).copy()
    flat[idx] = (1.0 - a) * flat[idx] + a * w_vals
    return GridFunction(u.grid, flat.reshape(u.grid.shape))


def _live_cells(box, window):
    """The q-cells, shape (n, 2), of the window nodes of the one-box cover
    ``box`` with alpha > 0 (``window`` as ``_chart_window`` returns it)."""
    _, uu, inside = window
    live = uu[inside][box.bumps.alpha(uu[inside]) > 0]
    _, q_nodes = _table_axes()
    return np.stack([_axis_cell(q_nodes, live[:, ax])[0] for ax in (0, 1)],
                    axis=-1)


def _live_columns(chunk):
    """The table columns each box of a chunk must price: every box with
    window nodes of alpha > 0 prices the rectangle of q-cells around the
    live nodes of the whole chunk, one row of cells beyond the last, and
    every other box none.  ``chunk`` pairs each box with its window."""
    cells = [_live_cells(box, window) for box, window in chunk]
    every = np.concatenate(cells)
    size = int(np.prod(np.ptp(every, axis=0) + 2)) if every.size else 0
    return [size if c.size else 0 for c in cells]


def _oracle_passes(u0, cover, phi, phi_bar, core_margin):
    """``_smooth_cover`` box by box: every box charts all nodes itself and
    runs the whole-table pass.  Returns (u, core mask, uncovered mask, live
    columns, timings), the columns counted per chunk of ``_CHUNK`` boxes of
    a level; no part is u-independent, so every second is a pass."""
    t0 = time.perf_counter()
    nodes = u0.grid.node_points().reshape(-1, 3)
    mask = np.zeros(nodes.shape[0], dtype=bool)
    uncovered = np.ones(nodes.shape[0], dtype=bool)
    u = u0
    n_cols = 0
    for level in cover.levels():
        for k0 in range(0, len(level), _CHUNK):
            chunk = [(level[k], _chart_window(level[k], nodes))
                     for k in range(k0, min(k0 + _CHUNK, len(level)))]
            n_cols += sum(_live_columns(chunk))
            for box, window in chunk:
                u = _oracle_smooth_box(u, box, window, phi, phi_bar)
                t, uu, inside = window
                mask |= inside & box.in_core(t, uu, margin=core_margin)
                uncovered &= ~(inside & box.in_core(t, uu))
    timings = {"chunks": 0.0, "passes": time.perf_counter() - t0}
    return u, mask, uncovered, n_cols, timings


def _oracle_regularize_once(u, box, phi, phi_bar, window):
    """The per-box pass: the box charts its own table with ``chart_forward``
    and prices phi on every row."""
    t_nodes, q_nodes = _table_axes()
    T, Q1, Q2 = np.meshgrid(t_nodes, q_nodes, q_nodes, indexing="ij")
    pts = _flow_box(box).chart_forward(T, np.stack([Q1, Q2], axis=-1))
    ut = np.asarray(u(pts), dtype=float)
    pht = np.asarray(phi(pts), dtype=float) - phi_bar
    dt = t_nodes[1] - t_nodes[0]
    beta = box.bumps.beta(t_nodes)
    du = np.empty_like(ut)
    du[1:] = (ut[1:] - ut[:-1]) / dt
    du[0] = du[1]
    I = dt * np.cumsum(beta[:, None, None] * (pht - du), axis=0)
    B = dt * np.cumsum(beta)
    wt = ut + I - B[:, None, None] * (I[-1] / B[-1])[None]
    t, uu, inside = window
    idx = np.nonzero(inside)[0]
    a = box.bumps.alpha(uu[idx])
    w_vals = _interp_table(t_nodes, q_nodes, wt, t[idx], uu[idx])
    flat = u.values.reshape(-1).copy()
    flat[idx] = (1.0 - a) * flat[idx] + a * w_vals
    return GridFunction(u.grid, flat.reshape(u.grid.shape))


def _oracle_regularize_all(u0, cover, phi, phi_bar):
    """The per-box loop: every box charts the nodes and its table itself.
    Returns (u, region mask, node margin)."""
    grid = u0.grid
    nodes = grid.node_points().reshape(-1, 3)
    core_margin = min(grid.diagonal, EPS / 2.0, TAU / 4.0)
    mask = np.zeros(nodes.shape[0], dtype=bool)
    u = u0
    for k in range(len(cover)):
        box = cover[k]
        window = _chart_window(box, nodes)
        u = _oracle_regularize_once(u, box, phi, phi_bar, window)
        mask |= box.in_core(window[0], window[1], margin=core_margin)
    mask = mask.reshape(grid.shape)
    lie = lie_derivative_field(u, cover.model, (TAU + 4 * EPS) / (N_T - 1))
    phi_nodes = np.asarray(phi(nodes), dtype=float).reshape(grid.shape)
    return u, mask, float((phi_nodes - phi_bar - lie)[mask].min())


def test_regularize_all_matches_per_box_oracle(cobound, medium_solution,
                                               cover, certificate):
    phi, _ = cobound
    sol, _ = medium_solution
    u, mask, margin = _oracle_regularize_all(sol.u, cover, phi, sol.phi_bar)
    assert np.abs(certificate.u.values - u.values).max() <= 1e-14
    assert np.array_equal(certificate.region_mask, mask)
    assert abs(certificate.margin - margin) <= 1e-14


def test_level_geometry_matches_each_box(medium_grid, cobound, cover):
    phi, _ = cobound
    nodes = medium_grid.node_points().reshape(-1, 3)
    levels = cover.levels()
    assert [len(part) for part in levels] == [64] * 4
    crossings = []
    for part in levels:
        level = _Level(part, medium_grid)
        boxes = []
        for (t, uu, idx), chunk in level.chunks(phi, 0.0):
            # the window pairs are bitwise each box's own chart window
            for box in chunk:
                one = part[len(boxes)]
                tw, uw, inside = _chart_window(one, nodes)
                n = box.idx.size
                assert np.array_equal(box.idx, np.flatnonzero(inside))
                assert np.array_equal(idx[:n], box.idx)
                assert t[:n].tobytes() == tw[inside].tobytes()
                assert uu[:n].tobytes() == uw[inside].tobytes()
                alpha = one.bumps.alpha(uw[inside])
                assert box.a.tobytes() == alpha.tobytes()
                t, uu, idx = t[n:], uu[n:], idx[n:]
                boxes.append(box)
            assert idx.size == 0
        assert len(boxes) == len(part)
        t_nodes, q_nodes = _table_axes()
        T, Q1, Q2 = np.meshgrid(t_nodes, q_nodes, q_nodes, indexing="ij")
        U = np.stack([Q1, Q2], axis=-1)
        run_start = np.flatnonzero(np.diff(level.run, prepend=-1))
        for k in range(len(part)):
            # the translated table: equal s, base equal up to the last bits
            got = _chart_points(part[k])
            want = _flow_box(part[k]).chart_forward(T, U)
            db = got[..., :2] - want[..., :2]
            assert np.abs(db - np.round(db)).max() <= 1e-15
            assert np.array_equal(got[..., 2], want[..., 2])
            assert np.array_equal(got[:, 0, 0, 2], level.s)
            # each column's base is bitwise constant along a run, and the
            # level's run bases are the table's
            for r in range(level.run[-1] + 1):
                on_run = got[level.run == r]
                assert np.array_equal(on_run[..., :2],
                                      np.broadcast_to(on_run[:1, ..., :2],
                                                      on_run[..., :2].shape))
            base = np.mod(level.table_base
                          + level.shifts[k][:, None, None, :], 1.0)
            assert np.array_equal(base, got[run_start][..., :2])
        crossings.append(int(level.run[-1]))
    # windows (s - 0.2, s + 0.6) at s = 0, 0.25, 0.5, 0.75 on a unit roof
    assert crossings == [1, 0, 1, 1]


def test_regularize_all_flows_once_per_level(cobound, medium_solution, cover,
                                             monkeypatch):
    phi, _ = cobound
    sol, _ = medium_solution
    calls = []
    flow_map = SuspensionFlow.flow_map

    def counted(model, x, t):
        calls.append(np.shape(x))
        return flow_map(model, x, t)

    monkeypatch.setattr(SuspensionFlow, "flow_map", counted)
    # 70 boxes over two levels: per level, one node backflow, one reference
    # table and one flow of all its centres
    with pytest.raises(CoverGapError):
        regularize_all(sol.u, cover[:70], phi, sol.phi_bar, precheck=False)
    assert len(calls) == 6


_NON_FINITE = [(bad, entry) for entry in ("regularize_all", "regularize_once")
               for bad in ("nan_u", "inf_u", "nan_phi_bar")]


@pytest.mark.parametrize(
    "bad, entry", _NON_FINITE,
    ids=[bad if entry == "regularize_all" else f"{bad}-{entry}"
         for bad, entry in _NON_FINITE])
def test_regularize_all_rejects_non_finite_input(cobound, medium_solution,
                                                 cover, bad, entry):
    phi, _ = cobound
    sol, _ = medium_solution
    values, phi_bar = sol.u.values.copy(), sol.phi_bar
    if bad == "nan_u":
        values[3, 4, 5] = np.nan
    elif bad == "inf_u":
        values[0, 0, 0] = np.inf
    else:
        phi_bar = np.nan
    u = GridFunction(sol.u.grid, values)
    with pytest.raises(ValueError):
        if entry == "regularize_all":
            regularize_all(u, cover, phi, phi_bar)
        else:
            regularize_once(u, cover[17], phi, phi_bar)


def test_precheck_rejects_non_subaction(model, cobound, medium_solution,
                                        cover):
    phi, _ = cobound
    sol, kern = medium_solution
    nodes = kern.grid.node_points()
    bad = GridFunction(kern.grid, sol.u.values + 2.0 * nodes[..., 2])
    with pytest.raises(NotSubactionError):
        regularize_all(bad, cover, phi, sol.phi_bar, precheck_slack=0.1)


def test_sign_flip_falsifies_subaction(model, cobound, medium_solution):
    phi, _ = cobound
    sol, _ = medium_solution
    flipped = GridFunction(sol.u.grid, -sol.u.values)
    # the negated fixed point violates the integrated inequality somewhere
    rep = verify_integrated_subaction(flipped, model, phi, sol.phi_bar, 256,
                                      4.0, slack=0.05)
    assert not rep["passed"] and rep["worst_margin"] < -0.05


@pytest.fixture(scope="module", params=["coboundary", "dist2"])
def observable(request, cobound, model):
    if request.param == "coboundary":
        return cobound[0]
    return distance_squared_observable(model)


@pytest.fixture(scope="module", params=[(8, 8, 10), (16, 16, 10)],
                ids=["8x8x10", "16x16x10"])
def fixed_point(request, model, observable):
    grid = Grid(request.param, (1.0, 1.0, model.roof), model.base_matrix)
    c = 4.0 * max(1.0, observable.lipschitz_constant)
    kern = build_kernel(grid, model, observable, c, 0.0, grid.spacings[2],
                        2.0)
    return weak_kam_solve(kern)


def test_regularize_all_bitwise_matches_whole_table_pass(
        observable, fixed_point, cover, monkeypatch):
    sol = fixed_point
    cert = regularize_all(sol.u, cover, observable, sol.phi_bar,
                          precheck=False)
    monkeypatch.setattr(regularize_mod, "_smooth_cover", _oracle_passes)
    want = regularize_all(sol.u, cover, observable, sol.phi_bar,
                          precheck=False)
    assert cert.u.values.tobytes() == want.u.values.tobytes()
    assert np.array_equal(cert.region_mask, want.region_mask)
    assert cert.margin == want.margin and cert.slack == want.slack
    # only the columns around nodes with alpha > 0: 9 x 9 of 13 x 13
    assert cert.report["table_columns"] == len(cover) * 13 ** 2
    assert cert.report["table_columns_priced"] \
        == want.report["table_columns_priced"] == len(cover) * 9 ** 2


@pytest.mark.parametrize("roof", [1.3, 2.5])
def test_smoothing_off_the_unit_roof_matches_whole_table_pass_bitwise(roof):
    # the chart tables' s lies in [0, roof) on every level, so a run's rows
    # share their base cells; every box prices the 9 x 9 columns
    model = SuspensionFlow(roof=roof)
    phi, pot = coboundary_observable(model)
    grid = Grid((12, 12, 10), (1.0, 1.0, roof), model.base_matrix)
    rng = np.random.default_rng(4)
    u = GridFunction(grid, pot(grid.node_points())
                     + 1e-2 * rng.standard_normal(grid.shape))
    cover = default_cover(model)
    for part in cover.levels():
        level = _Level(part, grid)
        assert np.all((level.s >= 0.0) & (level.s < roof))
        assert all(box.n_cols == 81 for _, chunk in level.chunks(phi, 0.0)
                   for box in chunk)
    got = _smooth_cover(u, cover, phi, 0.0, 0.05)
    want = _oracle_passes(u, cover, phi, 0.0, 0.05)
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3] == len(cover) * 81


@pytest.mark.parametrize("boxes", ["70", "3:80", "one"])
def test_partial_levels_match_whole_table_pass_bitwise(
        model, cobound, medium_solution, cover, boxes):
    # levels cut off inside a chunk (64 + 6 and 61 + 16 boxes) and a level
    # of one box
    phi, _ = cobound
    sol, _ = medium_solution
    part = {"70": cover[:70], "3:80": cover[3:80], "one": cover[100]}[boxes]
    sizes = [len(level) for level in part.levels()]
    assert any(n % _CHUNK for n in sizes)
    got = _smooth_cover(sol.u, part, phi, sol.phi_bar, 0.05)
    want = _oracle_passes(sol.u, part, phi, sol.phi_bar, 0.05)
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3] > 0


def test_uneven_live_columns_match_whole_table_pass_bitwise(model, cobound,
                                                            cover):
    # at 6 x 6 x 10 the live nodes of the boxes of a chunk span q-cell
    # rectangles of different shapes; every box prices its chunk's one
    # rectangle, and the extra columns change no value at a live node
    phi, pot = cobound
    grid = Grid((6, 6, 10), (1.0, 1.0, model.roof), model.base_matrix)
    u = GridFunction(grid, pot(grid.node_points()))
    nodes = grid.node_points().reshape(-1, 3)
    part = cover[:64]
    spans = {tuple(np.ptp(cells, axis=0)) for cells in
             (_live_cells(part[k], _chart_window(part[k], nodes))
              for k in range(len(part))) if cells.size}
    assert len(spans) > 1
    for _, chunk in _Level(part, grid).chunks(phi, 0.0):
        assert len({box.pht.shape for box in chunk
                    if box.pht is not None}) == 1
    got = _smooth_cover(u, part, phi, 0.0, 0.05)
    want = _oracle_passes(u, part, phi, 0.0, 0.05)
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert np.array_equal(got[1], want[1])
    assert got[3] == want[3] == 5184


def test_regularize_once_is_a_one_box_level(model, cobound, medium_solution,
                                             cover):
    phi, _ = cobound
    sol, _ = medium_solution
    nodes = sol.u.grid.node_points().reshape(-1, 3)
    for box in (cover[0], cover[77], cover[255]):
        got = regularize_once(sol.u, box, phi, sol.phi_bar)
        want = _oracle_smooth_box(sol.u, box, _chart_window(box, nodes), phi,
                                  sol.phi_bar)
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("n", [6, 16])
def test_each_box_prices_its_live_rectangle(model, cobound, cover, n):
    # every record of the default levels: a box prices phi and gathers u
    # exactly when it has live nodes, on the rectangle of columns around the
    # live nodes of its chunk
    phi, _ = cobound
    grid = Grid((n, n, 10), (1.0, 1.0, model.roof), model.base_matrix)
    nodes = grid.node_points().reshape(-1, 3)
    for part in cover.levels():
        boxes = [box for _, chunk in _Level(part, grid).chunks(phi, 0.0)
                 for box in chunk]
        assert len(boxes) == len(part)
        windows = [(part[k], _chart_window(part[k], nodes))
                   for k in range(len(part))]
        want = [c for k0 in range(0, len(part), _CHUNK)
                for c in _live_columns(windows[k0:k0 + _CHUNK])]
        for box, cols in zip(boxes, want):
            assert (box.pht is None) == (not box.live.any())
            assert box.n_cols == cols


def test_box_without_live_nodes_prices_no_column(model, cobound, cover):
    # at 3 x 3 x 10 box 36's window holds nodes, all with alpha = 0, in a
    # level whose other boxes have live nodes
    phi, pot = cobound
    grid = Grid((3, 3, 10), (1.0, 1.0, model.roof), model.base_matrix)
    u = GridFunction(grid, pot(grid.node_points()))
    nodes = grid.node_points().reshape(-1, 3)
    part = cover[:64]
    k = 36
    t, uu, inside = window = _chart_window(part[k], nodes)
    assert inside.any() and not (part[k].bumps.alpha(uu[inside]) > 0).any()
    level = _Level(part, grid)
    boxes = [box for _, chunk in level.chunks(phi, 0.0) for box in chunk]
    box = boxes[k]
    assert np.array_equal(box.idx, np.flatnonzero(inside))
    assert box.pht is None and box.n_cols == 0
    assert sum(b.n_cols for b in boxes) > 0
    got = u.copy()
    _smooth_box(got, box, level)
    want = _oracle_smooth_box(u, part[k], window, phi, 0.0)
    assert got.values.tobytes() == want.values.tobytes()
    # the pass still rewrites those nodes as (1 - 0) u + 0 * w
    assert np.array_equal(got.values.reshape(-1)[~inside],
                          u.values.reshape(-1)[~inside])
    # and the whole level, that box included, is the whole-table pass
    passes = _smooth_cover(u, part, phi, 0.0, 0.05)
    oracle = _oracle_passes(u, part, phi, 0.0, 0.05)
    assert passes[0].values.tobytes() == oracle[0].values.tobytes()
    assert passes[3] == oracle[3]


def test_chunk_without_live_nodes_returns_early(model, cobound, cover):
    # at 2 x 2 x 10 a quarter of the chunks hold window nodes but none with
    # alpha > 0: such a chunk prices no column of any of its boxes
    phi, pot = cobound
    grid = Grid((2, 2, 10), (1.0, 1.0, model.roof), model.base_matrix)
    rng = np.random.default_rng(8)
    u = GridFunction(grid, pot(grid.node_points())
                     + 1e-2 * rng.standard_normal(grid.shape))
    dead = 0
    for part in cover.levels():
        for (_, _, nodes), chunk in _Level(part, grid).chunks(phi, 0.0):
            if not any(box.live.any() for box in chunk):
                assert nodes.size > 0
                assert all(box.pht is None for box in chunk)
                dead += 1
    assert dead == 8
    got = _smooth_cover(u, cover, phi, 0.0, 0.05)
    want = _oracle_passes(u, cover, phi, 0.0, 0.05)
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3] > 0
