import itertools

import numpy as np
import pytest

from weakkam.observables import smoothstep_prime

from weakkam import (BumpPair, CoverGapError, Grid, GridFunction,
                     NotSubactionError, RegularizerSpec, SuspensionFlow,
                     build_kernel, default_cover, distance_squared_observable,
                     lie_derivative_field, regularize_all, regularize_once,
                     verify_subaction, weak_kam_solve)
from weakkam import regularize as regularize_mod
from weakkam.charts import FlowBox
from weakkam.regularize import (_corrected_table, _Level, _level_key,
                                _smooth_box, check_integrated_subaction)


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
    assert bumps.check()
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

    assert BumpPair(0.1, 0.4).check()
    assert not RiseOnly(0.1, 0.4).check()


def test_spec_validation(model):
    box = FlowBox(model, np.array([0.0, 0.0, 0.0]), 0.4)
    with pytest.raises(ValueError):
        RegularizerSpec(index=0, box=box, eps=0.2, tau=0.4)  # window >= roof
    with pytest.raises(ValueError):
        RegularizerSpec(index=0, box=box, eps=-0.1, tau=0.4)


def test_default_cover_shape(model, cover):
    assert len(cover) == 8 * 8 * 4
    assert all(s.tau + 4 * s.eps < model.roof for s in cover)
    assert sorted(s.index for s in cover) == list(range(len(cover)))


def test_regularize_once_is_local(model, cobound, medium_solution, cover):
    phi, _ = cobound
    sol, _ = medium_solution
    spec = cover[17]
    out = regularize_once(sol.u, spec, phi, sol.phi_bar,
                          check_precondition=False)
    nodes = sol.u.grid.node_points().reshape(-1, 3)
    _, _, inside = spec.chart_window(nodes)
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
    u = GridFunction.from_callable(grid, pot)
    out = regularize_once(u, cover[5], phi, 0.0, check_precondition=False)
    assert np.abs(out.dense() - u.dense()).max() < 2e-2


def test_regularize_all_certificate(certificate):
    cert = certificate
    assert cert.region_mask.any()
    assert cert.margin >= -cert.slack, (cert.margin, cert.slack)
    assert cert.lip_u > 0 and cert.lip_lie > 0 and cert.lip_phi > 0
    assert cert.ratio_u > 0 and cert.ratio_lie > 0
    assert cert.report["n_region_nodes"] > 0


def test_verify_subaction_offgrid(model, cobound, certificate):
    phi, _ = cobound
    rep = verify_subaction(certificate, phi, certificate.phi_bar, 500,
                           model=model, n_paths=30)
    assert rep["passed"], rep
    assert rep["path_min_action"] >= rep["path_floor"] - certificate.slack


def test_cover_gap_detected(model, cobound, medium_solution, cover):
    phi, _ = cobound
    sol, _ = medium_solution
    with pytest.raises(CoverGapError):
        regularize_all(sol.u, cover[:10], phi, sol.phi_bar, precheck=False)


def _interp_table(t_nodes, q_nodes, table, t, u):
    """Trilinear interpolation of a whole chart table at (t, u) queries."""
    def ax(nodes, x):
        step = nodes[1] - nodes[0]
        f = np.clip((np.asarray(x) - nodes[0]) / step, 0, len(nodes) - 1 - 1e-12)
        i = f.astype(np.int64)
        return i, f - i
    i0, f0 = ax(t_nodes, t)
    i1, f1 = ax(q_nodes, u[..., 0])
    i2, f2 = ax(q_nodes, u[..., 1])
    out = 0.0
    for d0 in (0, 1):
        for d1 in (0, 1):
            for d2 in (0, 1):
                w = (f0 if d0 else 1 - f0) * (f1 if d1 else 1 - f1) \
                    * (f2 if d2 else 1 - f2)
                out = out + w * table[i0 + d0, i1 + d1, i2 + d2]
    return out


def _chart_points(level, k):
    """Box k's whole chart table: the level's reference table moved by the
    box's shift."""
    pts = level.table.copy()
    pts[..., :2] = np.mod(
        pts[..., :2] + level.shifts[k][:, None, None, :], 1.0)
    return pts


def _oracle_smooth_box(u, spec, level, k, window, phi, phi_bar):
    """The pass that prices u on every point and phi on every column of the
    box's chart table, and interpolates w at every window node."""
    t, uu, inside = window
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        return u.copy(), 0
    pts = _chart_points(level, k)
    ut = np.asarray(u(pts), dtype=float)
    beta = spec.bumps.beta(level.t_nodes)
    rows = beta > 0
    pht = np.zeros_like(ut)
    pht[rows] = np.asarray(phi(pts[rows]), dtype=float) - phi_bar
    wt = _corrected_table(level.t_nodes[1] - level.t_nodes[0], beta, ut, pht)
    a = spec.bumps.alpha(uu[idx])
    w_vals = _interp_table(level.t_nodes, level.q_nodes, wt, t[idx], uu[idx])
    flat = u.values.reshape(-1).copy()
    dense_here = flat[idx] + u.offset
    new_dense = (1.0 - a) * dense_here + a * w_vals
    flat[idx] = new_dense - u.offset
    return GridFunction(u.grid, flat.reshape(u.grid.shape), u.offset), 0


def _oracle_regularize_once(u, spec, phi, phi_bar, window):
    """The per-box pass: the box charts its own table with ``chart_forward``
    and prices phi on every row."""
    t_nodes = np.linspace(-2 * spec.eps, spec.tau + 2 * spec.eps, spec.n_t)
    q_nodes = np.linspace(-3 * spec.eps, 3 * spec.eps, spec.n_q)
    T, Q1, Q2 = np.meshgrid(t_nodes, q_nodes, q_nodes, indexing="ij")
    pts = spec.box.chart_forward(T, np.stack([Q1, Q2], axis=-1))
    ut = np.asarray(u(pts), dtype=float)
    pht = np.asarray(phi(pts), dtype=float) - phi_bar
    dt = t_nodes[1] - t_nodes[0]
    beta = spec.bumps.beta(t_nodes)
    du = np.empty_like(ut)
    du[1:] = (ut[1:] - ut[:-1]) / dt
    du[0] = du[1]
    I = dt * np.cumsum(beta[:, None, None] * (pht - du), axis=0)
    B = dt * np.cumsum(beta)
    wt = ut + I - B[:, None, None] * (I[-1] / B[-1])[None]
    t, uu, inside = window
    idx = np.nonzero(inside)[0]
    a = spec.bumps.alpha(uu[idx])
    w_vals = _interp_table(t_nodes, q_nodes, wt, t[idx], uu[idx])
    flat = u.values.reshape(-1).copy()
    flat[idx] = (1.0 - a) * (flat[idx] + u.offset) + a * w_vals - u.offset
    return GridFunction(u.grid, flat.reshape(u.grid.shape), u.offset)


def _oracle_regularize_all(u0, cover, phi, phi_bar):
    """The per-box loop: every box charts the nodes and its table itself.
    Returns (u, region mask, node margin)."""
    grid = u0.grid
    nodes = grid.node_points().reshape(-1, 3)
    core_margin = min(grid.diagonal, min(s.eps for s in cover) / 2.0,
                      min(s.tau for s in cover) / 4.0)
    mask = np.zeros(nodes.shape[0], dtype=bool)
    u = u0
    for spec in sorted(cover, key=lambda s: s.index):
        window = spec.chart_window(nodes)
        u = _oracle_regularize_once(u, spec, phi, phi_bar, window)
        mask |= spec.in_core(window[0], window[1], margin=core_margin)
    mask = mask.reshape(grid.shape)
    lie = lie_derivative_field(u, cover[0].box.model,
                               min(s.fd_step for s in cover))
    phi_nodes = np.asarray(phi(nodes), dtype=float).reshape(grid.shape)
    return u, mask, float((phi_nodes - phi_bar - lie)[mask].min())


def test_regularize_all_matches_per_box_oracle(cobound, medium_solution,
                                               cover, certificate):
    phi, _ = cobound
    sol, _ = medium_solution
    u, mask, margin = _oracle_regularize_all(sol.u, cover, phi, sol.phi_bar)
    assert np.abs(certificate.u.dense() - u.dense()).max() <= 1e-14
    assert np.array_equal(certificate.region_mask, mask)
    assert abs(certificate.margin - margin) <= 1e-14


def test_level_geometry_matches_each_box(medium_grid, cover):
    nodes = medium_grid.node_points().reshape(-1, 3)
    levels = [list(g) for _, g in itertools.groupby(cover, key=_level_key)]
    assert [len(specs) for specs in levels] == [64] * 4
    crossings = []
    for specs in levels:
        level = _Level(specs, nodes)
        T, Q1, Q2 = np.meshgrid(level.t_nodes, level.q_nodes, level.q_nodes,
                                indexing="ij")
        U = np.stack([Q1, Q2], axis=-1)
        for k, spec in enumerate(specs):
            # the translated table: equal s, base equal up to the last bits
            got = _chart_points(level, k)
            want = spec.box.chart_forward(T, U)
            db = got[..., :2] - want[..., :2]
            assert np.abs(db - np.round(db)).max() <= 1e-15
            assert np.array_equal(got[..., 2], want[..., 2])
            # the node window is bitwise the box's own
            for a, b in zip(level.window(spec), spec.chart_window(nodes)):
                assert np.array_equal(a, b)
            # each column's base is bitwise constant along a run, and the
            # run base points are the table's
            for r in range(level.run[-1] + 1):
                on_run = got[level.run == r]
                assert np.array_equal(on_run[..., :2],
                                      np.broadcast_to(on_run[:1, ..., :2],
                                                      on_run[..., :2].shape))
            full = (slice(0, level.q_nodes.size),) * 2
            assert np.array_equal(level.base(k, full),
                                  got[level.run_start][..., :2])
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


@pytest.mark.parametrize("bad", ["nan_u", "inf_u", "inf_offset",
                                 "nan_phi_bar"])
def test_regularize_all_rejects_non_finite_input(cobound, medium_solution,
                                                 cover, bad):
    phi, _ = cobound
    sol, _ = medium_solution
    values, offset, phi_bar = sol.u.values.copy(), sol.u.offset, sol.phi_bar
    if bad == "nan_u":
        values[3, 4, 5] = np.nan
    elif bad == "inf_u":
        values[0, 0, 0] = np.inf
    elif bad == "inf_offset":
        offset = -np.inf
    else:
        phi_bar = np.nan
    with pytest.raises(ValueError):
        regularize_all(GridFunction(sol.u.grid, values, offset), cover, phi,
                       phi_bar)


def test_precheck_rejects_non_subaction(model, cobound, medium_solution,
                                        cover):
    phi, _ = cobound
    sol, kern = medium_solution
    nodes = kern.grid.node_points()
    bad = GridFunction(kern.grid, sol.u.dense() + 2.0 * nodes[..., 2])
    with pytest.raises(NotSubactionError):
        regularize_all(bad, cover, phi, sol.phi_bar, precheck_slack=0.1)


def test_sign_flip_falsifies_subaction(model, cobound, medium_solution):
    phi, _ = cobound
    sol, _ = medium_solution
    flipped = GridFunction(sol.u.grid, -sol.u.dense())
    # the negated fixed point violates the integrated inequality somewhere
    with pytest.raises(NotSubactionError):
        check_integrated_subaction(flipped, model, phi, sol.phi_bar,
                                   slack=0.05, n_orbits=256, horizon=4.0)


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
    return weak_kam_solve(kern, 1e-8)


def test_regularize_all_bitwise_matches_whole_table_pass(
        observable, fixed_point, cover, monkeypatch):
    sol = fixed_point
    cert = regularize_all(sol.u, cover, observable, sol.phi_bar,
                          precheck=False)
    monkeypatch.setattr(regularize_mod, "_smooth_box", _oracle_smooth_box)
    want = regularize_all(sol.u, cover, observable, sol.phi_bar,
                          precheck=False)
    assert cert.u.values.tobytes() == want.u.values.tobytes()
    assert cert.u.offset == want.u.offset
    assert np.array_equal(cert.region_mask, want.region_mask)
    assert cert.margin == want.margin and cert.slack == want.slack
    # only the columns around nodes with alpha > 0: 9 x 9 of 13 x 13
    assert cert.report["table_columns"] == len(cover) * 13 ** 2
    assert 0 < cert.report["table_columns_priced"] \
        < cert.report["table_columns"] / 2


def test_box_without_live_nodes_prices_no_column(model, cobound,
                                                 medium_solution, cover):
    phi, _ = cobound
    sol, _ = medium_solution
    nodes = sol.u.grid.node_points().reshape(-1, 3)
    specs = cover[:64]
    level = _Level(specs, nodes)
    k = 9
    t, uu, inside = level.window(specs[k])
    # keep only the window nodes where alpha = 0
    inside = inside & (np.abs(uu).max(axis=-1) >= 2 * specs[k].eps)
    assert inside.any()
    window = (t, uu, inside)
    got, n_cols = _smooth_box(sol.u, specs[k], level, k, window, phi,
                              sol.phi_bar)
    want, _ = _oracle_smooth_box(sol.u, specs[k], level, k, window, phi,
                                 sol.phi_bar)
    assert n_cols == 0
    assert got.values.tobytes() == want.values.tobytes()
    # the pass still rewrites those nodes as (1 - 0) u + 0 * w
    assert np.array_equal(got.values.reshape(-1)[~inside],
                          sol.u.values.reshape(-1)[~inside])
