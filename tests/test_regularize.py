import itertools

import numpy as np
import pytest

from weakkam import (BumpPair, CoverGapError, GridFunction, NotSubactionError,
                     RegularizerSpec, SuspensionFlow, default_cover,
                     lie_derivative_field, regularize_all, regularize_once,
                     verify_subaction)
from weakkam.charts import FlowBox
from weakkam.regularize import (_interp_table, _Level, _level_key,
                                check_integrated_subaction)


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
    for specs in levels:
        level = _Level(specs, nodes)
        T, Q1, Q2 = np.meshgrid(level.t_nodes, level.q_nodes, level.q_nodes,
                                indexing="ij")
        U = np.stack([Q1, Q2], axis=-1)
        for k, spec in enumerate(specs):
            # the translated table: equal s, base equal up to the last bits
            got = level.chart_points(k)
            want = spec.box.chart_forward(T, U)
            db = got[..., :2] - want[..., :2]
            assert np.abs(db - np.round(db)).max() <= 1e-15
            assert np.array_equal(got[..., 2], want[..., 2])
            # the node window is bitwise the box's own
            for a, b in zip(level.window(spec), spec.chart_window(nodes)):
                assert np.array_equal(a, b)


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
