import numpy as np
import pytest

from weakkam import (BumpPair, CoverGapError, GridFunction, NotSubactionError,
                     RegularizerSpec, default_cover, regularize_all,
                     regularize_once, verify_subaction)
from weakkam.charts import FlowBox
from weakkam.regularize import check_integrated_subaction


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


def test_regularize_all_charts_each_box_once(model, cobound, medium_solution,
                                             cover, monkeypatch):
    phi, _ = cobound
    sol, _ = medium_solution
    calls = []
    chart_window = RegularizerSpec.chart_window

    def counted(spec, points):
        calls.append(spec.index)
        return chart_window(spec, points)

    monkeypatch.setattr(RegularizerSpec, "chart_window", counted)
    with pytest.raises(CoverGapError):
        regularize_all(sol.u, cover[:10], phi, sol.phi_bar, precheck=False)
    assert sorted(calls) == sorted(s.index for s in cover[:10])


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
