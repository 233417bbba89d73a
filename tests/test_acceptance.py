"""End-to-end acceptance gate: ten numbered criteria, one pass/fail line each.

Criteria run at desk scale on the default suspension model; the heavy
fixtures (full-pipeline solves) are shared across criteria.
"""

import itertools

import numpy as np
import pytest

from weakkam import (Grid, GridFunction, build_kernel, check_factorization,
                     compute_constants, constant_observable,
                     distance_squared_observable, estimate_k_gamma,
                     factor_pseudo_orbit, generate_paths,
                     livsic_lower_bound_scan, make_observable,
                     pseudo_orbit_suite, regularize_all, verify_apriori,
                     verify_subaction, weak_kam_solve, weighted_action)
from weakkam.charts import FlowBox
from weakkam.kernel import ActionKernel
from weakkam.laxoleinik import _aubry_seeds, ergodic_value
from weakkam.regularize import default_cover

from test_laxoleinik import _minplus_value, _stage_a


def _report(num, ok, msg):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {msg}")
    assert ok, f"criterion {num}: {msg}"


@pytest.fixture(scope="module")
def acc_grid(model):
    return Grid((32, 32, 16), (1.0, 1.0, model.roof), model.base_matrix)


@pytest.fixture(scope="module")
def cover(model):
    return default_cover(model)


@pytest.fixture(scope="module")
def sol_cob(model, cobound, acc_grid):
    phi, _ = cobound
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(acc_grid, model, phi, c, 0.0, acc_grid.spacings[2])
    return weak_kam_solve(kern), kern


@pytest.fixture(scope="module")
def cert_cob(model, cobound, sol_cob, cover):
    phi, _ = cobound
    sol, _ = sol_cob
    return regularize_all(sol.u, cover, phi, sol.phi_bar, precheck=False)


@pytest.fixture(scope="module")
def sol_dist2(model, acc_grid):
    phi = distance_squared_observable(model)
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(acc_grid, model, phi, c, 0.0, acc_grid.spacings[2])
    return phi, weak_kam_solve(kern), kern


def test_criterion_01_coboundary_roundtrip(model, cobound, acc_grid, sol_cob,
                                           cert_cob):
    phi, pot = cobound
    sol, kern = sol_cob
    phi_bar_ok = abs(sol.phi_bar) <= 1e-3
    u0 = GridFunction(acc_grid, pot(acc_grid.node_points()))
    diff = sol.u.values - u0.values
    dev = float(np.abs(diff - diff.mean()).max())
    bound = 5.0 * acc_grid.diagonal * pot.lipschitz_estimate()
    margin_ok = cert_cob.margin >= -cert_cob.slack
    ok = phi_bar_ok and dev <= bound and margin_ok
    _report(1, ok, f"|phi_bar|={abs(sol.phi_bar):.2e}<=1e-3, "
            f"coboundary deviation {dev:.3f}<={bound:.3f}, "
            f"certificate margin {cert_cob.margin:.3f}>=-{cert_cob.slack:.3f}")


def _minplus_laws(kernel, n_trials=100):
    """Monotonicity and inf-commutation, bitwise, and additive equivariance
    within ``ActionKernel.equivariance_bound``, on random inputs: whether
    each law held on every trial."""
    rng = np.random.default_rng(0)
    grid = kernel.grid
    mono = equiv = inf_comm = True
    for _ in range(n_trials):
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        v = GridFunction(grid, u.values + np.abs(rng.standard_normal(grid.shape)))
        cshift = float(rng.standard_normal())
        tu, tv = kernel.apply(u), kernel.apply(v)
        mono &= bool(np.all(tu.values <= tv.values))
        tc = kernel.apply(GridFunction(grid, u.values + cshift))
        equiv &= bool(np.abs(tc.values - (tu.values + cshift)).max()
                      <= kernel.equivariance_bound(u, cshift))
        tm = kernel.apply(GridFunction(grid, np.minimum(u.values, v.values)))
        inf_comm &= np.array_equal(tm.values, np.minimum(tu.values, tv.values))
    return mono, equiv, inf_comm


def test_criterion_02_minplus_laws_exact(small_kernel):
    mono, equiv, inf_comm = _minplus_laws(small_kernel)
    _report(2, mono and equiv and inf_comm,
            f"monotone {mono} / inf-commuting {inf_comm} with zero tolerance, "
            f"additive-equivariant {equiv} within the rounding bound, "
            "100 random inputs")


def test_criterion_02_fails_on_a_fold_that_is_not_equivariant(small_kernel,
                                                              monkeypatch):
    """A fold scaled by 1 + 2**-30 stays monotone and inf-commuting, but
    T(u + c) moves by c * 2**-30 from T u + c, far above the bound."""
    fold = ActionKernel._fold_all

    def scaled(self, B, sweep):
        return fold(self, B, sweep) * (1.0 + 2.0 ** -30)

    monkeypatch.setattr(ActionKernel, "_fold_all", scaled)
    assert _minplus_laws(small_kernel) == (True, False, True)


def test_criterion_03_semigroup_consistency(model, cobound):
    phi, _ = cobound
    grid = Grid((12, 12, 256), (1.0, 1.0, model.roof), model.base_matrix)
    p = grid.node_points()
    u = GridFunction(grid, 0.3 * np.sin(2 * np.pi * p[..., 0])
                     + 0.2 * np.cos(2 * np.pi * (p[..., 0] + p[..., 1]))
                     + 0.1 * np.sin(2 * np.pi * p[..., 2]))
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    defects = []
    for h in (1 / 32, 1 / 64, 1 / 128, 1 / 256):
        k_h = build_kernel(grid, model, phi, c, 0.0, h)
        k_2h = build_kernel(grid, model, phi, c, 0.0, 2 * h)
        twice, once = k_h.apply(k_h.apply(u)), k_2h.apply(u)
        defects.append(float(np.abs(twice.values - once.values).max()))
    ratios = [defects[i] / defects[i + 1] for i in range(3)]
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    _report(3, ok, "defect ratios across three halvings: "
            + ", ".join(f"{r:.2f}" for r in ratios) + " all in [3, 5]")


def test_criterion_04_weak_kam_fixed_point(cobound, sol_cob, acc_grid):
    phi, _ = cobound
    sol, kern = sol_cob
    scale = max(1.0, phi.sup_bound)
    res_ok = sol.residual <= 1e-6 * scale
    # the least fixed point above Stage A's w*: w* on the seed nodes and
    # above it everywhere, within rounding
    w_star = _stage_a(kern.with_phi_bar(sol.phi_bar))[0].values
    g, bias, _ = kern.solve_additive_eigenvalue()
    seeds = _aubry_seeds(kern, bias, float(g.min()))
    ulp = 4 * np.spacing(max(1.0, np.abs(w_star).max()))
    gap = sol.u.values - w_star
    seed_gap, below = float(np.abs(gap[seeds]).max()), float(-gap.min())
    least_ok = seed_gap <= ulp and below <= ulp
    lip_ok = sol.lipschitz <= kern.c * (1.0 + acc_grid.diagonal)
    ok = res_ok and least_ok and lip_ok
    _report(4, ok, f"residual {sol.residual:.2e}<={1e-6 * scale:.1e}, "
            f"|u - w*| on {int(seeds.sum())} seed nodes {seed_gap:.1e} and "
            f"w* - u {below:.1e}, both <={ulp:.1e}, "
            f"Lip(u)={sol.lipschitz:.2f}<={kern.c * (1 + acc_grid.diagonal):.2f}")


def test_criterion_05_apriori_estimates(model, cobound, acc_grid):
    phi, _ = cobound
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    h = acc_grid.spacings[2]
    rep = verify_apriori(model, phi, c, 5 * h, 500, grid=acc_grid, h=h,
                         seed=0)
    ok = rep["passed"] and rep["n_checked"] == 500
    _report(5, ok, f"500 tuples, zero violations, worst margins "
            + ", ".join(f"{k}={v:.3f}" for k, v in
                        sorted(rep["worst_margins"].items())))


def test_criterion_06_shadowing_bound(atlas):
    results = pseudo_orbit_suite(atlas, 1000, seed=0)
    worst_res = max(r["max_residual"] for r in results)
    ok = all(r["passed"] for r in results) and worst_res <= 1e-10
    lens = [r["length"] for r in results]
    _report(6, ok, f"1000 pseudo-orbits (lengths {min(lens)}-{max(lens)}) "
            f"all within K_Gamma bound, worst Newton residual "
            f"{worst_res:.1e}<=1e-10")


def test_criterion_07_livsic_scan(model, atlas, cobound):
    phi, _ = cobound
    h = atlas.hyper
    consts = compute_constants(
        atlas, phi, estimate_k_gamma(h.sigma_u, h.sigma_s, h.eta))
    rep = livsic_lower_bound_scan(atlas, phi, consts, n_paths=10000, seed=0)
    # periodic pseudo-orbit subfamily against the tighter closed-path floor
    periodic_floor = (-2.0 * atlas.eps * phi.lipschitz_constant
                      * consts.diam_omega)
    worst_per = min(weighted_action(p, phi, consts.c4, 0.0)
                    for p in generate_paths(atlas, "periodic_splice", 200,
                                            seed=1))
    ok = rep["passed"] and worst_per >= periodic_floor
    _report(7, ok, f"10^4 paths: min action {rep['min_action']:.2f} >= floor "
            f"{rep['floor']:.2f}; periodic subfamily min {worst_per:.2f} >= "
            f"{periodic_floor:.2f}")


def test_criterion_08_regularizer_certification(model, sol_dist2, cover):
    phi, sol, kern = sol_dist2
    cert = regularize_all(sol.u, cover, phi, sol.phi_bar, precheck=False)
    node_ok = cert.margin >= -cert.slack
    rep = verify_subaction(cert, phi, sol.phi_bar, 10000, model)
    # exact locality: nodes outside every smoothing window are untouched
    nodes = kern.grid.node_points().reshape(-1, 3)
    touched = np.zeros(nodes.shape[0], dtype=bool)
    for center in cover.centers:
        t = cover._chart_time(nodes, center[2])
        touched |= cover.in_window(t, FlowBox(model, center).section_u(
            model.flow_map(nodes, -t)))
    outside = ~touched.reshape(kern.grid.shape)
    local_ok = (not outside.any()) or np.array_equal(
        cert.u.values[outside], sol.u.values[outside])
    lie_ok = bool(np.isfinite(cert.lip_lie))
    ok = node_ok and rep["passed"] and local_ok and lie_ok
    _report(8, ok, f"node margin {cert.margin:.3f}>=-{cert.slack:.3f}, "
            f"10^4 off-grid samples pass, locality exact, "
            f"Lip(lie)={cert.lip_lie:.2f} finite")


def test_criterion_09_ergodic_cross_validation(model, medium_grid):
    families = [constant_observable(1.7),
                make_observable(model, "coboundary"),
                distance_squared_observable(model)]
    msgs, ok = [], True
    for phi in families:
        scale = max(1.0, phi.sup_bound)
        v_orb, _ = ergodic_value(model, phi, "periodic_orbits", max_period=4)
        v_drift = _minplus_value(model, phi, medium_grid)
        gap = abs(v_orb - v_drift)
        ok &= gap <= 1e-2 * scale
        msgs.append(f"{phi.name}: gap {gap:.2e}<={1e-2 * scale:.1e}")
    _report(9, ok, "; ".join(msgs))


def _oracle_factorization(xs):
    N = len(xs) - 1

    def extend(ik):
        if ik >= N:
            return []
        occ = [i for i in range(ik + 1, N + 1) if xs[i] == xs[ik]]
        if not occ:
            return [ik + 1] + extend(ik + 1)
        j = occ[-1]
        nxt = j + 1 if j < N else N
        return [nxt] + ([] if nxt >= N else extend(nxt))

    return [0] + extend(0)


def test_criterion_10_factorization_exhaustive():
    checked, ok = 0, True
    for n in range(2, 9):
        for xs in itertools.product("abcd", repeat=n):
            if any(a == b for a, b in zip(xs, xs[1:])):
                continue
            seq = list(xs)
            idx = factor_pseudo_orbit(seq)
            ok &= idx == _oracle_factorization(seq)
            ok &= check_factorization(seq, idx)["passed"]
            checked += 1
    _report(10, ok, f"all {checked} cutting-point sequences (length<=8, "
            "alphabet<=4) match the exhaustive oracle")
