import numpy as np
import pytest

from weakkam import (ActionKernel, DriftError, Grid, GridFunction,
                     NonConvergenceError, build_kernel,
                     constant_observable, cross_validated_ergodic_value,
                     distance_squared_observable, ergodic_value,
                     verify_apriori, verify_integrated_subaction,
                     weak_kam_solve)
from weakkam.cli import _build_common
from weakkam.config import load_config
from weakkam.kernel import discretization
from weakkam.laxoleinik import action_fields


def test_weak_kam_solve_rejects_unconverged_howard(small_kernel,
                                                  monkeypatch):
    solve = ActionKernel.solve_additive_eigenvalue

    def stalled(self, *args, **kwargs):
        g, bias, info = solve(self, *args, **kwargs)
        return g, bias, dict(info, converged=False)

    monkeypatch.setattr(ActionKernel, "solve_additive_eigenvalue", stalled)
    with pytest.raises(NonConvergenceError):
        weak_kam_solve(small_kernel, 1e-8)


def test_ergodic_value_rejects_unconverged_howard(model, small_grid,
                                                 monkeypatch):
    solve = ActionKernel.solve_additive_eigenvalue

    def stalled(self, *args, **kwargs):
        g, bias, info = solve(self, *args, **kwargs)
        return g, bias, dict(info, converged=False)

    monkeypatch.setattr(ActionKernel, "solve_additive_eigenvalue", stalled)
    with pytest.raises(NonConvergenceError):
        ergodic_value(model, constant_observable(2.5), "minplus_drift",
                      grid=small_grid, h=small_grid.spacings[2], c=3.0)


@pytest.mark.xfail(strict=True, raises=NonConvergenceError,
                   reason="Howard cycles when dist2 is centred at a periodic "
                          "point (ROADMAP item 4)")
def test_howard_converges_on_dist2_centred_at_a_periodic_point(model,
                                                               small_grid):
    # (0.5, 0.5) has period 3 under A; the solve's own kernel settings
    phi = distance_squared_observable(model, (0.5, 0.5))
    grid, h = discretization(model, small_grid)
    sol = weak_kam_solve(build_kernel(grid, model, phi, 4.0, 0.0, h, 2.0),
                         1e-8)
    assert abs(sol.phi_bar) <= 1e-12


def test_ergodic_value_constant_orbits(model):
    phi = constant_observable(2.5)
    v, rep = ergodic_value(model, phi, "periodic_orbits", max_period=3)
    assert abs(v - 2.5) < 1e-10
    assert rep["n_orbits"] == 8  # 1 + 2 + 5 minimal orbits


def test_ergodic_value_constant_drift(model, small_grid):
    phi = constant_observable(2.5)
    v, rep = ergodic_value(model, phi, "minplus_drift", grid=small_grid,
                           h=small_grid.spacings[2], c=3.0)
    assert abs(v - 2.5) < 1e-12
    assert rep["howard"]["converged"]


def test_ergodic_value_coboundary_estimators_agree(model, cobound, small_grid):
    phi, _ = cobound
    v_orb, _ = ergodic_value(model, phi, "periodic_orbits", max_period=4,
                             quadrature_step=0.002)
    v_drift, _ = ergodic_value(model, phi, "minplus_drift", grid=small_grid,
                               h=small_grid.spacings[2])
    assert abs(v_orb) < 1e-3  # orbit averages of a flow derivative vanish
    assert abs(v_orb - v_drift) < 0.05  # coarse-grid discretization budget


def test_ergodic_value_dist2_cross_validated(model, small_grid):
    # the fiber orbit through the distinguished base point is a grid orbit,
    # so both estimators find the exact minimizing value 0
    phi = distance_squared_observable(model)
    v, rep = cross_validated_ergodic_value(model, phi, 1e-6, grid=small_grid,
                                           h=small_grid.spacings[2])
    assert abs(v) < 1e-10
    assert rep["gap"] < 1e-10


def test_ergodic_value_unknown_method(model, cobound):
    phi, _ = cobound
    with pytest.raises(ValueError):
        ergodic_value(model, phi, "magic")


def test_weak_kam_constant_observable(model, small_grid):
    phi = constant_observable(1.3)
    kern = build_kernel(small_grid, model, phi, 3.0, 0.0,
                        small_grid.spacings[2], 2.0)
    sol = weak_kam_solve(kern, 1e-10)
    # after eigenvalue refinement the flow-following move is free, so the
    # zero function is an exact fixed point
    assert abs(sol.eigenvalue_refinement - 1.3) < 1e-13
    assert sol.residual < 1e-12
    assert float(np.ptp(sol.u.dense())) < 1e-12


def test_weak_kam_solution_properties(medium_solution):
    sol, kern = medium_solution
    assert sol.residual < 1e-8
    # fixed point up to tolerance, and never decreased by the operator
    tu = kern.with_phi_bar(sol.phi_bar).apply(sol.u)
    delta = tu.dense() - sol.u.dense()
    assert delta.min() > -1e-8
    assert abs(delta).max() < 1e-7
    # a-priori Lipschitz bound: the fixed point is C-Lipschitz
    assert sol.lipschitz <= kern.c + 1e-9
    assert sol.stage_a_sweeps >= 1


# Stage A as it stopped before the fixed-sweep rule: the min of the
# push-forwards of 0 over at least three sampled diameters of travel time, and
# on until no node had improved for a tuned window of sweeps.


def _stall_window_stage_a(kernel, max_iters=3000):
    """The old Stage A's v and the first sweep of its final stalled run."""
    diam = kernel.model.diameter()
    n_a = max(1, int(np.ceil(3.0 * diam /
                             (kernel.model.sup_norm_bound * kernel.h))))
    stall_window = max(12, kernel.grid.shape[2] // kernel.flow_steps + 2)
    v, first_stall = None, None
    cur = GridFunction.zeros(kernel.grid)
    stall = sweeps = 0
    while sweeps < n_a or (stall < stall_window and sweeps < max_iters):
        cur = kernel.apply(cur)
        sweeps += 1
        if v is None:
            v = cur.copy()
            continue
        new_v = v.minimum(cur)
        stall = stall + 1 if np.array_equal(new_v.values, v.values) else 0
        if stall == 1:
            first_stall = sweeps
        v = new_v
    assert stall >= stall_window  # the oracle itself saturated
    return v, first_stall


def _cli_kernel(family):
    """The kernel that ``weakkam --grid 16 16 10 --observable FAMILY solve``
    builds."""
    cfg = load_config(None, {"grid_shape": (16, 16, 10), "family": family})
    model, phi, grid, h = _build_common(cfg)
    return build_kernel(grid, model, phi, cfg.c, 0.0, h, cfg.reach_multiplier)


def _recorder(monkeypatch, method):
    """Every call of the ActionKernel method as (kernel, field), in order."""
    calls = []
    sweep = getattr(ActionKernel, method)

    def recorded(self, u):
        calls.append((self, u))
        return sweep(self, u)

    monkeypatch.setattr(ActionKernel, method, recorded)
    return calls


@pytest.fixture
def applies(monkeypatch):
    return _recorder(monkeypatch, "apply")


@pytest.fixture
def relaxes(monkeypatch):
    return _recorder(monkeypatch, "relax")


@pytest.mark.parametrize("which", ["small", "coboundary", "dist2"])
def test_stage_a_stops_at_its_first_fixed_sweep(small_kernel, relaxes,
                                                which):
    kern = small_kernel if which == "small" else _cli_kernel(which)
    sol = weak_kam_solve(kern, 1e-8)
    # Stage B's first sweep is relaxed from Stage A's v, on the refined kernel
    refined, v = relaxes[0]
    assert refined.phi_bar == sol.phi_bar
    oracle_v, first_stall = _stall_window_stage_a(refined)
    assert np.array_equal(v.values, oracle_v.values) and v.offset == 0.0
    assert sol.stage_a_sweeps == first_stall
    assert np.all(refined.apply(v).values >= v.values)
    assert all(lo >= 0.0 for lo, _ in sol.iteration_log)


def test_solve_applies_the_kernel_once_per_sweep(small_kernel, applies,
                                                 relaxes):
    # Stage A applies the kernel once per sweep and Stage B relaxes it once
    # per sweep; Howard does neither
    sol = weak_kam_solve(small_kernel, 1e-8)
    assert len(applies) == sol.stage_a_sweeps
    assert len(relaxes) == len(sol.iteration_log)


# Stage B as it iterated before Gauss-Seidel sweeps: Jacobi sweeps u <- T u
# from Stage A's v until the sup-change dropped below tol.


def _jacobi_stage_b(kernel, v, tol, max_iters=3000):
    """The Jacobi Stage B's u and its last sup-change."""
    u = v
    for _ in range(max_iters):
        u1 = kernel.apply(u)
        residual = float(np.abs(u1.dense() - u.dense()).max())
        u = u1
        if residual < tol:
            return u, residual
    raise AssertionError("the Jacobi oracle did not converge")


def _dist2_kernel(model, grid):
    """dist2 at the acceptance settings: h the s-spacing, c = 4 max(1, Lip)."""
    phi = distance_squared_observable(model)
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    return build_kernel(grid, model, phi, c, 0.0, grid.spacings[2], 2.0)


@pytest.mark.parametrize("which", ["small", "cli"])
def test_stage_b_matches_jacobi_oracle_on_dist2(model, small_grid, relaxes,
                                                which):
    kern = (_dist2_kernel(model, small_grid) if which == "small"
            else _cli_kernel("dist2"))
    sol = weak_kam_solve(kern, 1e-8)
    refined, v = relaxes[0]
    u, residual = _jacobi_stage_b(refined, v, 1e-8)
    # both orders reach the same fixed point exactly, Gauss-Seidel in
    # fewer sweeps
    assert sol.u.values.tobytes() == u.values.tobytes()
    assert sol.residual == residual == 0.0
    assert len(sol.iteration_log) <= 12
    assert all(lo >= 0.0 for lo, _ in sol.iteration_log)


@pytest.mark.parametrize("which", ["small", "cli"])
def test_stage_b_agrees_with_jacobi_oracle_on_the_coboundary(small_kernel,
                                                             relaxes, which):
    kern = small_kernel if which == "small" else _cli_kernel("coboundary")
    tol = 1e-8
    sol = weak_kam_solve(kern, tol)
    refined, v = relaxes[0]
    u, residual = _jacobi_stage_b(refined, v, tol)
    # Stage A's w* is fixed up to rounding, so each order stops after one
    # sweep and the two differ by at most that sweep's change
    assert len(sol.iteration_log) == 1
    assert max(sol.residual, residual) < 1e-15
    gap = float(np.abs(sol.u.dense() - u.dense()).max())
    assert gap <= max(sol.residual, residual)
    tu = refined.apply(sol.u)
    assert (tu.dense() - sol.u.dense()).min() >= -tol


@pytest.mark.parametrize("cap", [1, 59])
def test_stage_a_cap_before_its_fixed_sweep_raises(small_kernel, cap):
    # on this kernel Stage A's first fixed sweep is sweep 60
    assert weak_kam_solve(small_kernel, 1e-8,
                          max_iters=60).stage_a_sweeps == 60
    with pytest.raises(DriftError) as err:
        weak_kam_solve(small_kernel, 1e-8, max_iters=cap)
    assert err.value.drift < 0.0


def test_weak_kam_drift_error_on_overestimated_gain(model, small_grid,
                                                    monkeypatch):
    solve = ActionKernel.solve_additive_eigenvalue

    def too_high(self, *args, **kwargs):
        g, bias, info = solve(self, *args, **kwargs)
        return g + 0.5 * self.h, bias, info

    monkeypatch.setattr(ActionKernel, "solve_additive_eigenvalue", too_high)
    phi = constant_observable(-2.5)
    kern = build_kernel(small_grid, model, phi, 3.0, 0.0,
                        small_grid.spacings[2], 2.0)
    # a reference value 0.5 above the ergodic value lowers every node by
    # 0.5 per unit time, so Stage A never stops
    with pytest.raises(DriftError) as err:
        weak_kam_solve(kern, 1e-10, max_iters=60)
    assert err.value.drift == pytest.approx(-0.5, rel=1e-9)


def test_verify_apriori_small(model, cobound, small_grid):
    phi, _ = cobound
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    rep = verify_apriori(model, phi, c, 1.0, 100, grid=small_grid,
                         h=small_grid.spacings[2], n_sources=4, seed=1)
    assert rep["passed"], rep["worst_margins"]
    assert rep["n_checked"] == 100


def test_verify_integrated_subaction_pass(model, cobound, medium_solution):
    phi, _ = cobound
    sol, _ = medium_solution
    rep = verify_integrated_subaction(sol.u, model, phi, sol.phi_bar, 64, 4.0)
    assert rep["passed"], rep["violations"][:2]


def test_verify_integrated_subaction_detects_violation(model, cobound,
                                                       medium_solution):
    phi, _ = cobound
    sol, kern = medium_solution
    # adding a term increasing along the flow makes u(f^t x) - u(x) exceed
    # the observable integral on every orbit segment that avoids the roof
    nodes = kern.grid.node_points()
    bad = GridFunction(kern.grid, sol.u.dense() + 2.0 * nodes[..., 2])
    rep = verify_integrated_subaction(bad, model, phi, sol.phi_bar, 64, 4.0,
                                      seed=3, slack=0.1)
    assert not rep["passed"]


# One field at a time: the fields of ``action_fields`` as they were computed
# before they were stacked.


def _oracle_action_field_from(kernel, source_index, n_steps):
    vals = np.full(kernel.grid.shape, np.inf)
    vals[tuple(source_index)] = 0.0
    u = GridFunction(kernel.grid, vals)
    for _ in range(n_steps):
        u = kernel.apply(u)
    return u.values


def _oracle_action_field_to(kernel, target_index, n_steps):
    vals = np.full(kernel.grid.shape, np.inf)
    vals[tuple(target_index)] = 0.0
    w = GridFunction(kernel.grid, vals)
    for _ in range(n_steps):
        w = kernel.apply_reverse(w)
    return w.values


@pytest.mark.parametrize("shape", [(8, 8, 10), (16, 16, 10)])
def test_action_fields_stack_matches_one_field_at_a_time(model, cobound,
                                                          shape):
    phi, _ = cobound
    grid = Grid(shape, (1.0, 1.0, model.roof), model.base_matrix)
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(grid, model, phi, c, 0.0, grid.spacings[2], 3.0)
    rng = np.random.default_rng(5)
    nodes = [tuple(int(rng.integers(0, n)) for n in shape) for _ in range(5)]
    nodes.append(nodes[0])  # a repeated node is its own field
    for reverse, oracle in ((False, _oracle_action_field_from),
                            (True, _oracle_action_field_to)):
        stack = action_fields(kern, nodes, 3, reverse=reverse)
        assert stack.shape == shape + (len(nodes),)
        for i, p in enumerate(nodes):
            assert np.array_equal(stack[..., i], oracle(kern, p, 3))


def test_kernel_sweeps_reject_misshapen_stacks(small_kernel):
    with pytest.raises(ValueError):
        small_kernel.apply(np.zeros(small_kernel.grid.shape))
    with pytest.raises(ValueError):
        small_kernel.apply_reverse(np.zeros((4, 4, 4, 2)))
