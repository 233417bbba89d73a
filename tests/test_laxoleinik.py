import numpy as np
import pytest

from weakkam import (ActionKernel, DriftError, Grid, GridFunction,
                     NonConvergenceError, build_kernel,
                     constant_observable, cross_validated_ergodic_value,
                     distance_squared_observable, ergodic_value,
                     verify_apriori, verify_integrated_subaction,
                     weak_kam_solve)
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


def test_stage_a_saturation_is_reported(small_kernel):
    # on this kernel Stage A stalls after 71 sweeps; a cap of 60 stops it
    # first, and Stage B still converges from there
    capped = weak_kam_solve(small_kernel, 1e-8, max_iters=60)
    assert capped.stage_a_sweeps == 60
    assert capped.stage_a_saturated is False
    full = weak_kam_solve(small_kernel, 1e-8)
    assert full.stage_a_saturated is True
    assert 60 < full.stage_a_sweeps < 3000


def test_weak_kam_drift_error_without_refinement(model, small_grid):
    phi = constant_observable(-2.5)
    kern = build_kernel(small_grid, model, phi, 3.0, 0.0,
                        small_grid.spacings[2], 2.0)
    with pytest.raises(DriftError):
        weak_kam_solve(kern, 1e-10, max_iters=60, refine_eigenvalue=False)


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
