import numpy as np
import pytest

from weakkam import (ActionKernel, Grid, GridFunction, NonConvergenceError,
                     Observable, build_kernel, constant_observable,
                     distance_squared_observable, ergodic_value,
                     verify_apriori, verify_integrated_subaction,
                     weak_kam_solve)
from weakkam.cli import _build_common
from weakkam.config import load_config
from weakkam import laxoleinik
from weakkam.kernel import discretization
from weakkam.laxoleinik import _action_at


def test_weak_kam_solve_rejects_unconverged_howard(small_kernel,
                                                  monkeypatch):
    solve = ActionKernel.solve_additive_eigenvalue

    def stalled(self, *args, **kwargs):
        g, bias, info = solve(self, *args, **kwargs)
        return g, bias, dict(info, converged=False)

    monkeypatch.setattr(ActionKernel, "solve_additive_eigenvalue", stalled)
    with pytest.raises(NonConvergenceError):
        weak_kam_solve(small_kernel)


def test_howard_converges_on_dist2_centred_at_a_periodic_point(model,
                                                               small_grid):
    # (0.5, 0.5) has period 3 under A; the solve's own kernel settings.
    # Howard cycled here while each policy's bias was reset to 0 on its
    # cycles.  dist2 vanishes at one point of the orbit only, so phi_bar > 0,
    # and four policy cycles tie for the minimum gain.
    phi = distance_squared_observable(model, (0.5, 0.5))
    grid, h = discretization(model, small_grid)
    sol = weak_kam_solve(build_kernel(grid, model, phi, 4.0, 0.0, h, 2.0))
    assert sol.howard["converged"] and sol.howard["iterations"] == 14
    assert sol.residual < 1e-8 and sol.phi_bar > 0.0
    assert sol.aubry["n_cycles"] == 4


@pytest.mark.parametrize("below", [0, 1])
def test_howard_cap_counts_evaluations_across_the_widening(monkeypatch,
                                                           below):
    """The cap bounds the policy evaluations on both stencils together:
    capped at the evaluation whose short-stencil pass widened the stencil,
    or one before, Howard stops there unconverged, and the solve raises."""
    kern = _cli_kernel("dist2", (8, 8, 10))
    _, _, full = kern.solve_additive_eigenvalue()
    short = full["short_iterations"]
    assert full["converged"] and short < full["iterations"]
    evaluate, evaluated = ActionKernel._policy_eval, []

    def counted(succ, cost, v_prev):
        evaluated.append(succ)
        return evaluate(succ, cost, v_prev)

    monkeypatch.setattr(ActionKernel, "_policy_eval", staticmethod(counted))
    monkeypatch.setattr("weakkam.kernel._HOWARD_MAX_ITERS", short - below)
    _, _, info = kern.solve_additive_eigenvalue()
    assert not info["converged"]
    assert info["iterations"] == len(evaluated) == short - below
    # capped at the widening evaluation, its widened pass is one more pass
    assert len(info["offsets_folded"]) == info["iterations"] + (below == 0)
    assert info["offsets_folded"][:short - below] \
        == full["offsets_folded"][:short - below]
    with pytest.raises(NonConvergenceError):
        weak_kam_solve(kern)


def test_ergodic_value_constant_orbits(model):
    phi = constant_observable(2.5)
    v, rep = ergodic_value(model, phi, "periodic_orbits", max_period=3)
    assert abs(v - 2.5) < 1e-10
    assert rep["n_orbits"] == 8  # 1 + 2 + 5 minimal orbits


def _minplus_value(model, phi, grid, c=None):
    """The min-plus estimate of the ergodic value, as ``weakkam solve``
    reports it: ``weak_kam_solve``'s phi_bar on the kernel at reference
    value 0, with h the s-spacing and c = 4 max(1, Lip phi) by default."""
    if c is None:
        c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(grid, model, phi, c, 0.0, grid.spacings[2])
    return weak_kam_solve(kern).phi_bar


def test_ergodic_value_constant_drift(model, small_grid):
    phi = constant_observable(2.5)
    assert abs(_minplus_value(model, phi, small_grid, c=3.0) - 2.5) < 1e-12


def test_ergodic_value_coboundary_estimators_agree(model, cobound, small_grid):
    phi, _ = cobound
    v_orb, _ = ergodic_value(model, phi, "periodic_orbits", max_period=4,
                             quadrature_step=0.002)
    v_drift = _minplus_value(model, phi, small_grid)
    assert abs(v_orb) < 1e-3  # orbit averages of a flow derivative vanish
    assert abs(v_orb - v_drift) < 0.05  # coarse-grid discretization budget


def test_ergodic_value_dist2_cross_validated(model, small_grid):
    # the fiber orbit through the distinguished base point is a grid orbit,
    # so both estimators find the exact minimizing value 0
    phi = distance_squared_observable(model)
    v_orb, _ = ergodic_value(model, phi, "periodic_orbits")
    v = _minplus_value(model, phi, small_grid)
    assert abs(v) < 1e-10
    assert abs(v_orb - v) < 1e-10


def test_ergodic_value_unknown_method(model, cobound):
    phi, _ = cobound
    with pytest.raises(ValueError):
        ergodic_value(model, phi, "magic")
    with pytest.raises(ValueError, match="minplus_drift"):
        ergodic_value(model, phi, "minplus_drift")


def test_weak_kam_constant_observable(model, small_grid):
    phi = constant_observable(1.3)
    kern = build_kernel(small_grid, model, phi, 3.0, 0.0,
                        small_grid.spacings[2], 2.0)
    sol = weak_kam_solve(kern)
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


# The two stages the folds replaced, kept as the oracle.  Stage A: v = T 0,
# then v <- min(v, T v) until a sweep leaves v unchanged, which is w* = min
# over n >= 1 of T^n 0 bitwise.  Stage B: Jacobi sweeps u <- T u from w* until
# the sup-change drops below tol.


def _stage_a(kernel):
    """Stage A's w* and its sweep count, the last one fixed."""
    v = kernel.apply(GridFunction.zeros(kernel.grid))
    n_a = 1
    while True:
        w = v.minimum(kernel.apply(v))
        n_a += 1
        if np.array_equal(w.values, v.values):
            return v, n_a
        v = w


def _jacobi_stage_b(kernel, v, tol=1e-8, max_iters=3000):
    """The Jacobi Stage B's u and its last sup-change."""
    u = v
    for _ in range(max_iters):
        u1 = kernel.apply(u)
        residual = float(np.abs(u1.dense() - u.dense()).max())
        u = u1
        if residual < tol:
            return u, residual
    raise AssertionError("the Jacobi oracle did not converge")


def _oracle(kernel):
    """Stage A, then the Jacobi Stage B, on the refined kernel; the solution
    and the refined kernel."""
    sol = weak_kam_solve(kernel)
    refined = kernel.with_phi_bar(sol.phi_bar)
    u, _ = _jacobi_stage_b(refined, _stage_a(refined)[0])
    return sol, refined, u.dense()


def _ulps(a, b):
    """max |a - b| in units of the spacing of the floats at max(1, |b|)."""
    return float(np.abs(a - b).max()) / np.spacing(max(1.0, np.abs(b).max()))


def _cli_kernel(family, shape=(16, 16, 10)):
    """The kernel that ``weakkam --grid N1 N2 NS --observable FAMILY solve``
    builds."""
    cfg = load_config(None, {"grid_shape": shape, "family": family})
    model, phi, grid, h = _build_common(cfg)
    return build_kernel(grid, model, phi, cfg.c, 0.0, h, cfg.reach_multiplier)


@pytest.fixture
def applies(monkeypatch):
    """Every ``ActionKernel.apply`` call as (kernel, field, result)."""
    calls = []
    apply = ActionKernel.apply

    def recorded(self, u):
        out = apply(self, u)
        calls.append((self, u, out))
        return out

    monkeypatch.setattr(ActionKernel, "apply", recorded)
    return calls


@pytest.mark.parametrize("which", ["small", "coboundary", "dist2"])
def test_stage_a_stops_at_its_first_fixed_sweep(small_kernel, applies,
                                                which):
    # pass 1's w* = T z is Stage A's answer, to rounding: the oracle's
    # first fixed sweep
    kern = small_kernel if which == "small" else _cli_kernel(which)
    sol = weak_kam_solve(kern)
    refined, _, w_star = applies[0]
    assert refined.phi_bar == sol.phi_bar
    oracle_v, n_a = _stage_a(refined)
    assert n_a > 1 and oracle_v.offset == 0.0
    assert _ulps(w_star.dense(), oracle_v.dense()) <= 4
    # and pass 2 only raises it, to rounding
    assert _ulps(np.minimum(sol.u.dense(), w_star.dense()),
                 w_star.dense()) <= 4


def test_solve_applies_the_kernel_twice(small_kernel, applies):
    # once for w* = T z and once for the residual; Howard and the folds
    # apply it never
    sol = weak_kam_solve(small_kernel)
    assert len(applies) == 2
    (_, _, w_star), (refined, u, tu) = applies
    assert u is sol.u and refined.phi_bar == sol.phi_bar
    assert sol.residual == float(np.abs(tu.dense() - u.dense()).max())


def _dist2_kernel(model, grid):
    """dist2 at the acceptance settings: h the s-spacing, c = 4 max(1, Lip)."""
    phi = distance_squared_observable(model)
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    return build_kernel(grid, model, phi, c, 0.0, grid.spacings[2], 2.0)


@pytest.mark.parametrize("which", ["small", "cli", "cli32"])
def test_stage_b_matches_jacobi_oracle_on_dist2(model, small_grid, which):
    kern = {"small": lambda: _dist2_kernel(model, small_grid),
            "cli": lambda: _cli_kernel("dist2"),
            "cli32": lambda: _cli_kernel("dist2", (32, 32, 16))}[which]()
    sol, refined, u = _oracle(kern)
    # one class: the cap is the answer, and each fold takes one pass
    assert sol.stage_a_sweeps == sol.stage_b_sweeps == 1
    assert _ulps(sol.u.dense(), u) <= 4
    assert sol.residual < 1e-15


@pytest.mark.parametrize("which", ["small", "cli", "cli32"])
def test_stage_b_agrees_with_jacobi_oracle_on_the_coboundary(small_kernel,
                                                             which):
    kern = {"small": lambda: small_kernel,
            "cli": lambda: _cli_kernel("coboundary"),
            "cli32": lambda: _cli_kernel("coboundary", (32, 32, 16))}[which]()
    sol, refined, u = _oracle(kern)
    assert _ulps(sol.u.dense(), u) <= 4
    assert sol.residual < 1e-15
    tu = refined.apply(sol.u)
    assert (tu.dense() - sol.u.dense()).min() >= -1e-15


def test_critical_cycles_alone_do_not_seed_the_least_fixed_point(
        monkeypatch):
    # at 32x32x16 Howard's 59 critical cycles miss 192 nodes of the
    # saturated graph's core; seeded from the cycles, pass 2 ends at a fixed
    # point above the least one, which the residual cannot see
    kern = _cli_kernel("coboundary", (32, 32, 16))
    sol, refined, u = _oracle(kern)

    def cycles_only(kernel, bias, gain):
        seeds = np.zeros(kernel.grid.n_nodes, dtype=bool)
        seeds[np.concatenate(sol.howard["critical_cycles"])] = True
        return seeds.reshape(kernel.grid.shape)

    monkeypatch.setattr(laxoleinik, "_aubry_seeds", cycles_only)
    wrong = weak_kam_solve(kern)
    assert wrong.aubry["n_nodes"] < sol.aubry["n_nodes"] == kern.grid.n_nodes
    assert wrong.residual < 1e-15
    assert float(np.abs(wrong.u.dense() - u).max()) > 0.05


def _fibre(grid, i, j):
    """Flat nodes of the s-fibre over base node (i, j)."""
    return np.ravel_multi_index(
        (np.full(grid.shape[2], i), np.full(grid.shape[2], j),
         np.arange(grid.shape[2])), grid.shape)


@pytest.mark.parametrize("shape,n_nodes", [((16, 16, 10), 10),
                                           ((32, 32, 16), 16)])
def test_aubry_set_of_dist2_at_a_fixed_point(shape, n_nodes):
    # dist2 vanishes on the fibre over the fixed point (0, 0) only, and that
    # fibre is one flow orbit: the whole critical graph, one class
    cfg = load_config(None, {"grid_shape": shape, "family": "dist2"})
    model, phi, grid, h = _build_common(cfg)
    kern = build_kernel(grid, model, phi, cfg.c, 0.0, h, cfg.reach_multiplier)
    sol = weak_kam_solve(kern)
    assert sol.aubry == {"n_cycles": 1, "n_nodes": n_nodes,
                         "base_points": [[0.0, 0.0]]}
    (cycle,) = sol.howard["critical_cycles"]
    assert sorted(cycle) == _fibre(grid, 0, 0).tolist()
    assert sol.stage_b_sweeps == 1


# A period-3 orbit of A and dist2 to its nearest point: it vanishes exactly on
# the orbit, so phi_bar = 0 and the Aubry set is the orbit's three fibres.
_ORBIT = np.array([[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]])


def _orbit_dist2(p):
    d = np.asarray(p, dtype=float)[..., None, :2] - _ORBIT
    d -= np.round(d)
    return (d ** 2).sum(axis=-1).min(axis=-1)


def test_aubry_set_of_dist2_to_a_periodic_orbit(model, small_grid):
    phi = Observable(evaluate=_orbit_dist2, lipschitz_constant=np.sqrt(2.0),
                     sup_bound=0.5)
    grid, h = discretization(model, small_grid)
    sol = weak_kam_solve(build_kernel(grid, model, phi, 4.0, 0.0, h, 2.0))
    assert sol.phi_bar == 0.0
    assert sol.aubry == {"n_cycles": 1, "n_nodes": 30,
                         "base_points": [[0.0, 0.5], [0.5, 0.0], [0.5, 0.5]]}
    (cycle,) = sol.howard["critical_cycles"]
    fibres = np.concatenate([_fibre(grid, 4, 4), _fibre(grid, 4, 0),
                             _fibre(grid, 0, 4)])
    assert sorted(cycle) == sorted(fibres.tolist())
    assert sol.stage_b_sweeps == 1 and sol.residual < 1e-8


def test_coboundary_has_many_critical_cycles_and_runs_stage_b():
    # every orbit of a coboundary is minimizing: many cycles tie, every node
    # seeds pass 2, and rounding noise on w* - v takes it several passes
    sol = weak_kam_solve(_cli_kernel("coboundary"))
    assert sol.aubry["n_cycles"] > 1 and sol.aubry["n_nodes"] == 2560
    assert len(sol.aubry["base_points"]) == 8
    assert sol.stage_a_sweeps > 1 and sol.stage_b_sweeps > 1


def test_control_answers_at_48x48x24(model, cobound):
    # the ladder's third rung at its settings (h the s-spacing, c = 4
    # max(1, Lip)), where Stage A found no fixed sweep in 3,000
    phi, _ = cobound
    grid = Grid((48, 48, 24), (1.0, 1.0, model.roof), model.base_matrix)
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(grid, model, phi, c, 0.0, grid.spacings[2])
    sol = weak_kam_solve(kern)
    assert sol.residual < 1e-8
    assert sol.aubry["n_nodes"] == grid.n_nodes


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
    # 0.5 per unit time: the clamped folds still end, and T lowers their
    # answer by 0.5 h
    sol = weak_kam_solve(kern)
    assert sol.residual == pytest.approx(0.5 * kern.h, rel=1e-9)


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


def _action_fields(kernel, indices, n_steps, reverse=False):
    """A^{n h}(p, .) for each node index p, or A^{n h}(., q) for each q with
    ``reverse``: n sweeps of a stack of delta fields, shape grid.shape + (m,).
    The batch axis trails, so every window is still three slices and each
    field is folded bitwise as it would be alone.  ``verify_apriori`` swept
    these stacks whole before it computed only the entries it reads."""
    idx = np.asarray(indices).reshape(-1, 3)
    vals = np.full(kernel.grid.shape + (len(idx),), np.inf)
    vals[idx[:, 0], idx[:, 1], idx[:, 2], np.arange(len(idx))] = 0.0
    sweep = kernel.apply_reverse if reverse else kernel.apply
    for _ in range(n_steps):
        vals = sweep(vals)
    return vals


# One field at a time: the fields of ``_action_fields`` as they were computed
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
        stack = _action_fields(kern, nodes, 3, reverse=reverse)
        assert stack.shape == shape + (len(nodes),)
        for i, p in enumerate(nodes):
            assert np.array_equal(stack[..., i], oracle(kern, p, 3))


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5])
@pytest.mark.parametrize("shape", [(8, 8, 10), (16, 16, 10)])
def test_action_at_matches_action_fields_at_every_pair(model, cobound, shape,
                                                       n_steps):
    """The kernel row, the whole-stack sweeps between and the last sweep
    folded pair by pair give every entry of the whole-stack sweeps."""
    phi, _ = cobound
    grid = Grid(shape, (1.0, 1.0, model.roof), model.base_matrix)
    c = 4.0 * max(1.0, phi.lipschitz_constant)
    kern = build_kernel(grid, model, phi, c, 0.0, grid.spacings[2], 3.0)
    rng = np.random.default_rng(6)
    nodes = [tuple(int(rng.integers(0, n)) for n in shape) for _ in range(4)]
    nodes.append(nodes[1])  # a repeated node is its own field
    flat = np.ravel_multi_index(np.array(nodes).T, shape)
    m = len(nodes)
    at = np.repeat(np.arange(grid.n_nodes), m)
    fields = np.tile(np.arange(m), grid.n_nodes)
    for reverse in (False, True):
        want = _action_fields(kern, nodes, n_steps, reverse=reverse)
        got = _action_at(kern, flat, n_steps, at, fields, reverse=reverse)
        assert got.tobytes() == want.reshape(-1).tobytes(), reverse


def _oracle_verify_apriori(model, phi, c, t, n_pairs, *, grid, h=None,
                           phi_bar=0.0, seed=0, n_sources=8,
                           reach_multiplier=3.0, graph_radius=2):
    """``verify_apriori`` as it was when it swept the whole stacks and drew
    each tuple as it checked it."""
    rng = np.random.default_rng(seed)
    grid, h = discretization(model, grid, h)
    kern = build_kernel(grid, model, phi, c, phi_bar, h, reach_multiplier)
    n_steps = max(1, int(round(t / h)))
    t_eff = n_steps * h
    diam = model.diameter()
    envelope = t_eff * (phi.lipschitz_constant * diam
                        + c * model.sup_norm_bound)
    slack = c * grid.diagonal
    shape = grid.shape

    def rand_index():
        return tuple(int(rng.integers(0, n)) for n in shape)

    sources = [rand_index() for _ in range(n_sources)]
    targets = [rand_index() for _ in range(n_sources)]
    fields_from = _action_fields(kern, sources, n_steps)
    fields_to = _action_fields(kern, targets, n_steps, reverse=True)
    dist = grid.path_distance_field(sources + targets, graph_radius).T
    dist = dist.reshape(shape + (2 * n_sources,))

    violations = []
    worst = {"item1": -np.inf, "item2": -np.inf, "item3": -np.inf}
    checked = 0
    while checked < n_pairs:
        i = int(rng.integers(0, n_sources))
        j = int(rng.integers(0, n_sources))
        p, q0 = sources[i], targets[j]
        q = rand_index()
        A_pq = fields_from[q + (i,)]
        A_pq0 = fields_from[q0 + (i,)]
        d_pq = dist[q + (i,)]
        m1 = abs(A_pq - c * d_pq) - (envelope + slack)
        m2 = abs(A_pq - A_pq0) - (c * dist[q + (n_sources + j,)] + slack)
        p2 = rand_index()
        m3 = abs(A_pq0 - fields_to[p2 + (j,)]) - (c * dist[p2 + (i,)] + slack)
        for name, m, tup in (("item1", m1, (p, q)), ("item2", m2, (p, q, q0)),
                             ("item3", m3, (p, p2, q0))):
            worst[name] = max(worst[name], float(m))
            if m > 0:
                violations.append({"item": name, "margin": float(m),
                                   "points": tup})
        checked += 1
    return {"n_checked": checked, "worst_margins": worst,
            "violations": violations, "t": t_eff, "slack": slack,
            "envelope": envelope, "passed": len(violations) == 0}


@pytest.mark.parametrize("seed,n_violations",
                         [(1, 0), (2, 0), (108, 1), (404, 1)])
def test_verify_apriori_matches_whole_stack_oracle(model, cobound,
                                                  medium_grid, seed,
                                                  n_violations):
    """The CLI's settings at 16x16x10: the report is the whole-stack
    version's, seeds 108 and 404 keep their one violation, and the timings
    are the four stages."""
    phi, _ = cobound
    _, h = discretization(model, medium_grid)
    args = (model, phi, 4.0, 5 * h, 200)
    kw = {"grid": medium_grid, "h": h, "seed": seed}
    rep = verify_apriori(*args, **kw)
    timings = rep.pop("timings")
    assert list(timings) == ["build_kernel", "fields", "distances", "pairs"]
    assert all(v >= 0.0 for v in timings.values())
    assert repr(rep) == repr(_oracle_verify_apriori(*args, **kw))
    assert len(rep["violations"]) == n_violations


@pytest.mark.parametrize("kwargs,match", [
    ({"t": 0.0}, "horizon t"), ({"t": -0.5}, "horizon t"),
    ({"t": float("inf")}, "horizon t"), ({"t": float("nan")}, "horizon t"),
    ({"n_sources": 0}, "n_sources"), ({"n_pairs": -1}, "n_pairs")])
def test_verify_apriori_rejects_bad_arguments(model, cobound, small_grid,
                                              kwargs, match):
    phi, _ = cobound
    args = {"t": 1.0, "n_pairs": 10, **kwargs}
    t, n_pairs = args.pop("t"), args.pop("n_pairs")
    with pytest.raises(ValueError, match=match):
        verify_apriori(model, phi, 4.0, t, n_pairs, grid=small_grid,
                       h=small_grid.spacings[2], **args)


def test_verify_apriori_with_no_pairs(model, cobound, small_grid):
    phi, _ = cobound
    rep = verify_apriori(model, phi, 4.0, 1.0, 0, grid=small_grid,
                         h=small_grid.spacings[2])
    assert rep["n_checked"] == 0 and rep["passed"]
    assert rep["worst_margins"] == {"item1": -np.inf, "item2": -np.inf,
                                    "item3": -np.inf}


def test_kernel_sweeps_reject_misshapen_stacks(small_kernel):
    with pytest.raises(ValueError):
        small_kernel.apply(np.zeros(small_kernel.grid.shape))
    with pytest.raises(ValueError):
        small_kernel.apply_reverse(np.zeros((4, 4, 4, 2)))


def test_verify_integrated_subaction_rejects_untestable_arguments(
        model, cobound, medium_solution):
    phi, _ = cobound
    sol, _ = medium_solution
    # at most four quadrature steps (0.02) no horizon is tested, and
    # -10 u would pass with slack 0
    for horizon in (0.02, 0.01, 0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="horizon"):
            verify_integrated_subaction(sol.u, model, phi, sol.phi_bar, 64,
                                        horizon, slack=0.0)
    for n_orbits in (0, -3):
        with pytest.raises(ValueError, match="n_orbits"):
            verify_integrated_subaction(sol.u, model, phi, sol.phi_bar,
                                        n_orbits, 1.0)
    bad = GridFunction(sol.u.grid, -10.0 * sol.u.dense())
    rep = verify_integrated_subaction(bad, model, phi, sol.phi_bar, 64, 0.5,
                                      slack=0.0)
    assert not rep["passed"] and rep["horizons"]
