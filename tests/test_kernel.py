import numpy as np
import pytest

from weakkam import (AlignmentError, Grid, GridFunction, build_kernel,
                     constant_observable)


def test_build_kernel_guards(model, cobound, small_grid):
    phi, _ = cobound
    with pytest.raises(ValueError):
        build_kernel(small_grid, model, phi, 1.0, 0.0, model.roof / 2, 2.0)
    with pytest.raises(AlignmentError):
        build_kernel(small_grid, model, phi, 1.0, 0.0,
                     small_grid.spacings[2] * 0.7, 2.0)
    with pytest.raises(ValueError):
        build_kernel(small_grid, model, phi, 1.0, 0.0,
                     small_grid.spacings[2], 1.5)


def _oracle_apply(kernel, u):
    """Entry-by-entry reference: for each target node q, minimize over all
    deviation offsets the priced move from the source node p."""
    grid = kernel.grid
    n1, n2, ns = grid.shape
    B = u.values + kernel.h * (kernel.phi_nodes - kernel.phi_bar)
    out = np.full(grid.shape, np.inf)
    for (a, b, c), dev in zip(kernel.offsets, kernel.devs):
        dk = int(c) + kernel.flow_steps
        for i in range(n1):
            for j in range(n2):
                for k in range(ns):
                    ks = k - dk
                    m = ks // ns
                    kp = ks - m * ns
                    M = np.linalg.matrix_power(
                        grid.twist if m >= 0 else
                        np.array([[grid.twist[1, 1], -grid.twist[0, 1]],
                                  [-grid.twist[1, 0], grid.twist[0, 0]]])
                        * int(round(np.linalg.det(grid.twist))), abs(m))
                    ip = (M[0, 0] * (i - a) + M[0, 1] * (j - b)) % n1
                    jp = (M[1, 0] * (i - a) + M[1, 1] * (j - b)) % n2
                    val = B[ip, jp, kp] + kernel.c * dev
                    if val < out[i, j, k]:
                        out[i, j, k] = val
    return out


def test_apply_matches_entrywise_oracle(model, cobound):
    phi, _ = cobound
    grid = Grid((4, 4, 10), (1.0, 1.0, model.roof), model.base_matrix)
    kern = build_kernel(grid, model, phi, 2.0, 0.1, grid.spacings[2], 2.0)
    rng = np.random.default_rng(0)
    u = GridFunction(grid, rng.random(grid.shape))
    got = kern.apply(u)
    assert np.abs(got.values - _oracle_apply(kern, u)).max() < 1e-14
    assert got.offset == u.offset


def test_additive_equivariance_is_bitwise(small_kernel):
    rng = np.random.default_rng(1)
    u = GridFunction(small_kernel.grid, rng.random(small_kernel.grid.shape))
    a = small_kernel.apply(u + 0.37)
    b = small_kernel.apply(u) + 0.37
    assert np.array_equal(a.values, b.values)
    assert a.offset == b.offset


def test_monotonicity(small_kernel):
    rng = np.random.default_rng(2)
    u = GridFunction(small_kernel.grid, rng.random(small_kernel.grid.shape))
    w = GridFunction(small_kernel.grid,
                     u.values + rng.random(small_kernel.grid.shape))
    Tu, Tw = small_kernel.apply(u), small_kernel.apply(w)
    assert np.all(Tu.dense() <= Tw.dense() + 1e-15)


def test_reverse_sweep_adjoint_identity(small_kernel):
    # min_p [T'w](p) + u(p) = min_q w(q) + [Tu](q): both sides price the best
    # single transition weighted by u at the source and w at the target.
    rng = np.random.default_rng(3)
    u = GridFunction(small_kernel.grid, rng.random(small_kernel.grid.shape))
    w = GridFunction(small_kernel.grid, rng.random(small_kernel.grid.shape))
    lhs = (small_kernel.apply_reverse(w).dense() + u.dense()).min()
    rhs = (w.dense() + small_kernel.apply(u).dense()).min()
    assert abs(lhs - rhs) < 1e-13


def test_with_phi_bar_shifts_cost(small_kernel):
    u = GridFunction.zeros(small_kernel.grid)
    shifted = small_kernel.with_phi_bar(small_kernel.phi_bar + 0.5)
    a = small_kernel.apply(u).values
    b = shifted.apply(u).values
    assert np.abs((a - b) - small_kernel.h * 0.5).max() < 1e-14


def test_row_min_bound(small_kernel):
    bound = small_kernel.row_min_bound_check()
    t0 = small_kernel.apply(GridFunction.zeros(small_kernel.grid))
    assert float(t0.dense().max()) <= bound + 1e-12


def _karp_min_cycle_mean(kernel):
    """Independent minimum-cycle-mean of the kernel graph (Karp recurrence).

    Edge p -> q for every deviation offset, cost h*(phi(p)-phi_bar) + c*dev.
    d_k(q) = min cost over walks of length exactly k ending at q.
    """
    grid = kernel.grid
    N = grid.n_nodes
    hphi = (kernel.h * (kernel.phi_nodes - kernel.phi_bar)).ravel()
    # source node index for each (target, offset), built from the node-id map
    node_id = np.arange(N).reshape(grid.shape)
    srcs, costs = [], []
    for (a, b, c), dev in zip(kernel.offsets, kernel.devs):
        tot = (int(a), int(b), int(c) + kernel.flow_steps)
        src = grid.gather_shift(node_id, tot).ravel()
        srcs.append(src)
        costs.append(hphi[src] + kernel.c * dev)
    d = np.zeros((N + 1, N))
    for k in range(1, N + 1):
        best = np.full(N, np.inf)
        for src, cost in zip(srcs, costs):
            np.minimum(best, d[k - 1][src] + cost, out=best)
        d[k] = best
    ratios = (d[N][None, :] - d[:N]) / (N - np.arange(N))[:, None]
    return float(np.max(ratios, axis=0).min())


def test_howard_matches_karp_oracle(small_kernel):
    g, bias, info = small_kernel.solve_additive_eigenvalue()
    assert info["converged"]
    assert info["gain_spread"] < 1e-12  # strongly connected kernel
    karp = _karp_min_cycle_mean(small_kernel)
    assert abs(float(g.min()) - karp) < 1e-12
    # the bias satisfies the policy-evaluation equations at the optimum:
    # T[v] = v + gain, up to rounding
    shifted = small_kernel.with_phi_bar(small_kernel.phi_bar
                                        + float(g.min()) / small_kernel.h)
    tv = shifted.apply(bias)
    assert np.abs(tv.dense() - bias.dense()).max() < 1e-12


def test_constant_observable_eigenvalue(model, small_grid):
    phi = constant_observable(0.7)
    kern = build_kernel(small_grid, model, phi, 3.0, 0.0,
                        small_grid.spacings[2], 2.0)
    g, _, _ = kern.solve_additive_eigenvalue()
    # pure flow-following cycles cost h*0.7 per step, deviations only add
    assert abs(float(g.min()) / kern.h - 0.7) < 1e-13


def test_generic_model_rejected(small_grid, cobound):
    phi, _ = cobound
    with pytest.raises(NotImplementedError):
        build_kernel(small_grid, object(), phi, 1.0, 0.0,
                     small_grid.spacings[2], 2.0)
