import dataclasses

import numpy as np
import pytest

from weakkam import (ActionKernel, AlignmentError, Grid, GridFunction,
                     Observable, build_kernel, constant_observable,
                     distance_squared_observable)
from weakkam.kernel import _deviation_offsets, discretization

from test_laxoleinik import _cli_kernel


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
    with pytest.raises(ValueError):
        build_kernel(small_grid, model, phi, -1.0, 0.0,
                     small_grid.spacings[2], 2.0)
    # a step h <= 0 would flow the kernel backwards, or not at all
    for h in (0.0, -small_grid.spacings[2], -1.0):
        with pytest.raises(ValueError, match="kernel step h"):
            build_kernel(small_grid, model, phi, 1.0, 0.0, h, 2.0)
        with pytest.raises(ValueError, match="kernel step h"):
            discretization(model, small_grid, h)


def test_build_kernel_rejects_nan_step(model, cobound, small_grid):
    phi, _ = cobound
    with pytest.raises(ValueError, match="kernel step h"):
        build_kernel(small_grid, model, phi, 1.0, 0.0, float("nan"), 2.0)


def test_build_kernel_rejects_nan_reach_multiplier(model, cobound,
                                                   small_grid):
    phi, _ = cobound
    with pytest.raises(ValueError, match="reach_multiplier"):
        build_kernel(small_grid, model, phi, 1.0, 0.0,
                     small_grid.spacings[2], float("nan"))


@pytest.mark.parametrize("c,reach_multiplier", [
    (np.inf, 2.0), (np.nan, 2.0), (1.0, np.inf)])
def test_build_kernel_rejects_non_finite_weight_or_reach(
        model, cobound, small_grid, c, reach_multiplier):
    phi, _ = cobound
    with pytest.raises(ValueError, match="finite"):
        build_kernel(small_grid, model, phi, c, 0.0, small_grid.spacings[2],
                     reach_multiplier)


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


def _roll_gather(grid, arr, offset):
    """Per-offset twisted gather by np.roll plus one base-index map per roof
    crossing: the shift code sweeps used before the halo, kept as an oracle."""
    di, dj, dk = (int(v) for v in offset)
    n1, n2, ns = grid.shape
    out = np.empty_like(arr)
    R = np.roll(arr, (di, dj), axis=(0, 1))
    ks = np.arange(ns) - dk
    m_arr = ks // ns
    k0 = ks - m_arr * ns
    i = np.arange(n1)[:, None] - di
    j = np.arange(n2)[None, :] - dj
    for m in np.unique(m_arr):
        sel = m_arr == m
        if m == 0:
            out[:, :, sel] = R[:, :, k0[sel]]
        else:
            M = grid._twist_pow(int(m))
            I, J = np.broadcast_arrays(np.mod(M[0, 0] * i + M[0, 1] * j, n1),
                                       np.mod(M[1, 0] * i + M[1, 1] * j, n2))
            out[:, :, sel] = arr[I, J][:, :, k0[sel]]
    return out


def _loop_min(kernel, B, sign):
    """Unpruned per-offset fold: min over offsets of shift(B) + c*dev."""
    best = None
    for tot, dev in zip(kernel._total_offsets(), kernel.devs):
        cand = _roll_gather(kernel.grid, B, sign * tot)
        if dev != 0.0:
            cand += kernel.c * dev
        best = cand if best is None else np.minimum(best, cand)
    return best


def _loop_apply(kernel, u):
    hphi = kernel.h * (kernel.phi_nodes - kernel.phi_bar)
    return _loop_min(kernel, u.values + hphi, 1)


def _loop_apply_reverse(kernel, w):
    hphi = kernel.h * (kernel.phi_nodes - kernel.phi_bar)
    return _loop_min(kernel, w.values, -1) + hphi


def _fields(kernel):
    """Fields that prune to the flow step (random, zero, constant), keep part
    of the stencil (wide: spread over half the largest c*dev) or all of it
    (+inf entries)."""
    shape = kernel.grid.shape
    rng = np.random.default_rng(8)
    delta = np.full(shape, np.inf)
    delta[3, 5, 7] = 0.0
    mixed = rng.normal(size=shape)
    mixed[rng.random(shape) < 0.3] = np.inf
    wide = rng.random(shape) * 0.5 * kernel.c * kernel.devs[-1]
    return {"random": rng.random(shape), "zero": np.zeros(shape),
            "constant": np.full(shape, 2.5), "wide": wide, "delta": delta,
            "mixed": mixed}


@pytest.mark.parametrize("reach_multiplier", [2.0, 3.0])
def test_sweeps_match_per_offset_loop_bitwise(model, cobound, medium_grid,
                                              reach_multiplier):
    phi, _ = cobound
    kern = build_kernel(medium_grid, model, phi, 4.0 * phi.lipschitz_constant,
                        0.05, medium_grid.spacings[2], reach_multiplier)
    for name, vals in _fields(kern).items():
        u = GridFunction(medium_grid, vals, offset=0.25)
        fwd, rev = kern.apply(u), kern.apply_reverse(u)
        assert fwd.values.tobytes() == _loop_apply(kern, u).tobytes(), name
        assert rev.values.tobytes() == _loop_apply_reverse(kern, u).tobytes(), \
            name
        assert fwd.offset == rev.offset == u.offset


def _jacobi_fold(kernel, v, labels):
    """The clamped fold of ``ActionKernel.reduced_fold`` unpruned, Jacobi,
    offset by offset: every label from the last pass's labels."""
    sweep = kernel._forward
    L = labels.copy()
    while True:
        PL = sweep.halo.pad(L)
        PB = sweep.halo.pad(L + v + kernel._hphi)
        new = L.copy()
        for d, w in enumerate(sweep.windows):
            cand = PB[w] + kernel.c * kernel.devs[d] if d else PB[w].copy()
            new = np.minimum(new, np.maximum(PL[w], cand - v))
        if np.array_equal(new, L):
            return L
        L = new


@pytest.mark.parametrize("which", ["coboundary", "dist2"])
def test_reduced_fold_matches_the_jacobi_fold_bitwise(howard_kernels,
                                                      which):
    """The fold's fixed point is the least value over paths, whatever the
    order and the pruning: from -v, from random labels, from the cap
    lowered on a random half of the nodes, with only those fresh, and from
    a level L + v = c0 lowered at one node a to L(a) = -v(a) - 1.  There c0
    is B(a) + C*dev of the second norm group + 0.025, so that group lies
    within 0.05 of the pruning cutoff (lo + C*dev against hi, lo = B(a),
    hi = c0) and the readers of a under it take their labels from it."""
    kern = howard_kernels[which]
    g, bias, _ = kern.solve_additive_eigenvalue()
    refined = kern.with_phi_bar(kern.phi_bar + float(g.min()) / kern.h)
    v = bias.dense()
    rng = np.random.default_rng(5)
    low = 10.0 * rng.random(v.shape)
    half = rng.random(v.shape) < 0.5
    l_a = -v[0, 0, 0] - 1.0
    b_a = (l_a + v[0, 0, 0]) + refined._hphi[0, 0, 0]
    level = (b_a + refined._forward.cdevs[2] + 0.025) - v
    level[0, 0, 0] = l_a
    for labels, fresh in ((-v, None), (low, None),
                          (np.where(half, low, low.max()), half),
                          (level, None)):
        got, passes = refined.reduced_fold(v, labels, fresh)
        want = _jacobi_fold(refined, v, labels)
        assert got.tobytes() == want.tobytes() and passes >= 1


def test_sweeps_reject_nan(small_kernel):
    vals = np.zeros(small_kernel.grid.shape)
    vals[1, 2, 3] = np.nan
    # one NaN label or bias entry would keep the fold from ever settling
    zeros = np.zeros_like(vals)
    for name, bias, labels in (("bias", vals, zeros),
                               ("labels", zeros, vals)):
        with pytest.raises(ValueError, match=f"{name} holds NaN"):
            small_kernel.reduced_fold(bias, labels)
    u = GridFunction(small_kernel.grid, vals)
    with pytest.raises(ValueError, match="NaN"):
        small_kernel.apply(u)
    with pytest.raises(ValueError, match="NaN"):
        small_kernel.apply_reverse(u)
    # the pair fold checks the whole stack, not only the entries it reads
    stack = np.stack([np.zeros_like(vals), vals], axis=-1)
    for reverse in (False, True):
        with pytest.raises(ValueError, match="NaN"):
            small_kernel.apply_at(stack, [0], [0], reverse=reverse)


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


def test_with_phi_bar_keeps_the_sweeps(model, cobound, medium_grid):
    """A coboundary solve's refined kernel shares its parent's sweeps, which
    do not depend on phi_bar, and sweeps and solves bitwise as a fresh
    build at the refined value."""
    phi, _ = cobound
    h = medium_grid.spacings[2]
    kern = build_kernel(medium_grid, model, phi, 4.0, 0.0, h, 2.0)
    g, _, _ = kern.solve_additive_eigenvalue()
    phi_bar = float(g.min()) / kern.h
    assert phi_bar != 0.0  # a rounding-level refinement, as in the solve
    u = GridFunction(medium_grid,
                     np.random.default_rng(3).random(medium_grid.shape))
    kern.apply_reverse(u)
    refined = kern.with_phi_bar(phi_bar)
    fresh = build_kernel(medium_grid, model, phi, 4.0, phi_bar, h, 2.0)
    assert refined._forward is kern._forward
    assert refined._reverse is kern._reverse
    for sweep in ("apply", "apply_reverse"):
        got = getattr(refined, sweep)(u).values
        assert got.tobytes() == getattr(fresh, sweep)(u).values.tobytes()
    (g1, b1, info1), (g2, b2, info2) = (k.solve_additive_eigenvalue()
                                        for k in (refined, fresh))
    assert g1.tobytes() == g2.tobytes() and info1 == info2
    assert b1.values.tobytes() == b2.values.tobytes()


def test_row_min_bound(small_kernel):
    # A flow-following entry (deviation 0) exists for every p, so every row
    # minimum is at most h * sup|phi - phi_bar|, plus a grid diagonal's slack.
    k = small_kernel
    bound = k.h * float(np.abs(k.phi_nodes - k.phi_bar).max()) \
        + k.c * k.grid.diagonal
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


def _oracle_policy_eval(succ, cost, v_prev=None):
    """Node-by-node reference: a depth-first walk from each unvisited node in
    index order; a walk that closes a cycle anchors it at the entry node,
    where v is v_prev (0 without it).  The cycles are returned from their
    anchors, by lowest node."""
    N = succ.size
    g = np.empty(N)
    v = np.empty(N)
    cycles = []
    state = np.zeros(N, dtype=np.int8)  # 0 new, 1 on stack, 2 done
    order_pos = np.full(N, -1, dtype=np.int64)
    for start in range(N):
        if state[start] != 0:
            continue
        stack = []
        node = start
        while state[node] == 0:
            state[node] = 1
            order_pos[node] = len(stack)
            stack.append(node)
            node = succ[node]
        if state[node] == 1:
            cyc = stack[order_pos[node]:]
            gain = float(cost[cyc].sum()) / len(cyc)
            anchor = cyc[0]
            cycles.append(cyc)
            g[np.array(cyc)] = gain
            v[anchor] = 0.0 if v_prev is None else v_prev[anchor]
            cur = anchor
            for _ in range(1, len(cyc)):
                nxt = succ[cur]
                v[nxt] = v[cur] - (cost[cur] - gain)
                cur = nxt
            state[np.array(cyc)] = 2
        for qq in reversed(stack):
            if state[qq] == 2:
                continue
            g[qq] = g[succ[qq]]
            v[qq] = cost[qq] - g[qq] + v[succ[qq]]
            state[qq] = 2
    return g, v, sorted(cycles, key=min)


def _relabel(succ, perm):
    """The same functional graph with node i renamed perm[i]."""
    out = np.empty_like(succ)
    out[perm] = perm[succ]
    return out


def _functional_graphs(rng, N=600):
    perm = rng.permutation(N)
    chain = np.minimum(np.arange(N) + 1, N - 1)  # one tail into a self-loop
    tails = np.arange(N) + 1
    tails[[N // 3 - 1, N // 2, N - 1]] = 0, 5, 0  # a cycle of N/3, two tails
    small = np.arange(N) + 1
    small[np.arange(N) % 5 == 4] -= 5  # 120 cycles of 5
    trees = np.concatenate([rng.permutation(N // 2), [
        rng.integers(0, k) for k in range(N // 2, N)]])  # trees into cycles
    loops = rng.integers(0, N, N)
    loops[rng.random(N) < 0.2] = -1
    loops[loops < 0] = np.flatnonzero(loops < 0)
    return {"identity": np.arange(N),
            "one_cycle": _relabel(np.roll(np.arange(N), -1), perm),
            "permutation": perm,
            "small_cycles": _relabel(small, perm),
            "long_tail": chain,
            "tails": _relabel(tails, perm),
            "trees": _relabel(trees, perm),
            "self_loops": loops,
            "random": rng.integers(0, N, N)}


@pytest.mark.parametrize("name", ["identity", "one_cycle", "permutation",
                                  "small_cycles", "long_tail", "tails",
                                  "trees", "self_loops", "random"])
def test_policy_eval_matches_node_loop_bitwise(name):
    rng = np.random.default_rng(11)
    succ = _functional_graphs(rng)[name].astype(np.int64)
    v_prev = rng.normal(size=succ.size)
    for cost in (rng.normal(size=succ.size),
                 np.round(rng.normal(size=succ.size), 1),
                 np.zeros(succ.size)):
        for prev in (None, v_prev):
            g, v, cycles = ActionKernel._policy_eval(succ, cost, prev)
            g0, v0, cycles0 = _oracle_policy_eval(succ, cost, prev)
            assert g.tobytes() == g0.tobytes(), name
            assert v.tobytes() == v0.tobytes(), name
            assert [c.tolist() for c in cycles] == cycles0, name


def _oracle_howard(kernel, max_iters=200, tol=1e-13, one_stencil=False,
                   evaluate=_oracle_policy_eval):
    """Howard with node-by-node evaluation, a gain pass on every iteration
    and unpruned bias passes, kept as the reference for the fast passes.
    Policies are improved on the offsets within one grid diagonal (all of
    them with ``one_stencil``) until a pass there changes nothing, then,
    from the same gain and bias, on every offset.  It records, per pass, the first norm group whose lo + C*dev exceeds
    max(best_w) as the count of windows the cutoff should fold, and returns
    the successor array of every evaluated policy."""
    grid = kernel.grid
    N = grid.n_nodes
    halo, win = kernel._forward.halo, kernel._forward.windows
    tots = kernel._total_offsets()
    hphi = kernel._hphi
    cdevs = kernel.c * kernel.devs
    starts = set(kernel._forward.bounds[:-1])
    n_all = kernel.n_offsets
    n_short = n_all if one_stencil else int(
        np.count_nonzero(kernel.devs <= grid.diagonal + 1e-12))
    policy = np.zeros(N, dtype=np.int64)
    scale = max(1.0, float(np.abs(hphi).max()))
    folded, succs = [], []

    def improve(g, v, cost, succ, n_win):
        shifted_g = halo.pad(g.reshape(grid.shape))
        best_g = shifted_g[win[0]].copy()
        for w in win[1:n_win]:
            np.minimum(best_g, shifted_g[w], out=best_g)
        improvable = best_g.ravel() < g - tol * scale
        gain_cut = best_g + tol * scale
        best_w = np.full(grid.shape, np.inf)
        best_d = policy.reshape(grid.shape).copy()
        cand = np.empty(grid.shape)
        vb = v.reshape(grid.shape) + hphi
        shifted_vb = halo.pad(vb)
        lo, n_folded = vb.min(), None
        for d_idx, w in enumerate(win[:n_win]):
            if (n_folded is None and d_idx in starts
                    and lo + cdevs[d_idx] > best_w.max()):
                n_folded = d_idx
            np.add(shifted_vb[w], cdevs[d_idx], out=cand)
            np.copyto(cand, np.inf, where=~(shifted_g[w] <= gain_cut))
            take = cand < best_w - tol * scale
            np.copyto(best_w, cand, where=take)
            best_d[take] = d_idx
        folded.append(n_win if n_folded is None else n_folded)
        cur_w = cost + v[succ]
        change = improvable | (best_w.ravel() < cur_w - 10 * tol * scale)
        return change, best_d.ravel()

    n_win, short_its = n_short, 0
    v = None
    for it in range(max_iters):
        succ = halo.read(np.arange(N), tots[policy])
        succs.append(succ)
        cost = hphi.reshape(-1)[succ] + cdevs[policy]
        g, v, cycles = evaluate(succ, cost, v)
        if n_win == n_short:
            short_its = it + 1
        change, best_d = improve(g, v, cost, succ, n_win)
        if not change.any() and n_win < n_all:
            n_win = n_all
            change, best_d = improve(g, v, cost, succ, n_win)
        if not change.any():
            break
        policy = np.where(change, best_d, policy)
    critical = [list(map(int, c)) for c in cycles
                if g[c[0]] <= g.min() + tol * scale]
    return g, v.reshape(grid.shape), {
        "iterations": it + 1, "converged": not change.any(),
        "short_offsets": n_short, "short_iterations": short_its,
        "gain_spread": float(g.max() - g.min()),
        "offsets_folded": folded, "critical_cycles": critical}, succs


@pytest.fixture(scope="module")
def howard_kernels(model, small_grid, small_kernel):
    """Non-flat gain (coboundary), flat gain over 24 iterations (dist2), and
    C = 0 with phi = 0, where every lo + C*dev equals max(best_w) and
    Howard widens from the short stencil as on every other kernel."""
    def build(phi, c):
        return build_kernel(small_grid, model, phi, c, 0.0,
                            small_grid.spacings[2], 2.0)
    return {"coboundary": small_kernel,
            "dist2": build(distance_squared_observable(model), 4.0),
            "constant_c0": build(constant_observable(0.0), 0.0)}


@pytest.mark.parametrize("family", ["coboundary", "dist2"])
def test_howard_gain_skip_is_exact(family, model, cobound, medium_grid,
                                   monkeypatch):
    """At 16x16x10 and C = 4 the coboundary gain spreads by ~4e-18, inside
    tol*scale, so the gain pass is skipped although the gain is not exactly
    flat; dist2's gain is flat.  Policies, gains and biases match the pass
    that is never skipped, bit for bit."""
    phi = cobound[0] if family == "coboundary" else \
        distance_squared_observable(model)
    kern = build_kernel(medium_grid, model, phi, 4.0, 0.0,
                        medium_grid.spacings[2], 2.0)
    succs = []
    evaluate = ActionKernel._policy_eval

    def recorded(succ, cost, v_prev):
        succs.append(succ.copy())
        return evaluate(succ, cost, v_prev)

    monkeypatch.setattr(ActionKernel, "_policy_eval", staticmethod(recorded))
    g, bias, info = kern.solve_additive_eigenvalue()
    g0, v0, info0, succs0 = _oracle_howard(kern)
    assert g.tobytes() == g0.tobytes()
    assert bias.values.tobytes() == v0.tobytes()
    assert info == info0
    assert len(succs) == len(succs0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(succs, succs0))
    scale = max(1.0, float(np.abs(kern._hphi).max()))
    assert info["gain_spread"] <= 1e-13 * scale
    if family == "coboundary":
        assert info["gain_spread"] > 0.0


@pytest.mark.parametrize("which", ["coboundary", "dist2", "constant_c0"])
def test_howard_matches_loop_oracle_bitwise(which, howard_kernels):
    kern = howard_kernels[which]
    g, bias, info = kern.solve_additive_eigenvalue()
    g0, v0, info0, _ = _oracle_howard(kern)
    assert g.tobytes() == g0.tobytes()
    assert bias.values.tobytes() == v0.tobytes()
    assert info == info0
    if which == "dist2":  # flat gain, many iterations: the cutoff prunes
        assert info["gain_spread"] == 0.0 and info["iterations"] > 10
        assert sum(info["offsets_folded"]) < (kern.n_offsets
                                              * info["iterations"])


def _periodic_point_kernel(shape):
    """dist2 centred at (0.5, 0.5), a point of period 3, at the CLI's kernel
    settings: several critical classes tie for the minimum gain."""
    kern = _cli_kernel("dist2", shape)
    phi = distance_squared_observable(kern.model, (0.5, 0.5))
    return build_kernel(kern.grid, kern.model, phi, kern.c, 0.0, kern.h,
                        2.0)


@pytest.mark.parametrize("family, shape, n_short", [
    ("coboundary", (16, 16, 10), 31), ("dist2", (16, 16, 10), 31),
    ("coboundary", (32, 32, 16), 39), ("dist2", (32, 32, 16), 39),
    ("periodic", (8, 8, 10), 29), ("periodic", (20, 20, 10), 39)],
    ids=["coboundary-16", "dist2-16", "coboundary-32", "dist2-32",
         "periodic-8", "periodic-20"])
def test_widened_howard_reaches_the_cold_gain(family, shape, n_short):
    """Howard that improves on the offsets within one grid diagonal first
    and then widens ends where Howard on the full stencil throughout (the
    oracle's one-stencil mode) does: the gain bitwise and, where the
    critical classes are one, the bias up to a constant and the critical
    cycles as node sets.  The coboundary's evaluations do not rise."""
    kern = _periodic_point_kernel(shape) if family == "periodic" \
        else _cli_kernel(family, shape)
    g, bias, info = kern.solve_additive_eigenvalue()
    g0, v0, info0, _ = _oracle_howard(kern, one_stencil=True,
                                      evaluate=ActionKernel._policy_eval)
    assert info["converged"] and info0["converged"]
    assert info["short_offsets"] == n_short < kern.n_offsets
    assert info0["short_offsets"] == kern.n_offsets
    assert g.tobytes() == g0.tobytes()
    if family == "periodic":
        return
    shift = bias.values - v0
    assert shift.max() - shift.min() <= 1e-15
    assert ({frozenset(c) for c in info["critical_cycles"]}
            == {frozenset(c) for c in info0["critical_cycles"]})
    if family == "coboundary":
        assert info["iterations"] == info0["iterations"] == \
            {16: 1, 32: 36}[shape[0]]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_kernel_rejects_non_finite_phi(model, small_grid, bad):
    dist2 = distance_squared_observable(model)

    def ev(p):
        return np.where(p[..., 0] < 0.25, bad, dist2(p))

    phi = Observable(evaluate=ev, lipschitz_constant=dist2.lipschitz_constant,
                     sup_bound=dist2.sup_bound)
    with pytest.raises(ValueError, match="finite"):
        build_kernel(small_grid, model, phi, 4.0, 0.0,
                     small_grid.spacings[2], 2.0)


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


def _oracle_deviation_offsets(grid, reach):
    """The full stencil, as the triple loop over the whole box built it: every
    offset of norm <= reach, sorted by (norm, a, b, c), periodic repeats
    included."""
    rad = [int(np.floor(reach / s)) for s in grid.spacings]
    cand = []
    for a in range(-rad[0], rad[0] + 1):
        for b in range(-rad[1], rad[1] + 1):
            for c in range(-rad[2], rad[2] + 1):
                d = np.linalg.norm([a * grid.spacings[0], b * grid.spacings[1],
                                    c * grid.spacings[2]])
                if d <= reach + 1e-12:
                    cand.append((d, a, b, c))
    cand.sort()
    offsets = np.array([(a, b, c) for (_, a, b, c) in cand], dtype=np.int64)
    devs = np.array([d for (d, _, _, _) in cand])
    return offsets, devs


def _first_of_each_class(grid, offsets):
    n1, n2, _ = grid.shape
    seen, keep = set(), []
    for idx, (a, b, c) in enumerate(offsets.tolist()):
        if (a % n1, b % n2, c) not in seen:
            seen.add((a % n1, b % n2, c))
            keep.append(idx)
    return keep


@pytest.mark.parametrize("shape", [(4, 4, 10), (6, 6, 10), (8, 8, 10),
                                   (16, 16, 10), (32, 32, 16)])
@pytest.mark.parametrize("reach", [0.1, 0.3, 0.7])
def test_deviation_offsets_match_triple_loop_bitwise(model, shape, reach):
    grid = Grid(shape, (1.0, 1.0, model.roof), model.base_matrix)
    offsets, devs = _deviation_offsets(grid, reach)
    full, full_devs = _oracle_deviation_offsets(grid, reach)
    keep = _first_of_each_class(grid, full)
    assert offsets.tobytes() == full[keep].tobytes()
    assert devs.tobytes() == full_devs[keep].tobytes()


@pytest.mark.parametrize("shape,reach_multiplier,full,kept", [
    ((16, 16, 10), 3.0, 3647, 2829), ((8, 8, 10), 2.0, 593, 531),
    ((16, 16, 10), 2.0, None, None), ((32, 32, 16), 2.0, None, None)])
def test_stencil_drops_only_periodic_repeats(model, cobound, shape,
                                             reach_multiplier, full, kept):
    """The a-priori check's and the small grid's stencils lose their periodic
    repeats; the solves' stencils at 16x16x10 and 32x32x16 have none."""
    grid = Grid(shape, (1.0, 1.0, model.roof), model.base_matrix)
    kern = build_kernel(grid, model, cobound[0], 4.0, 0.0, grid.spacings[2],
                        reach_multiplier)
    n_full = len(_oracle_deviation_offsets(grid, kern.reach)[0])
    if full is None:
        assert kern.n_offsets == n_full
    else:
        assert (n_full, kern.n_offsets) == (full, kept)


def _full_stencil(kernel):
    offsets, devs = _oracle_deviation_offsets(kernel.grid, kernel.reach)
    assert len(offsets) > kernel.n_offsets  # the stencil had repeats
    return dataclasses.replace(kernel, offsets=offsets, devs=devs)


@pytest.mark.parametrize("reach_multiplier", [2.0, 3.0])
def test_deduplicated_sweeps_match_full_stencil_bitwise(model, cobound,
                                                        small_grid,
                                                        reach_multiplier):
    phi, _ = cobound
    kern = build_kernel(small_grid, model, phi, 4.0 * phi.lipschitz_constant,
                        0.05, small_grid.spacings[2], reach_multiplier)
    full = _full_stencil(kern)
    for name, vals in _fields(kern).items():
        u = GridFunction(small_grid, vals, offset=0.25)
        for sweep in ("apply", "apply_reverse"):
            got = getattr(kern, sweep)(u).values
            want = getattr(full, sweep)(u).values
            assert got.tobytes() == want.tobytes(), (name, sweep)
        stack = np.stack([vals, vals[::-1]], axis=-1)
        assert kern.apply(stack).tobytes() == full.apply(stack).tobytes()


@pytest.mark.parametrize("which", ["coboundary", "dist2"])
def test_deduplicated_howard_matches_full_stencil_bitwise(which, model,
                                                          howard_kernels,
                                                          monkeypatch):
    """Gains, biases and every evaluated policy's successors are those of
    the full stencil: the strict improvement rule takes no repeat."""
    kern = howard_kernels[which]
    full = _full_stencil(kern)
    evaluate = ActionKernel._policy_eval
    runs = []
    for k in (kern, full):
        succs = []

        def recorded(succ, cost, v_prev, succs=succs):
            succs.append(succ.copy())
            return evaluate(succ, cost, v_prev)

        monkeypatch.setattr(ActionKernel, "_policy_eval",
                            staticmethod(recorded))
        g, bias, info = k.solve_additive_eigenvalue()
        runs.append((g, bias.values, info["iterations"], succs))
    (g, v, it, succs), (g0, v0, it0, succs0) = runs
    assert g.tobytes() == g0.tobytes()
    assert v.tobytes() == v0.tobytes()
    assert it == it0 and len(succs) == len(succs0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(succs, succs0))
