"""Discrete Lax-Oleinik semigroup: ergodic value, weak-KAM fixed points,
pairwise-action estimates, and integrated-subaction verification."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .kernel import ActionKernel, build_kernel, discretization
from .models import birkhoff_integral, periodic_orbits


class NonConvergenceError(RuntimeError):
    pass


@dataclass
class WeakKamSolution:
    u: GridFunction
    c: float
    residual: float
    phi_bar: float
    lipschitz: float
    stage_a_sweeps: int
    stage_b_sweeps: int
    eigenvalue_refinement: float
    howard: dict
    aubry: dict
    timings: dict


def _aubry_seeds(kernel, bias, gain):
    """The core of the critical graph, as a grid-shaped mask: the edges a
    converged Howard bias saturates (``saturated_edges``), peeled of the
    nodes with no in-edge or no out-edge left until none is.  Peeling
    removes no node of a cycle, so every cycle of the saturated graph lies
    in the core, and with them the Aubry set."""
    q, p = kernel.saturated_edges(bias, gain)
    n = kernel.grid.n_nodes
    alive = np.ones(n, dtype=bool)
    while True:
        live = alive[q] & alive[p]
        q, p = q[live], p[live]
        keep = (np.bincount(q, minlength=n) > 0) \
            & (np.bincount(p, minlength=n) > 0)
        if np.array_equal(keep, alive):
            return alive.reshape(kernel.grid.shape)
        alive = keep


# The base points that summary.json lists for the seed nodes, at most.
_BASE_POINT_CAP = 8


def _aubry_record(grid, cycles, seeds):
    """The critical cycles' count, and the seed nodes' count and first base
    points (by index)."""
    i, j, _ = np.nonzero(seeds)
    base = np.unique(np.stack([i, j], axis=1), axis=0)[:_BASE_POINT_CAP]
    return {"n_cycles": len(cycles), "n_nodes": int(i.size),
            "base_points": (base * grid.spacings[:2]).tolist()}


def ergodic_value(model, phi, method, *, max_period=6, quadrature_step=0.01):
    """Ergodic minimizing value of phi by the ``periodic_orbits`` method: the
    minimum Birkhoff average over enumerated periodic orbits of the
    suspension.  The min-plus estimate of the same value is the ``phi_bar``
    of ``weak_kam_solve`` on a kernel built at reference value 0.
    Returns (value, report dict).
    """
    if method != "periodic_orbits":
        raise ValueError(f"unknown method {method!r}")
    orbits = periodic_orbits(model, max_period)
    averages = []
    for base, period in orbits:
        x0 = np.array([base[0], base[1], 0.0])
        avg = float(birkhoff_integral(model, phi, x0, period,
                                      quadrature_step)) / period
        averages.append(avg)
    k = int(np.argmin(averages))
    return float(averages[k]), {
        "method": method, "n_orbits": len(orbits),
        "argmin_base": orbits[k][0].tolist(), "argmin_period": orbits[k][1],
        "averages": averages,
    }


def weak_kam_solve(kernel: ActionKernel):
    """Weak-KAM fixed point of the discrete semigroup, by two folds in the
    reduced costs of Howard's bias.

    The kernel's reference value is first refined to its exact additive
    eigenvalue by Howard's policy iteration (otherwise iterates drift
    linearly forever); on a kernel built at reference value 0 the refined
    ``phi_bar`` is the ergodic value itself, and the policy-iteration report
    is kept in ``howard``.  A policy iteration that does not converge raises
    NonConvergenceError.  Howard's bias v prices every edge at a reduced
    cost r = v(p) + h*phi(p) + C*dev - v(q) >= 0 up to rounding, and
    ``ActionKernel.reduced_fold`` computes, on labels L = u - v clamped so
    that r >= 0 exactly, the least value over paths from a start label.

    Pass 1 folds from L = -v.  Then z = v + L is min over n >= 0 of T^n 0,
    and w* = T z is min over n >= 1 of T^n 0, so T w* >= w*.  Pass 2 folds
    from the cap b + max(w* - b), b = v (a fixed point above w*), lowered to
    w* on the seed nodes S, and returns u = v + L: with d the least path
    cost, u = min(cap, min over a in S of w*(a) + d(a, .)).  The seeds are
    the core of the saturated graph (``_aubry_seeds``), which holds the
    Aubry set A.  That is what makes u the least fixed point l above w*:
    T w* >= w* gives w*(a) + d(a, .) >= w*, so u >= w*; l is min over a in
    A of w*(a) + d(a, .) (the min-plus spectral projector: Baccelli, Cohen,
    Olsder & Quadrat, *Synchronization and Linearity*, 1992, ch. 3), and
    A in S gives u <= l; so a u that is a fixed point is l.  Seeds that miss
    part of A give no such bound: from Howard's critical cycles alone u can
    be a fixed point above l.  ``residual`` is max |T u - u| on the refined
    kernel, the check that can fail.  Where the critical graph is one
    class, the cap is already the answer and pass 2 is one pass.

    ``stage_a_sweeps`` and ``stage_b_sweeps`` count the passes of the two
    folds; ``aubry`` reports Howard's critical cycles and the seed nodes
    (``_aubry_record``); ``timings`` holds the wall seconds of ``howard``,
    ``stage_a`` (pass 1 and w*) and ``stage_b`` (the seeds, pass 2 and the
    residual).
    """
    t0 = time.perf_counter()
    g, bias, info = kernel.solve_additive_eigenvalue()
    if not info["converged"]:
        raise NonConvergenceError(
            f"Howard policy iteration stopped after {info['iterations']} "
            "iterations without converging")
    refinement = float(np.min(g)) / kernel.h
    howard_kernel = kernel
    if refinement != 0.0:
        kernel = kernel.with_phi_bar(kernel.phi_bar + refinement)
    v = bias.values
    t1 = time.perf_counter()
    labels, n_a = kernel.reduced_fold(v, -v)
    w = kernel.apply(GridFunction(kernel.grid, v + labels)).values
    t2 = time.perf_counter()
    seeds = _aubry_seeds(howard_kernel, bias, float(g.min()))
    lift = w - v
    labels, n_b = kernel.reduced_fold(
        v, np.where(seeds, lift, lift.max()), fresh=seeds)
    u = GridFunction(kernel.grid, v + labels)
    residual = float(np.abs(kernel.apply(u).values - u.values).max())
    timings = {"howard": t1 - t0, "stage_a": t2 - t1,
               "stage_b": time.perf_counter() - t2}
    return WeakKamSolution(
        u=u, c=kernel.c, residual=residual, phi_bar=kernel.phi_bar,
        lipschitz=u.discrete_lipschitz(), stage_a_sweeps=n_a,
        stage_b_sweeps=n_b, eigenvalue_refinement=refinement, howard=info,
        aubry=_aubry_record(kernel.grid, info["critical_cycles"], seeds),
        timings=timings)


def _action_at(kernel: ActionKernel, nodes, n_steps, at, fields,
               reverse=False):
    """A^{n h}(p_i, q) at the pairs (q, i) = (at[k], fields[k]) for the flat
    nodes p_i = nodes[i], or A^{n h}(q, p_i) with ``reverse``: the entries of
    n sweeps of the stack of delta fields at ``nodes``, bitwise.  Sweep 1 is
    the kernel row, sweeps 2 to n - 1 sweep the whole stack, and sweep n is
    folded only at the pairs."""
    stack = kernel.row(nodes, reverse)
    if n_steps == 1:
        return stack.reshape(-1, len(nodes))[at, fields]
    sweep = kernel.apply_reverse if reverse else kernel.apply
    for _ in range(n_steps - 2):
        stack = sweep(stack)
    return kernel.apply_at(stack, at, fields, reverse)


# verify_apriori's kernel reach_multiplier and graph radius.
_APRIORI_REACH, _GRAPH_RADIUS = 3.0, 2


def verify_apriori(model, phi, c, t, n_pairs, *, grid, h=None, seed=0,
                   n_sources=8):
    """Check the pairwise-action estimates on random point tuples, for the
    kernel at reference value 0.

    Item 1: |A^t(p,q) - C d(p,q)| <= t (Lip(phi) diam + C ||V||) + slack.
    Item 2: |A^t(p,q) - A^t(p,q~)| <= C d(q,q~) + slack.
    Item 3: |A^t(p,q) - A^t(p~,q)| <= C d(p,p~) + slack.
    Slack is C times one grid diagonal.  Every tuple is drawn first, and the
    actions are computed only at the (node, source) pairs the checks read.
    Returns a report dict; violations land in report['violations'], and
    report['timings'] holds the wall seconds of ``build_kernel``, the action
    entries (``fields``), the graph distances and the pairs.
    """
    # Negated comparisons: NaN fails them too.
    if not (np.isfinite(t) and t > 0):
        raise ValueError("horizon t must be a finite number > 0")
    if not n_sources >= 1:
        raise ValueError("n_sources must be at least 1")
    if not n_pairs >= 0:
        raise ValueError("n_pairs must be at least 0")
    rng = np.random.default_rng(seed)
    grid, h = discretization(model, grid, h)
    t0 = time.perf_counter()
    kern = build_kernel(grid, model, phi, c, 0.0, h, _APRIORI_REACH)
    t1 = time.perf_counter()
    n_steps = max(1, int(round(t / h)))
    t_eff = n_steps * h
    diam = model.diameter()
    envelope = t_eff * (phi.lipschitz_constant * diam
                        + c * model.sup_norm_bound)
    slack = c * grid.diagonal
    shape = grid.shape

    def rand_index():
        return tuple(int(rng.integers(0, n)) for n in shape)

    t2 = time.perf_counter()
    sources = [rand_index() for _ in range(n_sources)]
    targets = [rand_index() for _ in range(n_sources)]
    # (i, j, q, p~) per tuple, drawn in the order the checks name them
    draws = [(int(rng.integers(0, n_sources)), int(rng.integers(0, n_sources)),
              rand_index(), rand_index()) for _ in range(n_pairs)]
    t3 = time.perf_counter()

    def flat(indices):
        idx = np.asarray(indices, dtype=np.int64).reshape(-1, 3)
        return np.ravel_multi_index(idx.T, shape)

    i_of, j_of = (np.array([d[x] for d in draws], dtype=np.int64)
                  for x in (0, 1))
    at_q, at_p2 = (flat([d[x] for d in draws]) for x in (2, 3))
    # A^t(p, q), then A^t(p, q0); and A^t(p~, q0)
    A_from = _action_at(kern, flat(sources), n_steps,
                        np.r_[at_q, flat(targets)[j_of]], np.r_[i_of, i_of])
    A_to = _action_at(kern, flat(targets), n_steps, at_p2, j_of,
                      reverse=True)
    t4 = time.perf_counter()
    # Graph distances in the fields' layout: sources, then targets.
    dist = grid.path_distance_field(sources + targets, _GRAPH_RADIUS).T
    dist = dist.reshape(shape + (2 * n_sources,))
    t5 = time.perf_counter()

    violations = []
    worst = {"item1": -np.inf, "item2": -np.inf, "item3": -np.inf}
    checked = 0
    for n, (i, j, q, p2) in enumerate(draws):
        p, q0 = sources[i], targets[j]
        A_pq, A_pq0 = A_from[n], A_from[n_pairs + n]
        d_pq = dist[q + (i,)]
        # item 1
        m1 = abs(A_pq - c * d_pq) - (envelope + slack)
        # item 2: vary the target between q and q0 for the same source p
        m2 = abs(A_pq - A_pq0) - (c * dist[q + (n_sources + j,)] + slack)
        # item 3: vary the source between p and a fresh p~ for target q0
        m3 = abs(A_pq0 - A_to[n]) - (c * dist[p2 + (i,)] + slack)
        for name, m, tup in (("item1", m1, (p, q)), ("item2", m2, (p, q, q0)),
                             ("item3", m3, (p, p2, q0))):
            worst[name] = max(worst[name], float(m))
            if m > 0:
                violations.append({"item": name, "margin": float(m),
                                   "points": tup})
        checked += 1
    timings = {"build_kernel": t1 - t0, "fields": t4 - t3,
               "distances": t5 - t4,
               "pairs": (t3 - t2) + (time.perf_counter() - t5)}
    return {"n_checked": checked, "worst_margins": worst,
            "violations": violations, "t": t_eff, "slack": slack,
            "envelope": envelope, "passed": len(violations) == 0,
            "timings": timings}


# The quadrature step of verify_integrated_subaction's orbit integrals.
_QUAD_STEP = 0.005


def verify_integrated_subaction(u, model, phi, phi_bar, n_orbits, horizon,
                                *, seed=0, slack=None):
    """Check u(f^t x) - u(x) <= int_0^t (phi - phi_bar) along random orbits.

    Dyadic sub-horizons of ``horizon`` above four quadrature steps are all
    tested; a horizon with none raises ValueError.  The default slack
    budgets interpolation error (Lipschitz of u times one grid diagonal, at
    both endpoints) plus a quadrature term.
    """
    if not 4 * _QUAD_STEP < horizon < np.inf:  # NaN fails it too
        raise ValueError(f"horizon must be finite and > {4 * _QUAD_STEP:g}")
    if not n_orbits >= 1:
        raise ValueError("n_orbits must be at least 1")
    rng = np.random.default_rng(seed)
    if slack is None:
        slack = 2.0 * u.discrete_lipschitz() * u.grid.diagonal \
            + 50.0 * phi.lipschitz_constant \
            * _QUAD_STEP ** 2 * max(1.0, horizon)
    starts = rng.random((n_orbits, 3))
    starts[:, 2] *= model.roof
    times = []
    tt = float(horizon)
    while tt > 4 * _QUAD_STEP:
        times.append(tt)
        tt /= 2.0
    worst = np.inf
    witnesses = []
    u0 = np.asarray(u(starts), dtype=float)
    for t in times:
        ends = model.flow_map(starts, t)
        ut = np.asarray(u(ends), dtype=float)
        integ = birkhoff_integral(model, phi, starts, t, _QUAD_STEP)
        margin = (integ - phi_bar * t) - (ut - u0)
        worst = min(worst, float(margin.min()))
        bad = np.nonzero(margin < -slack)[0]
        for b in bad[:10]:
            witnesses.append({"start": starts[b].tolist(), "t": t,
                              "margin": float(margin[b])})
    return {"worst_margin": worst, "slack": float(slack),
            "violations": witnesses, "passed": len(witnesses) == 0,
            "n_orbits": n_orbits, "horizons": times}
