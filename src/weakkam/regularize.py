"""Flow-box smoothing of integrated subactions.

One smoothing pass works in a chart (t, q) where the flow is d/dt: the
corrected function

    w(t,q) = u(t,q) + int_{-eps}^t beta (phi~ - du/dt) ds
             - (int_{-eps}^t beta) * mean_q

with mean_q = int beta (phi~ - du/dt) / int beta, is glued back by
v = (1-alpha(q)) u + alpha(q) w.  Because beta is in [0,1] and the correction
telescopes against the backward differences of u, the integrated-subaction
inequality survives discretization exactly up to quadrature slack, while on
the plateau the flow derivative of v becomes phi~ minus a constant, hence
Lipschitz.  Composing passes over a covering family upgrades a merely
Lipschitz integrated subaction into one with a Lipschitz flow derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import FlowBox
from .grid import GridFunction
from .laxoleinik import verify_integrated_subaction
from .models import SuspensionFlow
from .observables import smoothstep


class NotSubactionError(RuntimeError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class CoverGapError(RuntimeError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


@dataclass
class BumpPair:
    """Quintic plateau bumps for one box size eps and plateau length tau.

    alpha: B(3 eps) -> [0,1], 1 on B(eps), supported in B(2 eps) (max-norm
    radial).  beta: (-2 eps, tau + 2 eps) -> [0,1], 1 on (0, tau), supported
    in (-eps, tau + eps).
    """

    eps: float
    tau: float

    def alpha(self, q):
        r = np.abs(np.asarray(q, dtype=float)).max(axis=-1)
        return 1.0 - smoothstep((r - self.eps) / self.eps)

    def beta(self, t):
        t = np.asarray(t, dtype=float)
        rise = smoothstep((t + self.eps) / self.eps)
        fall = 1.0 - smoothstep((t - self.tau) / self.eps)
        return rise * fall

    def beta_prime(self, t, fd=1e-7):
        return (self.beta(np.asarray(t) + fd) - self.beta(np.asarray(t) - fd)) \
            / (2 * fd)

    def check(self, n_samples=200, seed=0):
        """Sampled support/plateau invariants; beta' integrates to zero."""
        rng = np.random.default_rng(seed)
        q_in = rng.uniform(-self.eps, self.eps, (n_samples, 2))
        q_out = rng.uniform(2 * self.eps, 3 * self.eps, (n_samples, 2))
        t_in = rng.uniform(0.0, self.tau, n_samples)
        t_out = np.concatenate([
            rng.uniform(-2 * self.eps, -self.eps, n_samples // 2),
            rng.uniform(self.tau + self.eps, self.tau + 2 * self.eps,
                        n_samples // 2)])
        ts = np.linspace(-2 * self.eps, self.tau + 2 * self.eps, 4001)
        net = np.trapezoid(self.beta_prime(ts), ts)
        ok = (np.all(self.alpha(q_in) == 1.0)
              and np.all(self.alpha(q_out) == 0.0)
              and np.all(self.beta(t_in) == 1.0)
              and np.all(self.beta(t_out) == 0.0)
              and bool(np.all((self.beta(ts) >= 0) & (self.beta(ts) <= 1)))
              and abs(net) < 1e-6)
        return bool(ok)


@dataclass
class RegularizerSpec:
    """One smoothing box: nested chart domains D c D' c D''.

    D = (0,tau) x B(eps), D' = (-eps, tau+eps) x B(2 eps),
    D'' = (-2 eps, tau+2 eps) x B(3 eps), all in the chart of ``box``.
    """

    index: int
    box: FlowBox
    eps: float
    tau: float
    bumps: BumpPair = None
    fd_step: float = None
    n_t: int = 48
    n_q: int = 13

    def __post_init__(self):
        if self.bumps is None:
            self.bumps = BumpPair(self.eps, self.tau)
        if self.fd_step is None:
            self.fd_step = (self.tau + 4 * self.eps) / (self.n_t - 1)
        if not (0 < self.eps and 0 < self.tau):
            raise ValueError("eps and tau must be positive")
        if self.tau + 4 * self.eps >= self.box.model.roof:
            raise ValueError("box time extent must stay below one roof period")

    def chart_window(self, points):
        """(t, u, inside_mask) of manifold points relative to this box's D''.

        Each point has at most one section-time representative inside
        (-2 eps, tau + 2 eps) because the window is shorter than the roof.
        """
        model = self.box.model
        roof = model.roof
        p = np.asarray(points, dtype=float)
        t_lo = -2 * self.eps
        dt = p[..., 2] - self.box.center[2]
        t = dt - roof * np.floor((dt - t_lo) / roof)
        q0 = model.flow_map(p, -t)
        db = q0[..., :2] - self.box.center[:2]
        db = db - np.round(db)
        u = db @ self.box.frame_inv.T
        inside = (t < self.tau + 2 * self.eps) \
            & (np.abs(u).max(axis=-1) < 3 * self.eps)
        return t, u, inside

    def in_core(self, t, u, margin=0.0):
        """Mask of chart points (t, u) inside D = (0,tau) x B(eps), shrunk by
        ``margin``; (t, u) as returned by ``chart_window``."""
        return (t > margin) & (t < self.tau - margin) \
            & (np.abs(u).max(axis=-1) < self.eps - margin)


@dataclass
class SubactionCertificate:
    u: GridFunction
    lie_derivative: np.ndarray
    region_mask: np.ndarray
    margin: float
    lip_u: float
    lip_lie: float
    lip_phi: float
    slack: float
    phi_bar: float
    fd_step: float
    report: dict = field(default_factory=dict)

    @property
    def ratio_u(self):
        return self.lip_u / self.lip_phi

    @property
    def ratio_lie(self):
        return self.lip_lie / self.lip_phi


def _chart_tables(u, spec: RegularizerSpec, phi, phi_bar):
    """Pull u and phi back to the box chart grid; returns (t_nodes, q_nodes,
    u_table, phi_table) with axes (t, q1, q2)."""
    t_nodes = np.linspace(-2 * spec.eps, spec.tau + 2 * spec.eps, spec.n_t)
    q_nodes = np.linspace(-3 * spec.eps, 3 * spec.eps, spec.n_q)
    T, Q1, Q2 = np.meshgrid(t_nodes, q_nodes, q_nodes, indexing="ij")
    U = np.stack([Q1, Q2], axis=-1)
    pts = spec.box.chart_forward(T, U)
    ut = np.asarray(u(pts), dtype=float)
    pht = np.asarray(phi(pts), dtype=float) - phi_bar
    return t_nodes, q_nodes, ut, pht


def _corrected_table(spec, t_nodes, ut, pht):
    """The corrected function w on the chart table.

    Backward differences of u and left-rectangle cumulative sums share the
    same step, so partial sums of beta*(phi~ - du) telescope exactly against
    u's increments; that is what preserves the integrated-subaction
    inequality at the discrete level.
    """
    dt = t_nodes[1] - t_nodes[0]
    beta = spec.bumps.beta(t_nodes)
    du = np.empty_like(ut)
    du[1:] = (ut[1:] - ut[:-1]) / dt
    du[0] = du[1]
    integrand = beta[:, None, None] * (pht - du)
    I = dt * np.cumsum(integrand, axis=0)
    B = dt * np.cumsum(beta)
    mean_q = I[-1] / B[-1]
    return ut + I - B[:, None, None] * mean_q[None]


def _interp_table(t_nodes, q_nodes, table, t, u):
    """Trilinear interpolation of a chart table at (t, u) queries."""
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


def check_integrated_subaction(u, model, phi, phi_bar, slack=None, n_orbits=64,
                               horizon=1.0, seed=0):
    report = verify_integrated_subaction(u, model, phi, phi_bar, n_orbits,
                                         horizon, seed=seed, slack=slack)
    if not report["passed"]:
        raise NotSubactionError("input is not an integrated subaction within "
                                "slack", witness=report["violations"][0])
    return report


def regularize_once(u: GridFunction, spec: RegularizerSpec, phi, phi_bar,
                    check_precondition=True, window=None):
    """One smoothing pass; output equals u exactly outside D''.

    ``window`` is ``spec.chart_window`` of the grid nodes, if the caller
    already has it."""
    if check_precondition:
        check_integrated_subaction(u, spec.box.model, phi, phi_bar)
    t_nodes, q_nodes, ut, pht = _chart_tables(u, spec, phi, phi_bar)
    wt = _corrected_table(spec, t_nodes, ut, pht)
    grid = u.grid
    if window is None:
        window = spec.chart_window(grid.node_points().reshape(-1, 3))
    t, uu, inside = window
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        return u.copy()
    a = spec.bumps.alpha(uu[idx])
    w_vals = _interp_table(t_nodes, q_nodes, wt, t[idx], uu[idx])
    flat = u.values.reshape(-1).copy()
    dense_here = flat[idx] + u.offset
    new_dense = (1.0 - a) * dense_here + a * w_vals
    flat[idx] = new_dense - u.offset
    return GridFunction(grid, flat.reshape(grid.shape), u.offset)


def default_cover(model: SuspensionFlow, eps=0.1, tau=0.4, n_base=8,
                  n_levels=None):
    """Deterministic covering family of smoothing boxes.

    Base centers on an n x n torus lattice (cell half-diagonal below eps in
    the adapted norm), section levels spaced so the (0,tau) cores overlap in
    time.
    """
    if n_levels is None:
        n_levels = int(np.ceil(model.roof / (0.75 * tau)))
    specs = []
    k = 0
    for lev in range(n_levels):
        s0 = lev * model.roof / n_levels
        for i in range(n_base):
            for j in range(n_base):
                center = np.array([i / n_base, j / n_base, s0])
                specs.append(RegularizerSpec(index=k,
                                             box=FlowBox(model, center, tau),
                                             eps=eps, tau=tau))
                k += 1
    return specs


def lie_derivative_field(u, model, fd_step):
    """Backward flow-difference derivative of u at every grid node."""
    nodes = u.grid.node_points().reshape(-1, 3)
    back = model.flow_map(nodes, -fd_step)
    vals = (np.asarray(u(nodes), dtype=float)
            - np.asarray(u(back), dtype=float)) / fd_step
    return vals.reshape(u.grid.shape)


def regularize_all(u0: GridFunction, cover, phi, phi_bar, *, slack=None,
                   fd_step=None, precheck=True, precheck_slack=None,
                   core_margin=None):
    """Compose smoothing passes over the cover and certify the result.

    The certificate's region is the union of the cover's core boxes D_i,
    shrunk by ``core_margin`` (default one grid diagonal) so only interior
    nodes are priced; the boundary layer of one-sided derivatives is excluded.
    """
    grid = u0.grid
    model = cover[0].box.model
    if precheck:
        check_integrated_subaction(u0, model, phi, phi_bar,
                                   slack=precheck_slack)
    nodes = grid.node_points().reshape(-1, 3)
    if core_margin is None:
        eps_min = min(s.eps for s in cover)
        tau_min = min(s.tau for s in cover)
        core_margin = min(grid.diagonal, eps_min / 2.0, tau_min / 4.0)
    # Each box charts the nodes once; the pass and both core masks share it.
    mask = np.zeros(nodes.shape[0], dtype=bool)
    uncovered_all = np.ones(nodes.shape[0], dtype=bool)
    u = u0
    for spec in sorted(cover, key=lambda s: s.index):
        window = spec.chart_window(nodes)
        u = regularize_once(u, spec, phi, phi_bar, check_precondition=False,
                            window=window)
        t, uu, _ = window
        mask |= spec.in_core(t, uu, margin=core_margin)
        uncovered_all &= ~spec.in_core(t, uu, margin=0.0)
    if not mask.any():
        raise CoverGapError("no grid node lies in any core box",
                            witness=nodes[0])
    if uncovered_all.any():
        raise CoverGapError("cover misses grid nodes",
                            witness=nodes[np.nonzero(uncovered_all)[0][0]])
    if fd_step is None:
        fd_step = min(s.fd_step for s in cover)
    lie = lie_derivative_field(u, model, fd_step)
    phi_nodes = np.asarray(phi(nodes), dtype=float).reshape(grid.shape)
    mask3 = mask.reshape(grid.shape)
    margins = (phi_nodes - phi_bar - lie)[mask3]
    lip_u = u.discrete_lipschitz()
    lip_lie = GridFunction(grid, lie).discrete_lipschitz(mask3)
    lip_phi = phi.lipschitz_constant
    if slack is None:
        # One term per error source: interpolation of the Lipschitz data over
        # a cell, and the one-sided difference against a Lipschitz derivative.
        slack = 2.0 * grid.diagonal * (lip_u + lip_lie) \
            + 2.0 * (lip_phi + lip_lie) * fd_step
    return SubactionCertificate(
        u=u, lie_derivative=lie, region_mask=mask3,
        margin=float(margins.min()), lip_u=lip_u, lip_lie=lip_lie,
        lip_phi=lip_phi, slack=float(slack), phi_bar=float(phi_bar),
        fd_step=float(fd_step),
        report={"n_boxes": len(cover), "n_region_nodes": int(mask.sum()),
                "worst_node_margin": float(margins.min()),
                "median_node_margin": float(np.median(margins))})


def verify_subaction(cert: SubactionCertificate, phi, phi_bar, n_samples,
                     *, model=None, seed=0, n_paths=100, path_step=0.02):
    """Off-grid re-check of phi - phi_bar >= L_V[u] plus a path-action check.

    Off-grid points are drawn inside the certified region; the flow derivative
    is recomputed there by the same backward difference.  The path check
    evaluates the weighted action with C = Lip(u) on random sampled paths and
    compares against -2 inf_c ||u - c||_inf.
    """
    from .livsic import PathSample, weighted_action

    rng = np.random.default_rng(seed)
    u = cert.u
    grid = u.grid
    if model is None:
        raise ValueError("model is required")
    pts = []
    target = n_samples
    while len(pts) < target:
        cand = rng.random((4 * target, 3))
        cand[:, 2] *= model.roof
        ii, jj, kk = grid.nearest_index(cand)
        keep = cert.region_mask[ii, jj, kk]
        pts.extend(cand[keep][:target - len(pts)])
    pts = np.asarray(pts)
    back = model.flow_map(pts, -cert.fd_step)
    lie = (np.asarray(u(pts), dtype=float)
           - np.asarray(u(back), dtype=float)) / cert.fd_step
    margins = np.asarray(phi(pts), dtype=float) - phi_bar - lie
    worst = float(margins.min())
    bad = np.nonzero(margins < -cert.slack)[0]
    witnesses = [{"point": pts[b].tolist(), "margin": float(margins[b])}
                 for b in bad[:10]]
    # Action floor on random orbit-like sampled paths.
    dense = u.dense()
    half_osc = 0.5 * float(dense.max() - dense.min())
    c_path = max(cert.lip_u, 1e-9)
    path_worst = np.inf
    for _ in range(n_paths):
        T = float(rng.uniform(0.5, 3.0))
        n = max(2, int(np.ceil(T / path_step)) + 1)
        times = np.linspace(0.0, T, n)
        start = rng.random(3)
        start[2] *= model.roof
        ptsp = np.array([model.flow_map(start, t) for t in times])
        noise = 10 ** rng.uniform(-4, -2)
        ptsp[:, :2] = np.mod(ptsp[:, :2] + noise * rng.standard_normal(
            (n, 2)), 1.0)
        path = PathSample(times, ptsp, model, max_step=2 * path_step)
        a = weighted_action(path, phi, c_path, phi_bar)
        path_worst = min(path_worst, a)
    path_floor = -2.0 * half_osc
    passed = len(witnesses) == 0 and path_worst >= path_floor - cert.slack
    return {"n_samples": int(n_samples), "worst_margin": worst,
            "slack": cert.slack, "violations": witnesses,
            "path_min_action": float(path_worst),
            "path_floor": float(path_floor), "n_paths": n_paths,
            "passed": bool(passed)}
