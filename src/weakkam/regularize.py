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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .charts import FlowBox, adapted_norm
from .grid import GridFunction, trilinear
from .laxoleinik import verify_integrated_subaction
from .models import SuspensionFlow
from .observables import smoothstep, smoothstep_prime


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
        r = adapted_norm(q)
        return 1.0 - smoothstep((r - self.eps) / self.eps)

    def beta(self, t):
        t = np.asarray(t, dtype=float)
        rise = smoothstep((t + self.eps) / self.eps)
        fall = 1.0 - smoothstep((t - self.tau) / self.eps)
        return rise * fall

    def beta_prime(self, t):
        """beta' = rise' fall + rise fall', in closed form."""
        t = np.asarray(t, dtype=float)
        x_rise = (t + self.eps) / self.eps
        x_fall = (t - self.tau) / self.eps
        rise, fall = smoothstep(x_rise), 1.0 - smoothstep(x_fall)
        return (smoothstep_prime(x_rise) * fall
                - rise * smoothstep_prime(x_fall)) / self.eps

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
        p = np.asarray(points, dtype=float)
        t = self._chart_time(p)
        return self._window(t, self.box.model.flow_map(p, -t))

    def _chart_time(self, p):
        """Section-time representative of p in [-2 eps, roof - 2 eps); it
        depends on the box only through its section level."""
        roof = self.box.model.roof
        t_lo = -2 * self.eps
        dt = p[..., 2] - self.box.center[2]
        return dt - roof * np.floor((dt - t_lo) / roof)

    def _window(self, t, back):
        """``chart_window`` from the chart times t of the points and the
        points flowed back by t to the section."""
        u = self.box.section_u(back)
        inside = (t < self.tau + 2 * self.eps) \
            & (adapted_norm(u) < 3 * self.eps)
        return t, u, inside

    def in_core(self, t, u, margin=0.0):
        """Mask of chart points (t, u) inside D = (0,tau) x B(eps), shrunk by
        ``margin``; (t, u) as returned by ``chart_window``."""
        return (t > margin) & (t < self.tau - margin) \
            & (adapted_norm(u) < self.eps - margin)


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


def _level_key(spec):
    """Boxes with equal keys share their node chart times and chart tables."""
    return (float(spec.box.center[2]), spec.eps, spec.tau, spec.n_t,
            spec.n_q)


class _Level:
    """Chart geometry shared by boxes of one ``_level_key``.

    A node's chart time depends only on the section level, so the nodes are
    flowed back to the section once and each box only reads its u off the
    flowed base.  Every point of row t of a chart table crosses the roof the
    same number n of times, and A^n(c + w) = A^n c + A^n w (mod 1), so box
    c's table is the reference table (centre (0, 0, s)) moved by A^n c; one
    ``flow_map`` of the level's centres gives every shift.  The shifted
    table equals ``chart_forward`` up to the last bits of the base.

    A column of a table is one flow line.  Its base point is constant
    between roof crossings, and a crossing shows as a drop in the table's s
    column, so the rows split into runs that share every column's base.
    """

    def __init__(self, specs, nodes):
        first = specs[0]
        model = first.box.model
        self.t = first._chart_time(nodes)
        self.back = model.flow_map(nodes, -self.t)
        self.t_nodes = np.linspace(-2 * first.eps, first.tau + 2 * first.eps,
                                   first.n_t)
        self.q_nodes = np.linspace(-3 * first.eps, 3 * first.eps, first.n_q)
        T, Q1, Q2 = np.meshgrid(self.t_nodes, self.q_nodes, self.q_nodes,
                                indexing="ij")
        ref = FlowBox(model, np.array([0.0, 0.0, first.box.center[2]]),
                      first.tau)
        self.table = ref.chart_forward(T, np.stack([Q1, Q2], axis=-1))
        centers = np.array([spec.box.center for spec in specs])
        self.shifts = model.flow_map(centers[:, None, :],
                                     self.t_nodes)[..., :2]
        self.s = self.table[:, 0, 0, 2]
        self.run = np.concatenate([[0], np.cumsum(np.diff(self.s) < 0)])
        self.run_start = np.flatnonzero(np.diff(self.run, prepend=-1))

    def window(self, spec):
        """``spec.chart_window`` of the nodes."""
        return spec._window(self.t, self.back)

    def base(self, k, cols):
        """Box k's chart-table base points on each run, over the columns
        ``cols`` (a pair of q-index slices): shape (runs, q1, q2, 2)."""
        r = self.run_start
        return np.mod(self.table[r][:, cols[0], cols[1], :2]
                      + self.shifts[k][r][:, None, None, :], 1.0)


def _corrected_table(dt, beta, ut, pht):
    """The corrected function w on the chart table.

    Backward differences of u and left-rectangle cumulative sums share the
    same step, so partial sums of beta*(phi~ - du) telescope exactly against
    u's increments; that is what preserves the integrated-subaction
    inequality at the discrete level.  Every operation runs along t, so each
    column of w depends only on the same column of u and phi~.
    """
    du = np.empty_like(ut)
    du[1:] = (ut[1:] - ut[:-1]) / dt
    du[0] = du[1]
    integrand = beta[:, None, None] * (pht - du)
    I = dt * np.cumsum(integrand, axis=0)
    B = dt * np.cumsum(beta)
    mean_q = I[-1] / B[-1]
    return ut + I - B[:, None, None] * mean_q[None]


def _table_cell(nodes, x):
    """Lower-corner index of chart coordinates x on a uniform table axis,
    and the fractional offset from it."""
    step = nodes[1] - nodes[0]
    f = np.clip((np.asarray(x) - nodes[0]) / step, 0, len(nodes) - 1 - 1e-12)
    i = f.astype(np.int64)
    return i, f - i


def check_integrated_subaction(u, model, phi, phi_bar, slack=None, n_orbits=64,
                               horizon=1.0, seed=0):
    report = verify_integrated_subaction(u, model, phi, phi_bar, n_orbits,
                                         horizon, seed=seed, slack=slack)
    if not report["passed"]:
        raise NotSubactionError("input is not an integrated subaction within "
                                "slack", witness=report["violations"][0])
    return report


def _smooth_box(u, spec, level, k, window, phi, phi_bar):
    """One smoothing pass over box k of ``level`` with node window
    ``window``; output equals u exactly outside D''.  Returns the new u and
    the number of table columns priced.

    alpha vanishes at most window nodes, and there the pass writes
    (1 - 0) u + 0 * w.  w is column-local, so only the columns around the
    nodes with alpha > 0 are priced, u and phi both along the flow lines
    (once per run base), phi on the rows where beta > 0 only.
    """
    t, uu, inside = window
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        return u.copy(), 0
    a = spec.bumps.alpha(uu[idx])
    live = a > 0
    w_vals = np.zeros(idx.size)
    n_cols = 0
    if live.any():
        cells = [_table_cell(level.t_nodes, t[idx[live]])] + [
            _table_cell(level.q_nodes, uu[idx[live], ax]) for ax in (0, 1)]
        cols = tuple(slice(i.min(), i.max() + 2) for i, _ in cells[1:])
        base = level.base(k, cols)
        ut = u.interpolate_lines(level.s, base, level.run)
        # phi enters w only through beta * phi~: skip the rows where beta = 0.
        beta = spec.bumps.beta(level.t_nodes)
        rows = beta > 0
        pht = np.zeros_like(ut)
        pht[rows] = np.asarray(
            phi.along_lines(level.s[rows], base, level.run[rows]),
            dtype=float) - phi_bar
        wt = _corrected_table(level.t_nodes[1] - level.t_nodes[0], beta, ut,
                              pht)
        cells[1:] = [(i - c.start, f) for (i, f), c in zip(cells[1:], cols)]
        w_vals[live] = trilinear(wt, cells)
        n_cols = ut.shape[1] * ut.shape[2]
    flat = u.values.reshape(-1).copy()
    dense_here = flat[idx] + u.offset
    new_dense = (1.0 - a) * dense_here + a * w_vals
    flat[idx] = new_dense - u.offset
    return GridFunction(u.grid, flat.reshape(u.grid.shape), u.offset), n_cols


def regularize_once(u: GridFunction, spec: RegularizerSpec, phi, phi_bar,
                    check_precondition=True):
    """One smoothing pass; output equals u exactly outside D''."""
    if check_precondition:
        check_integrated_subaction(u, spec.box.model, phi, phi_bar)
    level = _Level([spec], u.grid.node_points().reshape(-1, 3))
    return _smooth_box(u, spec, level, 0, level.window(spec), phi, phi_bar)[0]


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
    if not (np.all(np.isfinite(u0.values)) and np.isfinite(u0.offset)
            and np.isfinite(phi_bar)):
        raise ValueError("u0 and phi_bar must be finite")
    if precheck:
        check_integrated_subaction(u0, model, phi, phi_bar,
                                   slack=precheck_slack)
    nodes = grid.node_points().reshape(-1, 3)
    if core_margin is None:
        eps_min = min(s.eps for s in cover)
        tau_min = min(s.tau for s in cover)
        core_margin = min(grid.diagonal, eps_min / 2.0, tau_min / 4.0)
    # One level's geometry is alive at a time; each box's node window serves
    # its pass and both core masks.
    mask = np.zeros(nodes.shape[0], dtype=bool)
    uncovered_all = np.ones(nodes.shape[0], dtype=bool)
    u = u0
    n_cols = 0
    ordered = sorted(cover, key=lambda s: s.index)
    for _, group in itertools.groupby(ordered, key=_level_key):
        specs = list(group)
        level = _Level(specs, nodes)
        for k, spec in enumerate(specs):
            window = level.window(spec)
            u, cols = _smooth_box(u, spec, level, k, window, phi, phi_bar)
            n_cols += cols
            # Both cores lie inside the window: price its nodes only.
            t, uu, inside = window
            t, uu = t[inside], uu[inside]
            mask[inside] |= spec.in_core(t, uu, margin=core_margin)
            uncovered_all[inside] &= ~spec.in_core(t, uu, margin=0.0)
        del level
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
                "table_columns_priced": n_cols,
                "table_columns": sum(s.n_q ** 2 for s in cover),
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
    from .livsic import PathSample, _flow_tracks, _path_actions

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
    # Every path is drawn first, then all are flowed in one call; the noise
    # moves the base only, so its wrap is the base's mod 1.
    draws = []
    for _ in range(n_paths):
        T = float(rng.uniform(0.5, 3.0))
        n = max(2, int(np.ceil(T / path_step)) + 1)
        times = np.linspace(0.0, T, n)
        start = rng.random(3)
        start[2] *= model.roof
        noise = np.zeros((n, 3))
        noise[:, :2] = 10 ** rng.uniform(-4, -2) * rng.standard_normal((n, 2))
        draws.append((times, np.broadcast_to(start, (n, 3)), times, noise))
    paths = [PathSample(t, p, model, max_step=2 * path_step)
             for t, p in zip(*_flow_tracks(model, draws))] if draws else []
    path_worst = np.min(_path_actions(paths, phi, c_path, phi_bar),
                        initial=np.inf)
    path_floor = -2.0 * half_osc
    passed = len(witnesses) == 0 and path_worst >= path_floor - cert.slack
    return {"n_samples": int(n_samples), "worst_margin": worst,
            "slack": cert.slack, "violations": witnesses,
            "path_min_action": float(path_worst),
            "path_floor": float(path_floor), "n_paths": n_paths,
            "passed": bool(passed)}
