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

import time
from dataclasses import dataclass, field

import numpy as np

from .charts import FlowBox, adapted_norm, lattice_centers
from .grid import GridFunction, line_sum, plane_terms, trilinear_sum
from .laxoleinik import verify_integrated_subaction
from .livsic import PathSample, _flow_tracks, _path_actions
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


# The smoothing cover: every box is (0, TAU) x B(EPS) in its chart, and every
# chart table has N_T rows in t and N_Q x N_Q columns in q.
EPS = 0.1
TAU = 0.4
N_T = 48
N_Q = 13
# Base centres per torus axis on each section level: the lattice cell's
# half-diagonal stays below EPS in the adapted norm.
N_BASE = 8


@dataclass
class Cover:
    """The covering family of smoothing boxes, centres (n, 3) in pass order.

    Every box has nested chart domains D c D' c D'', with D = (0,tau) x
    B(eps), D' = (-eps, tau+eps) x B(2 eps) and D'' = (-2 eps, tau+2 eps) x
    B(3 eps) in the chart of its centre (eps = EPS, tau = TAU), and all share
    one pair of bumps and one chart table.  A level is a run of centres with
    equal section s.  ``cover[k]`` and ``cover[a:b]`` are covers of those
    boxes.
    """

    model: SuspensionFlow
    centers: np.ndarray

    bumps = BumpPair(EPS, TAU)
    fd_step = (TAU + 4 * EPS) / (N_T - 1)
    t_nodes = np.linspace(-2 * EPS, TAU + 2 * EPS, N_T)
    q_nodes = np.linspace(-3 * EPS, 3 * EPS, N_Q)

    def __len__(self):
        return len(self.centers)

    def __getitem__(self, k):
        return Cover(self.model, self.centers[k].reshape(-1, 3))

    def levels(self):
        """The covers of the levels, in pass order."""
        cut = np.flatnonzero(np.diff(self.centers[:, 2])) + 1
        return [self[a:b] for a, b in zip(np.r_[0, cut],
                                          np.r_[cut, len(self)])]

    def in_window(self, t, u):
        """Mask of chart points (t, u) inside D''; t as ``_chart_time``
        returns it, hence never below -2 eps."""
        return (t < TAU + 2 * EPS) & (adapted_norm(u) < 3 * EPS)

    def _chart_time(self, p, s):
        """Section-time representative of p in [-2 eps, roof - 2 eps) for a
        box on section level s; it depends on the box only through s."""
        roof = self.model.roof
        t_lo = -2 * EPS
        dt = p[..., 2] - s
        return dt - roof * np.floor((dt - t_lo) / roof)

    def in_core(self, t, u, margin=0.0):
        """Mask of chart points (t, u) inside D = (0,tau) x B(eps), shrunk by
        ``margin``; t as ``_chart_time`` returns it."""
        return (t > margin) & (t < TAU - margin) \
            & (adapted_norm(u) < EPS - margin)


@dataclass
class SubactionCertificate:
    u: GridFunction
    region_mask: np.ndarray
    margin: float
    lip_u: float
    lip_lie: float
    lip_phi: float
    slack: float
    phi_bar: float
    fd_step: float
    report: dict = field(default_factory=dict)

    # IEEE quotients: inf, or NaN for 0 / 0, when Lip(phi) = 0.
    @property
    def ratio_u(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(self.lip_u) / self.lip_phi)

    @property
    def ratio_lie(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(self.lip_lie) / self.lip_phi)


# Boxes per chunk of a level.  Each box prices the chunk's rectangle of
# table columns, N_T x 81 values with the default cover (not N_T * N_Q**2),
# so a chunk's phi~ tables fill about 8 * 48 * 81 * 8 bytes = 243 KiB.
# Larger chunks batch more numpy calls, but raise the peak memory and spill
# the caches.
_CHUNK = 8


@dataclass
class _Box:
    """The u-independent part of one box's pass.

    ``idx`` are the window nodes (flat, increasing), ``a`` alpha there and
    ``live`` the mask of alpha > 0.  When some node is live, the chunk's
    rectangle of chart-table columns (``n_cols`` of them) carries u's
    ``line_sum`` cells (``Grid.line_cells``: ``at`` as u's flat nodes,
    ``wab`` and ``s_cells``) and phi~ (``pht``), and ``w_terms`` holds the
    live nodes' ``trilinear_sum`` terms in that rectangle.
    """

    idx: np.ndarray
    a: np.ndarray
    live: np.ndarray
    at: np.ndarray = None
    wab: np.ndarray = None
    s_cells: tuple = None
    pht: np.ndarray = None
    w_terms: tuple = None

    @property
    def n_cols(self):
        return 0 if self.pht is None else self.pht[0].size


class _Level:
    """Chart geometry shared by the boxes of one level of the cover.

    A node's chart time depends only on the section level, so the nodes are
    flowed back to the section once and each box only reads its u off the
    flowed base.  A window holds only nodes with chart time t < tau + 2 eps,
    so only those are flowed and priced.  Every point of row t of a chart
    table crosses the roof the same number n of times, and
    A^n(c + w) = A^n c + A^n w (mod 1), so box c's table is the reference
    table (centre (0, 0, s)) moved by A^n c; one ``flow_map`` of the level's
    centres gives every shift.  The shifted table equals ``chart_forward`` up
    to the last bits of the base.

    A column of a table is one flow line.  Its base point is constant
    between roof crossings, and a crossing shows as a drop in the table's s
    column, so the rows split into runs that share every column's base.

    Only the gather of u on a box's table reads u.  Its window nodes,
    alpha and live nodes, its columns and u's line cells on them
    (``Grid.line_cells``, read through to u's own nodes), beta, phi~ along
    those columns, and the table cells of its live nodes are
    u-independent.  ``chunks`` computes them as
    ``_Box`` records for a chunk of boxes at a time (the windows box by box,
    keeping only their nodes), so that the pass that must follow the cover's
    order (``_smooth_box``) only gathers u, corrects the table and blends.
    """

    def __init__(self, cover, grid):
        model, s = cover.model, cover.centers[0, 2]
        self.cover, self.grid = cover, grid
        nodes = grid.node_points().reshape(-1, 3)
        t = cover._chart_time(nodes, s)
        # The nodes some window can hold: D'' at the chart centre u = 0.
        self.near = np.flatnonzero(cover.in_window(t, np.zeros((t.size, 2))))
        self.t = t[self.near]
        self.back = model.flow_map(nodes[self.near], -self.t)
        self.t_nodes, self.q_nodes = cover.t_nodes, cover.q_nodes
        T, Q1, Q2 = np.meshgrid(self.t_nodes, self.q_nodes, self.q_nodes,
                                indexing="ij")
        ref = FlowBox(model, np.array([0.0, 0.0, s]))
        table = ref.chart_forward(T, np.stack([Q1, Q2], axis=-1))
        shifts = model.flow_map(cover.centers[:, None, :],
                                self.t_nodes)[..., :2]
        self.s = table[:, 0, 0, 2]
        self.run = np.concatenate([[0], np.cumsum(np.diff(self.s) < 0)])
        r = np.flatnonzero(np.diff(self.run, prepend=-1))
        self.table_base = table[r][..., :2]
        self.shifts = shifts[:, r]
        # flow_map puts every row's s in [0, roof): no row needs a re-wrap.
        self.pad_nodes = grid._pad_nodes().ravel()
        self.t_cell = _table_cell(self.t_nodes, self.t)
        self.beta = cover.bumps.beta(self.t_nodes)
        self.rows = self.beta > 0

    def chunks(self, phi, phi_bar):
        """Yield, chunk by chunk in cover order, the chunk's window pairs
        (chart t, chart u and flat index of each window node of each box)
        and its ``_Box`` records."""
        for k0 in range(0, len(self.cover), _CHUNK):
            yield self._chunk(slice(k0, k0 + _CHUNK), phi, phi_bar)

    def _chunk(self, ks, phi, phi_bar):
        cover = self.cover
        # (box, node) pairs of the windows, box-major with increasing nodes.
        node, uu = [], []
        for center in cover.centers[ks]:
            u_k = FlowBox(cover.model, center).section_u(self.back)
            node.append(np.flatnonzero(cover.in_window(self.t, u_k)))
            uu.append(u_k[node[-1]])
        at = np.cumsum([n.size for n in node])[:-1]
        box_of = np.repeat(np.arange(len(node)), [n.size for n in node])
        node, uu = np.concatenate(node), np.concatenate(uu)
        a = cover.bumps.alpha(uu)
        window = (self.t[node], uu, self.near[node])
        live = a > 0
        boxes = [_Box(*split) for split in
                 zip(*(np.split(v, at) for v in (window[2], a, live)))]
        if not live.any():
            return window, boxes
        # One rectangle of columns for every box with live nodes: the q-cells
        # around the chunk's live nodes, one row of cells beyond the last.  w
        # is column-local, so a column no live node reads changes no value.
        of = box_of[live]
        has = np.flatnonzero(np.bincount(of))
        (i1, f1), (i2, f2) = (_table_cell(self.q_nodes, uu[live, ax])
                              for ax in (0, 1))
        q1, q2 = slice(i1.min(), i1.max() + 2), slice(i2.min(), i2.max() + 2)
        shifts = self.shifts[ks][has].swapaxes(0, 1)[:, :, None, None, :]
        base = np.mod(self.table_base[:, None, q1, q2] + shifts, 1.0)
        # u's cells per (run, layer) pair, box-major, read through to nodes.
        at, wab, s_cells = self.grid.line_cells(base, self.s, self.run)
        at = self.pad_nodes.take(np.moveaxis(at, 2, 0))
        wab = np.ascontiguousarray(np.moveaxis(wab, 2, 0))
        # phi~ takes the lines as (runs, columns, 2), the layout of one table.
        pht = np.zeros((self.s.size,) + base.shape[1:4])
        pht.reshape(self.s.size, -1)[self.rows] = np.asarray(
            phi.along_lines(self.s[self.rows],
                            base.reshape(base.shape[0], -1, 2),
                            self.run[self.rows]), dtype=float) - phi_bar
        # Each live node's cells in the rectangle, of shape (n_t, c1, c2).
        it, ft = (v[node[live]] for v in self.t_cell)
        w_at, w_wab = plane_terms((None,) + base.shape[2:4], (it, ft),
                                  (i1 - q1.start, f1))
        w_at += i2 - q2.start
        live_at = np.r_[np.searchsorted(of, has), of.size]
        for n, k in enumerate(has):
            box = boxes[k]
            box.at, box.wab, box.s_cells = at[n], wab[n], s_cells
            box.pht = pht[:, n]
            ls = slice(live_at[n], live_at[n + 1])
            box.w_terms = (w_at[:, ls], w_wab[:, ls], f2[ls])
        return window, boxes


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


def _check_finite(u, phi_bar):
    if not (np.all(np.isfinite(u.values)) and np.isfinite(phi_bar)):
        raise ValueError("u and phi_bar must be finite")


def _smooth_box(u, box, level):
    """One smoothing pass over ``box`` of ``level``, in place on the node
    values of u; it writes only the window nodes.

    alpha vanishes at most window nodes, and there the pass writes
    (1 - 0) u + 0 * w.  w is column-local, so u is gathered on the live
    columns only, along the flow lines, at the cells ``level`` found.
    """
    w = np.zeros(box.idx.size)
    flat = u.values.reshape(-1)
    if box.pht is not None:
        ut = line_sum(flat, box.at, box.wab, box.s_cells)
        wt = _corrected_table(level.t_nodes[1] - level.t_nodes[0],
                              level.beta, ut, box.pht)
        w[box.live] = trilinear_sum(wt.reshape(-1), *box.w_terms)
    flat[box.idx] = (1.0 - box.a) * flat[box.idx] + box.a * w


def regularize_once(u: GridFunction, box: Cover, phi, phi_bar):
    """One smoothing pass over the one-box cover ``box`` (``cover[k]``), run
    as a level of one box; output equals u exactly outside D''."""
    _check_finite(u, phi_bar)
    level = _Level(box, u.grid)
    (_, (box,)), = level.chunks(phi, phi_bar)
    out = u.copy()
    _smooth_box(out, box, level)
    return out


def default_cover(model: SuspensionFlow):
    """The deterministic smoothing cover of the model.

    Base centres on the N_BASE x N_BASE torus lattice, on section levels
    spaced so the (0, tau) cores overlap in time, level by level.  Raises
    ValueError when a box's time extent tau + 4 eps reaches the roof.
    """
    # Negated comparison: a NaN roof fails it too.
    if not TAU + 4 * EPS < model.roof:
        raise ValueError("box time extent tau + 4 eps = "
                         f"{TAU + 4 * EPS:g} must stay below the roof")
    n_levels = int(np.ceil(model.roof / (0.75 * TAU)))
    return Cover(model, lattice_centers(N_BASE, n_levels, model.roof))


def lie_derivative_field(u, model, fd_step):
    """Backward flow-difference derivative of u at every grid node."""
    nodes = u.grid.node_points().reshape(-1, 3)
    back = model.flow_map(nodes, -fd_step)
    vals = (u(nodes) - u(back)) / fd_step
    return vals.reshape(u.grid.shape)


def _smooth_cover(u0, cover, phi, phi_bar, core_margin):
    """The passes over the cover in its order, level by level.  Returns
    the smoothed u, the mask of nodes in some core shrunk by
    ``core_margin``, the mask of nodes in no core, the number of table
    columns priced, and the wall seconds of the two phases: ``passes``, the
    ordered passes, and ``chunks``, the rest (the levels, their chunks and
    the core masks, all u-independent)."""
    t0 = time.perf_counter()
    n_nodes = u0.grid.n_nodes
    mask = np.zeros(n_nodes, dtype=bool)
    uncovered = np.ones(n_nodes, dtype=bool)
    u = u0.copy()
    n_cols = 0
    passes = 0.0
    for boxes in cover.levels():
        level = _Level(boxes, u.grid)
        for (t, uu, nodes), boxes in level.chunks(phi, phi_bar):
            t1 = time.perf_counter()
            for box in boxes:
                _smooth_box(u, box, level)
                n_cols += box.n_cols
            passes += time.perf_counter() - t1
            # Both cores lie inside the windows: price the window pairs only.
            mask[nodes[cover.in_core(t, uu, core_margin)]] = True
            uncovered[nodes[cover.in_core(t, uu)]] = False
            # Free this chunk before the next one is built.
            del t, uu, nodes, boxes, box
        del level
    timings = {"chunks": time.perf_counter() - t0 - passes, "passes": passes}
    return u, mask, uncovered, n_cols, timings


def regularize_all(u0: GridFunction, cover: Cover, phi, phi_bar, *,
                   precheck=True, precheck_slack=None):
    """Compose smoothing passes over the cover and certify the result.

    The certificate's region is the union of the cover's core boxes D_i,
    shrunk by min(one grid diagonal, eps/2, tau/4) so only interior nodes are
    priced; the boundary layer of one-sided derivatives is excluded.  The
    ``precheck`` raises NotSubactionError on a violation of
    ``verify_integrated_subaction``.  ``report["timings"]`` holds the wall
    seconds of the smoothing's two phases (``_smooth_cover``).
    """
    grid = u0.grid
    model = cover.model
    _check_finite(u0, phi_bar)
    if precheck:
        rep = verify_integrated_subaction(u0, model, phi, phi_bar, 64, 1.0,
                                          slack=precheck_slack)
        if not rep["passed"]:
            raise NotSubactionError("input is not an integrated subaction "
                                    "within slack", rep["violations"][0])
    nodes = grid.node_points().reshape(-1, 3)
    core_margin = min(grid.diagonal, EPS / 2.0, TAU / 4.0)
    u, mask, uncovered_all, n_cols, timings = _smooth_cover(
        u0, cover, phi, phi_bar, core_margin)
    if not mask.any():
        raise CoverGapError("no grid node lies in any core box",
                            witness=nodes[0])
    if uncovered_all.any():
        raise CoverGapError("cover misses grid nodes",
                            witness=nodes[np.nonzero(uncovered_all)[0][0]])
    fd_step = cover.fd_step
    lie = lie_derivative_field(u, model, fd_step)
    phi_nodes = np.asarray(phi(nodes), dtype=float).reshape(grid.shape)
    mask3 = mask.reshape(grid.shape)
    margins = (phi_nodes - phi_bar - lie)[mask3]
    lip_u = u.discrete_lipschitz()
    lip_lie = GridFunction(grid, lie).discrete_lipschitz(mask3)
    lip_phi = phi.lipschitz_constant
    # One term per error source: interpolation of the Lipschitz data over a
    # cell, and the one-sided difference against a Lipschitz derivative.
    slack = 2.0 * grid.diagonal * (lip_u + lip_lie) \
        + 2.0 * (lip_phi + lip_lie) * fd_step
    return SubactionCertificate(
        u=u, region_mask=mask3,
        margin=float(margins.min()), lip_u=lip_u, lip_lie=lip_lie,
        lip_phi=lip_phi, slack=float(slack), phi_bar=float(phi_bar),
        fd_step=float(fd_step),
        report={"n_boxes": len(cover), "n_region_nodes": int(mask.sum()),
                "table_columns_priced": n_cols,
                "table_columns": len(cover) * N_Q ** 2,
                "worst_node_margin": float(margins.min()),
                "median_node_margin": float(np.median(margins)),
                "timings": timings})


# Time step of verify_subaction's sampled paths.
_PATH_STEP = 0.02


def verify_subaction(cert: SubactionCertificate, phi, phi_bar, n_samples,
                     model, *, seed=0, n_paths=100):
    """Off-grid re-check of phi - phi_bar >= L_V[u] plus a path-action check.

    Off-grid points are drawn inside the certified region; the flow derivative
    is recomputed there by the same backward difference.  The path check
    evaluates the weighted action with C = Lip(u) on random sampled paths and
    compares against -2 inf_c ||u - c||_inf.  Raises ValueError unless
    ``n_samples`` and ``n_paths`` are at least 1 and the certificate's
    ``region_mask`` holds a node to draw around.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if not np.any(cert.region_mask):
        raise ValueError("cert.region_mask holds no node to sample")
    rng = np.random.default_rng(seed)
    u = cert.u
    grid = u.grid
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
    lie = (u(pts) - u(back)) / cert.fd_step
    margins = np.asarray(phi(pts), dtype=float) - phi_bar - lie
    worst = float(margins.min())
    bad = np.nonzero(margins < -cert.slack)[0]
    witnesses = [{"point": pts[b].tolist(), "margin": float(margins[b])}
                 for b in bad[:10]]
    # Action floor on random orbit-like sampled paths.
    half_osc = 0.5 * float(u.values.max() - u.values.min())
    c_path = max(cert.lip_u, 1e-9)
    # Every path is drawn first, then all are flowed in one call; the noise
    # moves the base only, so its wrap is the base's mod 1.
    draws = []
    for _ in range(n_paths):
        T = float(rng.uniform(0.5, 3.0))
        n = max(2, int(np.ceil(T / _PATH_STEP)) + 1)
        times = np.linspace(0.0, T, n)
        start = rng.random(3)
        start[2] *= model.roof
        noise = np.zeros((n, 3))
        noise[:, :2] = 10 ** rng.uniform(-4, -2) * rng.standard_normal((n, 2))
        draws.append((times, np.broadcast_to(start, (n, 3)), times, noise))
    paths = [PathSample(t, p, model, max_step=2 * _PATH_STEP)
             for t, p in zip(*_flow_tracks(model, draws))]
    path_worst = np.min(_path_actions(paths, phi, c_path, phi_bar))
    path_floor = -2.0 * half_osc
    passed = len(witnesses) == 0 and path_worst >= path_floor - cert.slack
    return {"n_samples": int(n_samples), "worst_margin": worst,
            "slack": cert.slack, "violations": witnesses,
            "path_min_action": float(path_worst),
            "path_floor": float(path_floor), "n_paths": n_paths,
            "passed": bool(passed)}
