"""Weighted action over paths, trap-box classification, explicit constants,
pseudo-orbit factorization, and the positive lower-bound scan.

The weighted action of a path z with weight C prices both the observable
along the path and the L1 deviation of its velocity from the vector field:

    A_{phi,C}(z) = int_0^T [ (phi - phi_bar) o z + C ||V o z - z'|| ] ds.

Paths are piecewise linear between time-stamped nodes; quadrature is
composite midpoint per segment, so the action is exactly additive under
concatenation.  Every orbit leg and chart track of a path is one batched
``flow_map`` call, the Birkhoff terms of a segment bound are signed
``birkhoff_integral`` calls, and lifted points are wrapped back into the
fundamental domain by ``model.flow_map(p, 0.0)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import FlowBoxAtlas, poincare_map
from .models import Observable, SuspensionFlow, birkhoff_integral


class UncoveredStartError(RuntimeError):
    pass


@dataclass
class PathSample:
    """Continuous piecewise-C^1 path as time-stamped nodes.

    Node displacements are stored lifted (roof-glued), so velocities are well
    defined across the gluing as long as node spacing stays below half the
    injectivity scale.
    """

    times: np.ndarray
    points: np.ndarray
    model: SuspensionFlow
    max_step: float = 0.2

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.points):
            raise ValueError("times and points must have matching lengths")
        dt = np.diff(self.times)
        if len(dt) == 0 or np.any(dt <= 0):
            raise ValueError("times must be strictly increasing with T > 0")
        if float(dt.max()) > self.max_step + 1e-12:
            raise ValueError("node spacing exceeds the configured max step")

    @property
    def duration(self):
        return float(self.times[-1] - self.times[0])

    def segment_data(self):
        """(dt, midpoints, velocities) per segment, lifted across the gluing."""
        dt = np.diff(self.times)
        delta = self.model.difference(self.points[1:], self.points[:-1])
        mids = self.points[:-1] + 0.5 * delta
        mids = self.model.flow_map(mids, 0.0)
        vel = delta / dt[:, None]
        return dt, mids, vel

    def point_at(self, t):
        """Linear interpolation in lifted coordinates."""
        k = int(np.clip(np.searchsorted(self.times, t, side="right") - 1,
                        0, len(self.times) - 2))
        th = (t - self.times[k]) / (self.times[k + 1] - self.times[k])
        delta = self.model.difference(self.points[k + 1], self.points[k])
        return self.model.flow_map(self.points[k] + th * delta, 0.0)

    def restrict(self, t0, t1):
        """Sub-path on [t0, t1] with interpolated endpoints, re-based at 0."""
        inner = (self.times > t0 + 1e-12) & (self.times < t1 - 1e-12)
        ts = np.concatenate([[t0], self.times[inner], [t1]])
        ps = np.vstack([self.point_at(t0)[None, :], self.points[inner],
                        self.point_at(t1)[None, :]])
        return PathSample(ts - t0, ps, self.model, self.max_step)


def weighted_action(path: PathSample, phi: Observable, c, phi_bar):
    """Composite-midpoint quadrature of the weighted action."""
    if c < 0:
        raise ValueError("weight must be nonnegative")
    dt, mids, vel = path.segment_data()
    model = path.model
    v_field = model.velocity(mids)
    dev = np.linalg.norm(v_field - vel, axis=-1)
    vals = np.asarray(phi(mids), dtype=float) - phi_bar
    return float(np.sum(dt * (vals + c * dev)))


@dataclass(frozen=True)
class LivsicConstants:
    c1: float
    c2: float
    c3: float
    c4: float
    a_star: float
    delta_lambda: float
    c_lambda_distortion: float
    k_gamma: float
    n_gamma: int
    lip_gamma: float
    diam_omega: float
    tau: float
    eps: float
    lip_phi: float

    def __post_init__(self):
        if self.c4 < max(self.c3, self.c2) - 1e-9:
            raise ValueError("c4 must dominate c2 and c3")


def compute_constants(atlas: FlowBoxAtlas, phi: Observable, k_tilde):
    """Evaluate all explicit action constants from the atlas data."""
    tau, eps = atlas.tau, atlas.eps
    lp = phi.lipschitz_constant
    if lp <= 0:
        raise ValueError("observable must have positive Lipschitz constant")
    lg = atlas.lip_gamma
    diam = atlas.diam_omega()
    ng = atlas.n_gamma
    c1 = 6.0 * (1 + tau) * lp * lg ** 2 * (1 + diam)
    a_star = 9.0 * tau * (1 + tau) * lp * lg * (1 + diam) * ng
    c2 = max(32.0 * (tau / eps) * (1 + tau) * lp * lg ** 2 * (1 + diam),
             4.0 * (a_star / eps) * lg)
    c3 = 12.0 * np.sqrt(2.0) * (1 + tau) * k_tilde * lp * lg ** 4 * (1 + diam)
    c_lam = 36.0 * (tau / eps) * (1 + tau) * k_tilde * lg ** 4 * (1 + diam) * ng
    c4 = max(c_lam * lp, c2, c3)
    delta_lam = 8.0 * tau * (1 + tau) * lg * (1 + diam)
    return LivsicConstants(c1=c1, c2=c2, c3=c3, c4=c4, a_star=a_star,
                           delta_lambda=delta_lam, c_lambda_distortion=c_lam,
                           k_gamma=float(k_tilde), n_gamma=ng, lip_gamma=lg,
                           diam_omega=diam, tau=tau, eps=eps, lip_phi=lp)


@dataclass
class SegmentClassification:
    kind: str  # pseudo | escaped | trapped
    box_index: int
    exit_time: float  # path time of the boundary crossing (T for trapped)
    boundary: str = None  # 'plus' or 'minus'
    y_index: int = None
    y_within_eps: bool = True
    r_x: float = None
    q_x: np.ndarray = None
    r_y: float = None
    q_y: np.ndarray = None
    phi_xy: float = None
    psi_x: float = None
    psi_y: float = None
    remainder: float = None
    action: float = None
    lower_bound: float = None
    bound_margin: float = None


def _track_chart_coords(box, path: PathSample):
    """Unwrapped chart coordinates (t_k, u_k) of every path node: t_k follows
    t_0 (the chart time nearest 0) by the wrapped s-steps of the path."""
    roof = path.model.roof
    s = path.points[:, 2]
    raw = s - box.center[2]
    ds = np.diff(s)
    ds -= roof * np.round(ds / roof)
    t0 = raw[0] - roof * np.round(raw[0] / roof)
    expect = t0 + np.concatenate([[0.0], np.cumsum(ds)])
    ts = raw + roof * np.round((expect - raw) / roof)
    return ts, box.transverse(path.points, ts)


def classify_segment(path: PathSample, atlas: FlowBoxAtlas, phi: Observable,
                     constants: LivsicConstants, phi_bar=0.0, start_box=None,
                     c=None, quad_step=0.02):
    """Classify one trap-box passage of the path and verify its lower bound.

    The path is followed in the chart of its starting box until it first
    crosses the trap-box boundary (t = tau forward, or t = -2 eps / side walls
    backward).  Returns a SegmentClassification whose ``exit_time`` tells the
    caller where the next segment starts.
    """
    eps, tau = atlas.eps, atlas.tau
    model = path.model
    if start_box is None:
        start_box = atlas.nearest_center(path.points[0])
        if start_box is None:
            raise UncoveredStartError("path does not start inside any U_x(eps)")
    box = atlas._box(start_box)
    c_used = constants.c1 if c is None else float(c)
    ts, us = _track_chart_coords(box, path)
    unorm = np.abs(us).max(axis=1)
    exit_k = None
    boundary = None
    for k in range(1, len(ts)):
        if ts[k] >= tau:
            exit_k, boundary = k, "plus"
            break
        if ts[k] <= -2 * eps or unorm[k] >= 2 * eps:
            exit_k, boundary = k, "minus"
            break
    if exit_k is None:
        sub = path
        action = weighted_action(sub, phi, c_used, phi_bar)
        lb = -8.0 * constants.tau * (1 + constants.tau) * constants.lip_phi \
            * constants.lip_gamma * (1 + constants.diam_omega)
        return SegmentClassification(
            kind="trapped", box_index=int(start_box) if np.isscalar(start_box)
            or isinstance(start_box, (int, np.integer)) else -1,
            exit_time=float(path.times[-1]), action=action, lower_bound=lb,
            bound_margin=action - lb)
    # Linear interpolation of the crossing inside segment (k-1, k).
    if boundary == "plus":
        th = (tau - ts[exit_k - 1]) / (ts[exit_k] - ts[exit_k - 1])
    else:
        cands = []
        if ts[exit_k] <= -2 * eps:
            cands.append((-2 * eps - ts[exit_k - 1])
                         / (ts[exit_k] - ts[exit_k - 1]))
        if unorm[exit_k] >= 2 * eps:
            cands.append((2 * eps - unorm[exit_k - 1])
                         / max(unorm[exit_k] - unorm[exit_k - 1], 1e-15))
        th = float(np.clip(min(cands), 0.0, 1.0))
    t_cross = float(path.times[exit_k - 1]
                    + th * (path.times[exit_k] - path.times[exit_k - 1]))
    t_cross = min(max(t_cross, path.times[0] + 1e-9), path.times[-1])
    sub = path.restrict(path.times[0], t_cross)
    action = weighted_action(sub, phi, c_used, phi_bar)
    idx = int(start_box) if isinstance(start_box, (int, np.integer)) else -1
    if boundary == "minus":
        return SegmentClassification(
            kind="escaped", box_index=idx, exit_time=t_cross, boundary="minus",
            action=action, lower_bound=constants.a_star,
            bound_margin=action - constants.a_star)
    # Pseudo exit: land the endpoint in some U_y(eps).
    z0 = path.points[0]
    zT = sub.points[-1]
    y_idx = atlas.nearest_center(zT, max_adapted=eps)
    y_within = y_idx is not None
    if y_idx is None:
        y_idx = atlas.nearest_center(zT, max_adapted=np.inf)
    box_y = atlas._box(y_idx)
    r_x, q_x = ts[0], us[0]
    r_y_arr, q_y = box_y.chart_inverse(zT)
    r_y = float(r_y_arr)
    # Return time from the section projection of z(0) to Sigma_y.
    zx = model.flow_map(z0, -r_x)
    t_ret = r_x + (t_cross - path.times[0]) - r_y  # exact for flat sections
    zy = model.flow_map(zT, -r_y)
    phi_xy, psi_x, psi_y = (
        float(birkhoff_integral(model, phi, z, t, quad_step)) - phi_bar * t
        for z, t in ((zx, t_ret), (zx, r_x), (zy, r_y)))
    fq = poincare_map(atlas, start_box, y_idx, q_x, strict=False,
                      t_hint=t_ret)
    rem_norm = float(np.abs(fq - q_y).max())
    rem = c_used / (np.sqrt(8.0) * constants.lip_gamma ** 3) * rem_norm
    lb = phi_xy + psi_y - psi_x + rem
    return SegmentClassification(
        kind="pseudo", box_index=idx, exit_time=t_cross, boundary="plus",
        y_index=int(y_idx), y_within_eps=y_within, r_x=float(r_x), q_x=q_x,
        r_y=r_y, q_y=np.asarray(q_y), phi_xy=phi_xy, psi_x=psi_x, psi_y=psi_y,
        remainder=rem, action=action, lower_bound=lb,
        bound_margin=action - lb)


@dataclass
class PathBlock:
    block_type: str  # 'I', 'II', 'III'
    t_start: float
    t_end: float
    segments: list
    lower_bound: float
    action: float


def decompose_path(path: PathSample, atlas, phi, constants, phi_bar=0.0,
                   c=None, quad_step=0.02):
    """Split the path into typed blocks: escaped (I), pseudo-chain-then-escaped
    (II), and one terminal block (III)."""
    blocks = []
    t0 = float(path.times[0])
    t_end = float(path.times[-1])
    pending = []
    pend_t0 = t0
    cur = path
    while True:
        seg = classify_segment(cur, atlas, phi, constants, phi_bar=phi_bar,
                               c=c, quad_step=quad_step)
        seg_end = float(cur.times[0]) + (seg.exit_time - cur.times[0])
        if seg.kind == "escaped":
            segs = pending + [seg]
            btype = "I" if not pending else "II"
            lb = constants.a_star if btype == "I" else 0.0
            blocks.append(PathBlock(
                block_type=btype, t_start=pend_t0, t_end=seg.exit_time,
                segments=segs, lower_bound=lb,
                action=float(sum(s.action for s in segs))))
            pending = []
            pend_t0 = seg.exit_time
        elif seg.kind == "pseudo":
            pending.append(seg)
        else:  # trapped: terminal
            segs = pending + [seg]
            trapped_lb = seg.lower_bound
            lb = (-constants.a_star if pending else 0.0) + trapped_lb
            blocks.append(PathBlock(
                block_type="III", t_start=pend_t0, t_end=t_end,
                segments=segs, lower_bound=lb,
                action=float(sum(s.action for s in segs))))
            pending = []
            break
        if seg.exit_time >= t_end - 1e-9:
            if pending:
                blocks.append(PathBlock(
                    block_type="III", t_start=pend_t0, t_end=t_end,
                    segments=pending, lower_bound=-constants.a_star,
                    action=float(sum(s.action for s in pending))))
            break
        cur = path.restrict(seg.exit_time, t_end)
        # keep absolute times in the classification bookkeeping
        cur = PathSample(cur.times + seg.exit_time, cur.points, path.model,
                         path.max_step)
    return blocks


def factor_pseudo_orbit(cutting_points):
    """Maximal-last-occurrence factorization of a cutting-point sequence.

    Input is the sequence (x_0, ..., x_N); returns the indices
    i_0=0 < i_1 < ... < i_r = N of the factorization.  Consecutive cutting
    points must differ.
    """
    xs = list(cutting_points)
    N = len(xs) - 1
    if N < 1:
        raise ValueError("need at least two cutting points")
    for a, b in zip(xs, xs[1:]):
        if a == b:
            raise ValueError("consecutive cutting points must differ")
    idx = [0]
    while True:
        ik = idx[-1]
        if ik >= N:
            break
        I = [i for i in range(ik + 1, N + 1) if xs[i] == xs[ik]]
        if not I:
            nxt = ik + 1
            idx.append(nxt)
            continue
        j = max(I)
        if j < N:
            idx.append(j + 1)
        else:
            idx.append(N)
            break
    return idx


def check_factorization(cutting_points, indices):
    """Verify the three factorization properties; returns a certificate dict."""
    xs = list(cutting_points)
    N = len(xs) - 1
    r = len(indices) - 1
    ok_monotone = indices[0] == 0 and indices[-1] == N \
        and all(a < b for a, b in zip(indices, indices[1:]))
    heads = [xs[i] for i in indices[:-1]]
    ok_distinct = len(set(heads)) == len(heads)
    ok_period = True
    for k in range(1, r):
        if indices[k] > indices[k - 1] + 1:
            ok_period &= xs[indices[k] - 1] == xs[indices[k - 1]]
    # Tail block: either closes up on its head, or is a closed loop followed
    # by one final cutting point (the construction ends both ways).
    ok_tail = True
    if indices[-1] > indices[-2] + 1:
        ok_tail = (xs[indices[-1]] == xs[indices[-2]]
                   or xs[indices[-1] - 1] == xs[indices[-2]])
    return {"monotone": ok_monotone, "distinct_heads": ok_distinct,
            "periodic_blocks": ok_period, "tail": ok_tail,
            "r": r, "passed": ok_monotone and ok_distinct and ok_period
            and ok_tail}


# ---------------------------------------------------------------------------
# Adversarial path families for the lower-bound scan.


def _orbit_path(model, start, T, step, noise, rng, direction=1.0):
    n = max(2, int(np.ceil(T / step)) + 1)
    times = np.linspace(0.0, T, n)
    pts = model.flow_map(np.asarray(start, dtype=float), direction * times)
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
        pts = model.flow_map(pts, 0.0)
    return PathSample(times, pts, model, max_step=2 * step)


def _boundary_hugging_path(atlas, box, T, step, rng):
    model = atlas.model
    eps = atlas.eps
    n = max(2, int(np.ceil(T / step)) + 1)
    times = np.linspace(0.0, T, n)
    u = np.empty((n, 2))
    side = rng.integers(0, 2)
    sgn = 1.0 if rng.random() < 0.5 else -1.0
    u[:, side] = sgn * 1.9 * eps
    u[:, 1 - side] = 1.9 * eps * np.sin(
        2 * np.pi * rng.random() + np.linspace(0, 2.5, n))
    tt = np.linspace(-eps, min(T - eps, atlas.tau * 0.95), n)
    pts = box.chart_forward(tt, u)
    return PathSample(times, pts, model, max_step=2 * step)


def _orbit_leg(model, p, t, leg, step, t_max=np.inf):
    """(times, points) of the orbit of p over ``leg`` in equal steps <= step,
    starting at path time t (excluded) and cut at the first time >= t_max."""
    n = max(1, int(np.ceil(leg / step)))
    dts = np.arange(1, n + 1) * (leg / n)
    dts = dts[:np.searchsorted(t + dts, t_max) + 1]
    return t + dts, model.flow_map(p, dts)


def _splice_path(model, atlas, T, step, rng):
    """Concatenated orbit pieces with jumps <= eps/2 at the junctions."""
    eps = atlas.eps
    p = rng.random(3)
    p[2] *= model.roof
    times, pts = [0.0], [p]
    while times[-1] < T:
        leg = float(rng.uniform(0.5, 1.5) * atlas.tau)
        ts, leg_pts = _orbit_leg(model, p, times[-1], leg, step, t_max=T)
        jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.5])
        # spread the jump over one step so the path stays continuous
        p = model.flow_map(leg_pts[-1] + jump, 0.0)
        times += [*ts, ts[-1] + step]
        pts += [*leg_pts, p]
    return PathSample(np.array(times), np.array(pts), model, max_step=2 * step)


def _periodic_splice_path(model, atlas, rng, step):
    """Closed path: orbit pieces with small jumps at roof crossings, spliced
    shut at the end (z(T) = z(0) exactly)."""
    eps = atlas.eps
    n_laps = int(rng.integers(2, 6))
    start = rng.random(3)
    start[2] *= model.roof * 0.5
    times, pts = [0.0], [start]
    p = start
    for lap in range(n_laps):
        ts, leg_pts = _orbit_leg(model, p, times[-1], model.roof, step)
        if lap < n_laps - 1:
            jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.25])
            p = model.flow_map(leg_pts[-1] + jump, 0.0)
        else:
            p = start
        times += [*ts, ts[-1] + step]
        pts += [*leg_pts, p]
    return PathSample(np.array(times), np.array(pts), model, max_step=2 * step)


def generate_paths(atlas: FlowBoxAtlas, family, n_paths, seed=0, step=None):
    """Seeded adversarial path generator; family in
    {flow_following, anti_flow, boundary_hugging, pseudo_splice,
    periodic_splice}."""
    rng = np.random.default_rng(seed)
    model = atlas.model
    if step is None:
        step = atlas.tau / 40.0
    out = []
    for _ in range(n_paths):
        T = float(rng.uniform(1.0, 6.0) * atlas.tau)
        start = rng.random(3)
        start[2] *= model.roof
        if family == "flow_following":
            out.append(_orbit_path(model, start, T, step,
                                   noise=10 ** rng.uniform(-4, -2), rng=rng))
        elif family == "anti_flow":
            out.append(_orbit_path(model, start, T, step,
                                   noise=10 ** rng.uniform(-4, -2), rng=rng,
                                   direction=-1.0))
        elif family == "boundary_hugging":
            box = atlas.boxes[rng.integers(0, len(atlas.boxes))]
            out.append(_boundary_hugging_path(atlas, box, T, step, rng))
        elif family == "pseudo_splice":
            out.append(_splice_path(model, atlas, T, step, rng))
        elif family == "periodic_splice":
            out.append(_periodic_splice_path(model, atlas, rng, step))
        else:
            raise ValueError(f"unknown path family {family!r}")
    return out


def livsic_lower_bound_scan(atlas, phi, constants: LivsicConstants,
                            phi_bar=0.0, n_paths=1000, seed=0,
                            families=("flow_following", "anti_flow",
                                      "boundary_hugging", "pseudo_splice")):
    """Evaluate A_{phi, C4} over adversarial paths; report the worst margin
    above the theoretical floor -delta_Lambda * Lip(phi)."""
    floor = -constants.delta_lambda * constants.lip_phi
    per_family = max(1, n_paths // len(families))
    worst = np.inf
    worst_case = None
    count = 0
    for fam_i, fam in enumerate(families):
        paths = generate_paths(atlas, fam, per_family, seed=seed + fam_i)
        for path in paths:
            a = weighted_action(path, phi, constants.c4, phi_bar)
            count += 1
            if a < worst:
                worst, worst_case = a, {"family": fam, "duration": path.duration}
    return {"n_paths": count, "min_action": float(worst),
            "floor": float(floor), "margin": float(worst - floor),
            "worst_case": worst_case, "passed": bool(worst >= floor)}
