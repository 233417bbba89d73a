"""Weighted action over paths, trap-box classification, explicit constants,
pseudo-orbit factorization, and the positive lower-bound scan.

The weighted action of a path z with weight C prices both the observable
along the path and the L1 deviation of its velocity from the vector field:

    A_{phi,C}(z) = int_0^T [ (phi - phi_bar) o z + C ||V o z - z'|| ] ds.

Paths are piecewise linear between time-stamped nodes; quadrature is
composite midpoint per segment, so the action is exactly additive under
concatenation.  ``generate_paths`` makes every draw of a family first, then
flows all its paths in a few batched ``flow_map`` calls; actions are priced
over runs of concatenated paths, each bitwise as if priced alone.  The
Birkhoff terms of a segment bound are signed ``birkhoff_integral`` calls, and
lifted points are wrapped back into the fundamental domain by
``model.flow_map(p, 0.0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .charts import FlowBoxAtlas, adapted_norm, poincare_map, return_time
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


# Segments per priced run.  A whole scan family at once (~35k segments) held
# 6.8 MB of temporaries, one path 0.04 MB; runs of this size stay under 1 MB.
_SEGMENT_BUDGET = 4096


def _path_actions(paths, phi, c, phi_bar):
    """Weighted action of each path, priced in runs of whole paths of at
    most ``_SEGMENT_BUDGET`` segments (a longer path is a run of its own).

    All consecutive node pairs of a run are priced at once: one
    ``difference``, midpoint ``flow_map``, ``phi`` and norm; the pair joining
    two paths is never summed.  Each action is ``np.sum`` over its path's
    contiguous slice, bitwise the action of the path priced alone.
    """
    if c < 0:
        raise ValueError("weight must be nonnegative")
    seg = [len(p.times) - 1 for p in paths]
    out, i = [], 0
    while i < len(paths):
        j = i + 1
        while j < len(paths) and sum(seg[i:j + 1]) <= _SEGMENT_BUDGET:
            j += 1
        run, model = paths[i:j], paths[i].model
        pts = np.concatenate([p.points for p in run])
        dt = np.diff(np.concatenate([p.times for p in run]))
        delta = model.difference(pts[1:], pts[:-1])
        mids = model.flow_map(pts[:-1] + 0.5 * delta, 0.0)
        dev = np.linalg.norm(model.velocity(mids) - delta / dt[:, None],
                             axis=-1)
        terms = dt * (np.asarray(phi(mids), dtype=float) - phi_bar + c * dev)
        ends = np.cumsum([len(p.times) for p in run])
        out += [np.sum(terms[b - len(p.times):b - 1])
                for p, b in zip(run, ends)]
        i = j
    return np.array(out)


def weighted_action(path: PathSample, phi: Observable, c, phi_bar):
    """Composite-midpoint quadrature of the weighted action."""
    return float(_path_actions([path], phi, c, phi_bar)[0])


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
    if not lp >= 0:  # NaN fails it too; Lip phi = 0 zeroes what it scales
        raise ValueError(f"observable Lipschitz constant {lp} is not >= 0")
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
    caller where the next segment starts.  A forward ("pseudo") exit lands in
    some box y; its Poincare block is priced over the closed-form return time
    from Sigma_x to Sigma_y nearest tau - r_y, with remainder
    |f_xy(q_x) - q_y|.
    """
    eps, tau = atlas.eps, atlas.tau
    model = path.model
    if start_box is None:
        start_box = atlas.nearest_center(path.points[0])
        if start_box is None:
            raise UncoveredStartError("path does not start inside any U_x(eps)")
    idx = int(start_box)
    box = atlas.box(idx)
    c_used = constants.c1 if c is None else float(c)
    ts, us = _track_chart_coords(box, path)
    unorm = adapted_norm(us)
    crossed = (ts >= tau) | (ts <= -2 * eps) | (unorm >= 2 * eps)
    crossed[0] = False
    if not crossed.any():
        action = weighted_action(path, phi, c_used, phi_bar)
        lb = -8.0 * constants.tau * (1 + constants.tau) * constants.lip_phi \
            * constants.lip_gamma * (1 + constants.diam_omega)
        return SegmentClassification(
            kind="trapped", box_index=idx, exit_time=float(path.times[-1]),
            action=action, lower_bound=lb, bound_margin=action - lb)
    exit_k = int(np.argmax(crossed))
    boundary = "plus" if ts[exit_k] >= tau else "minus"
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
    box_y = atlas.box(y_idx)
    r_x, q_x = ts[0], us[0]
    r_y_arr, q_y = box_y.chart_inverse(zT)
    r_y = float(r_y_arr)
    # The path leaves x's chart at chart time tau and sits at y-chart time
    # r_y, so the flow time from Sigma_x to Sigma_y is the crossing nearest
    # tau - r_y (path times are not flow times on chart tracks).
    t_ret = return_time(atlas, idx, y_idx, t_hint=tau - r_y)
    zx = model.flow_map(z0, -r_x)
    zy = model.flow_map(zT, -r_y)
    phi_xy, psi_x, psi_y = (
        float(birkhoff_integral(model, phi, z, t, quad_step)) - phi_bar * t
        for z, t in ((zx, t_ret), (zx, r_x), (zy, r_y)))
    fq = poincare_map(atlas, idx, y_idx, q_x, t_hint=t_ret)
    rem_norm = float(adapted_norm(fq - q_y))
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
# Adversarial path families for the lower-bound scan.  Every draw of a family
# is made first, path by path, in one fixed order; no draw depends on a
# flowed point.  The points are then flowed in a few batched calls.


def _draw_orbit(atlas, rng, T, start, step, direction):
    """flow_following / anti_flow, the noisy orbit of ``start``: (times,
    start per node, flow time per node, noise per node)."""
    n = max(2, int(np.ceil(T / step)) + 1)
    times = np.linspace(0.0, T, n)
    noise = 10 ** rng.uniform(-4, -2)
    return (times, np.broadcast_to(start, (n, 3)), direction * times,
            noise * rng.standard_normal((n, 3)))


def _draw_boundary(atlas, rng, T, start, step):
    """boundary_hugging, a chart track at 1.9 eps from one side wall: as for
    the orbits, with section points as starts and no noise."""
    eps = atlas.eps
    n = max(2, int(np.ceil(T / step)) + 1)
    box = atlas.box(rng.integers(0, atlas.n_gamma))
    u = np.empty((n, 2))
    side = rng.integers(0, 2)
    sgn = 1.0 if rng.random() < 0.5 else -1.0
    u[:, side] = sgn * 1.9 * eps
    u[:, 1 - side] = 1.9 * eps * np.sin(
        2 * np.pi * rng.random() + np.linspace(0, 2.5, n))
    tt = np.linspace(-eps, min(T - eps, atlas.tau * 0.95), n)
    return np.linspace(0.0, T, n), box.section_point(u), tt, None


def _flow_tracks(model, draws):
    """One flow_map over every node's (start, flow time), one for the noise."""
    times, starts, dts, noise = zip(*draws)
    pts = model.flow_map(np.concatenate(starts), np.concatenate(dts))
    if noise[0] is not None:
        pts = model.flow_map(pts + np.concatenate(noise), 0.0)
    return times, np.split(pts, np.cumsum([len(t) for t in times])[:-1])


def _add_leg(times, legs, leg, step, jump, t_max=np.inf):
    """Append an orbit leg of length ``leg`` in equal steps <= step, cut at
    the first time >= t_max: its flow times and jump go to ``legs``, its
    path times and the landing node one step later to ``times``."""
    t = times[-1]
    n = max(1, int(np.ceil(leg / step)))
    dts = np.arange(1, n + 1) * (leg / n)
    dts = dts[:np.searchsorted(t + dts, t_max) + 1]
    legs.append((dts, jump))
    times += [*(t + dts), t + dts[-1] + step]


def _draw_splice(atlas, rng, T, start, step):
    """pseudo_splice, orbit legs of 0.5-1.5 tau, each followed by a jump
    <= eps/2 spread over one step, until the path reaches T:
    (times, start, [(flow times, jump) per leg])."""
    eps = atlas.eps
    p = rng.random(3)
    p[2] *= atlas.model.roof
    times, legs = [0.0], []
    while times[-1] < T:
        leg = float(rng.uniform(0.5, 1.5) * atlas.tau)
        jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.5])
        _add_leg(times, legs, leg, step, jump, t_max=T)
    return np.array(times), p, legs


def _draw_periodic(atlas, rng, T, start, step):
    """periodic_splice, 2-5 laps of one roof each with small jumps between
    laps, spliced shut at the end (z(T) = z(0) exactly): as for
    pseudo_splice, with jump None on the last lap."""
    eps, roof = atlas.eps, atlas.model.roof
    n_laps = int(rng.integers(2, 6))
    p = rng.random(3)
    p[2] *= roof * 0.5
    times, legs = [0.0], []
    for _ in range(n_laps - 1):
        _add_leg(times, legs, roof, step,
                 rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.25]))
    _add_leg(times, legs, roof, step, None)
    return np.array(times), p, legs


def _flow_splices(model, draws):
    """Leg j of a path starts where its leg j - 1 ended and jumped, so legs
    are flowed one leg index at a time across all paths: one flow_map for
    the legs and one for the jumps.  A leg with no jump closes its path on
    the start point."""
    first = np.array([d[1] for d in draws])
    p = first.copy()
    pieces = [[d[1][None]] for d in draws]
    for j in range(max(len(d[2]) for d in draws)):
        live = [i for i, d in enumerate(draws) if len(d[2]) > j]
        dts, jumps = zip(*(draws[i][2][j] for i in live))
        sizes = [len(x) for x in dts]
        legs = np.split(model.flow_map(np.repeat(p[live], sizes, axis=0),
                                       np.concatenate(dts)),
                        np.cumsum(sizes)[:-1])
        shut = np.array([x is None for x in jumps])
        jumped = model.flow_map(
            np.array([leg[-1] for leg in legs])
            + [np.zeros(3) if x is None else x for x in jumps], 0.0)
        p[live] = np.where(shut[:, None], first[live], jumped)
        for i, leg in zip(live, legs):
            pieces[i] += [leg, p[i:i + 1].copy()]
    return [d[0] for d in draws], [np.concatenate(x) for x in pieces]


_FAMILIES = {
    "flow_following": (partial(_draw_orbit, direction=1.0), _flow_tracks),
    "anti_flow": (partial(_draw_orbit, direction=-1.0), _flow_tracks),
    "boundary_hugging": (_draw_boundary, _flow_tracks),
    "pseudo_splice": (_draw_splice, _flow_splices),
    "periodic_splice": (_draw_periodic, _flow_splices),
}


def generate_paths(atlas: FlowBoxAtlas, family, n_paths, seed=0):
    """Seeded adversarial paths of one family: flow_following, anti_flow,
    boundary_hugging, pseudo_splice or periodic_splice, with node steps of
    tau / 40.  Per path the draws are T, a start point (unused by the
    splices, which draw their own) and the family's own, in that order; then
    all paths are flowed."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown path family {family!r}")
    draw, flow = _FAMILIES[family]
    rng = np.random.default_rng(seed)
    model = atlas.model
    step = atlas.tau / 40.0
    draws = []
    for _ in range(n_paths):
        T = float(rng.uniform(1.0, 6.0) * atlas.tau)
        start = rng.random(3)
        start[2] *= model.roof
        draws.append(draw(atlas, rng, T, start, step))
    if not draws:
        return []
    return [PathSample(t, p, model, max_step=2 * step)
            for t, p in zip(*flow(model, draws))]


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
        actions = _path_actions(paths, phi, constants.c4, phi_bar)
        count += len(paths)
        k = int(np.argmin(actions))
        if actions[k] < worst:
            worst = actions[k]
            worst_case = {"family": fam, "duration": paths[k].duration}
    return {"n_paths": count, "min_action": float(worst),
            "floor": float(floor), "margin": float(worst - floor),
            "worst_case": worst_case, "passed": bool(worst >= floor)}
