import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from weakkam import (PathSample, birkhoff_integral, check_factorization,
                     classify_segment, compute_constants, constant_observable,
                     decompose_path,
                     factor_pseudo_orbit, generate_paths,
                     livsic_lower_bound_scan, weighted_action)
from weakkam import livsic
from weakkam.charts import FlowBoxAtlas


@pytest.fixture(scope="module")
def constants(atlas, cobound):
    phi, _ = cobound
    from weakkam import estimate_k_gamma
    h = atlas.hyper
    return compute_constants(atlas, phi,
                             estimate_k_gamma(h.sigma_u, h.sigma_s, h.eta))


def _flow_path(model, start, T, n=120):
    times = np.linspace(0.0, T, n)
    pts = model.flow_map(np.asarray(start, dtype=float), times)
    return PathSample(times, pts, model, max_step=2 * T / n)


def test_path_sample_validation(model):
    with pytest.raises(ValueError):
        PathSample(np.array([0.0, 0.0]), np.zeros((2, 3)), model)
    with pytest.raises(ValueError):
        PathSample(np.array([0.0, 1.0]), np.zeros((2, 3)), model,
                   max_step=0.1)


def test_normalize_points_roof_wrap(model):
    A = model.base_matrix.astype(float)
    p = np.array([0.2, 0.7, model.roof + 0.3])
    q = model.flow_map(p, 0.0)
    assert np.abs(q[:2] - np.mod(A @ p[:2], 1.0)).max() < 1e-12
    assert abs(q[2] - 0.3) < 1e-12


def test_weighted_action_on_true_orbit_is_birkhoff(model, cobound):
    phi, _ = cobound
    start = np.array([0.3, 0.1, 0.2])
    T = 2.0
    path = _flow_path(model, start, T, n=400)
    a = weighted_action(path, phi, 100.0, 0.0)
    b = float(birkhoff_integral(model, phi, start, T, 0.001))
    # the deviation term vanishes on an exact orbit, any weight is free
    assert abs(a - b) < 5e-4


def test_weighted_action_additive_under_restriction(model, cobound):
    phi, _ = cobound
    path = _flow_path(model, np.array([0.6, 0.2, 0.4]), 2.0, n=201)
    t_mid = path.times[100]
    left = path.restrict(0.0, t_mid)
    right = path.restrict(t_mid, 2.0)
    total = weighted_action(path, phi, 3.0, 0.1)
    split = (weighted_action(left, phi, 3.0, 0.1)
             + weighted_action(right, phi, 3.0, 0.1))
    assert abs(total - split) < 1e-10


def test_weighted_action_rejects_negative_weight(model, cobound):
    phi, _ = cobound
    path = _flow_path(model, np.array([0.1, 0.1, 0.1]), 1.0)
    with pytest.raises(ValueError):
        weighted_action(path, phi, -1.0, 0.0)


def test_constants_hierarchy(constants):
    c = constants
    assert c.c1 > 0 and c.a_star > 0 and c.delta_lambda > 0
    assert c.c4 >= max(c.c2, c.c3)
    assert c.lip_gamma >= 1.0 and c.n_gamma > 0


@pytest.mark.parametrize("lip", [-1.0, -1e-300, np.nan])
def test_constants_reject_negative_or_nan_lipschitz(atlas, lip):
    phi = constant_observable(0.0)
    with pytest.raises(ValueError, match="is not >= 0"):
        compute_constants(atlas, replace(phi, lipschitz_constant=lip), 2.0)
    # Lip phi = 0 scales its constants to 0
    zero = compute_constants(atlas, phi, 2.0)
    assert zero.c1 == zero.c2 == zero.c3 == zero.c4 == zero.a_star == 0.0
    assert zero.lip_phi == 0.0 and zero.delta_lambda > 0


def test_classify_flow_following_is_pseudo(model, atlas, cobound, constants):
    phi, _ = cobound
    # start on a box center so the chart time starts at 0
    start = atlas.centers[0] + np.array([0.01, 0.01, 0.0])
    path = _flow_path(model, start, 2.0, n=200)
    seg = classify_segment(path, atlas, phi, constants)
    assert seg.kind == "pseudo"
    assert seg.boundary == "plus"
    assert seg.y_within_eps
    assert seg.bound_margin >= 0.0
    assert 0.0 < seg.exit_time < path.duration


@pytest.mark.parametrize("r_x", [0.1, 0.2])
def test_classify_pseudo_bound_off_the_section(model, atlas, cobound,
                                               constants, r_x):
    # a flow-following path starting at chart time r_x: the Poincare block
    # is exact, so its lower bound equals the action up to quadrature
    phi, _ = cobound
    start = atlas.centers[0] + np.array([0.01, 0.01, r_x])
    path = _flow_path(model, start, 2.0, n=200)
    seg = classify_segment(path, atlas, phi, constants, start_box=0)
    assert seg.kind == "pseudo"
    assert abs(seg.r_x - r_x) < 1e-12
    assert abs(seg.bound_margin) <= 1e-6
    assert seg.remainder == 0.0


def test_classify_anti_flow_escapes(model, atlas, cobound, constants):
    phi, _ = cobound
    start = atlas.centers[0] + np.array([0.01, 0.01, 0.0])
    times = np.linspace(0.0, 2.0, 200)
    pts = model.flow_map(start, -times)
    path = PathSample(times, pts, model, max_step=0.05)
    seg = classify_segment(path, atlas, phi, constants)
    assert seg.kind == "escaped"
    assert seg.boundary == "minus"


def test_classify_short_path_is_trapped(model, atlas, cobound, constants):
    phi, _ = cobound
    start = atlas.centers[0].copy()
    path = _flow_path(model, start, 0.05, n=10)
    seg = classify_segment(path, atlas, phi, constants)
    assert seg.kind == "trapped"
    assert seg.bound_margin >= 0.0


def test_decompose_path_blocks_partition(model, atlas, cobound, constants):
    phi, _ = cobound
    paths = generate_paths(atlas, "pseudo_splice", 3, seed=5)
    for path in paths:
        blocks = decompose_path(path, atlas, phi, constants)
        assert blocks
        assert all(b.block_type in ("I", "II", "III") for b in blocks)
        assert abs(blocks[0].t_start - path.times[0]) < 1e-9
        assert abs(blocks[-1].t_end - path.times[-1]) < 1e-6
        for a, b in zip(blocks, blocks[1:]):
            assert abs(a.t_end - b.t_start) < 1e-9


def test_decompose_chart_tracks(atlas, constants):
    # chart tracks move through the chart at their own pace, so path time is
    # not flow time; on these paths a return time hinted by path time falls
    # halfway between two section crossings.  With phi = 1, phi_xy is the
    # return time itself: the crossing nearest tau - r_y.
    one = constant_observable(1.0)
    paths = generate_paths(atlas, "boundary_hugging", 100, seed=4)
    for i in (39, 43, 80, 81, 93):
        blocks = decompose_path(paths[i], atlas, one, constants)
        assert abs(blocks[0].t_start - paths[i].times[0]) < 1e-9
        assert abs(blocks[-1].t_end - paths[i].times[-1]) < 1e-6
        pseudo = [s for b in blocks for s in b.segments if s.kind == "pseudo"]
        assert pseudo
        for seg in pseudo:
            assert abs(seg.phi_xy - (atlas.tau - seg.r_y)) \
                <= atlas.model.roof / 2 + 1e-9


def _nearest_center_loop(atlas, p):
    """The per-box scan: one ``chart_inverse`` per box, the first minimum
    of max(|t|, |u|) wins.  Returns (distance, index)."""
    best, best_idx = np.inf, None
    for i in range(atlas.n_gamma):
        t, u = atlas.box(i).chart_inverse(p)
        d = max(abs(float(t)), float(np.abs(u).max()))
        if d < best:
            best, best_idx = d, i
    return best, best_idx


def test_nearest_center_matches_per_box_loop(atlas, cobound, constants,
                                             monkeypatch):
    phi, _ = cobound
    rng = np.random.default_rng(21)
    pts = rng.random((60, 3))
    pts[:, 2] *= atlas.model.roof
    centres = list(atlas.centers[::37])
    # the points decompose_path asks about
    asked = []
    batched = FlowBoxAtlas.nearest_center

    def record(self, p, max_adapted=None):
        asked.append(np.array(p, dtype=float))
        return batched(self, p, max_adapted)

    monkeypatch.setattr(FlowBoxAtlas, "nearest_center", record)
    for path in generate_paths(atlas, "pseudo_splice", 4, seed=3):
        decompose_path(path, atlas, phi, constants)
    monkeypatch.undo()
    assert len(asked) > 10
    n_none = 0
    for p in list(pts) + centres + asked:
        best, idx = _nearest_center_loop(atlas, p)
        for cap in (None, atlas.eps, np.inf, atlas.eps / 8):
            want = idx if best < (atlas.eps if cap is None else cap) else None
            assert atlas.nearest_center(p, max_adapted=cap) == want
            n_none += want is None
    assert n_none > 0


def _oracle_factorization(xs):
    """Independent recursive statement of the maximal-last-occurrence rule."""
    N = len(xs) - 1

    def extend(ik):
        if ik >= N:
            return []
        occ = [i for i in range(ik + 1, N + 1) if xs[i] == xs[ik]]
        if not occ:
            return [ik + 1] + extend(ik + 1)
        j = occ[-1]
        nxt = j + 1 if j < N else N
        return [nxt] + ([] if nxt >= N else extend(nxt))

    return [0] + extend(0)


def test_factorization_exhaustive_against_oracle():
    # all consecutive-distinct sequences, length <= 7, alphabet of size 4
    alphabet = "abcd"
    checked = 0
    for n in range(2, 8):
        for xs in itertools.product(alphabet, repeat=n):
            if any(a == b for a, b in zip(xs, xs[1:])):
                continue
            idx = factor_pseudo_orbit(list(xs))
            assert idx == _oracle_factorization(list(xs)), xs
            cert = check_factorization(list(xs), idx)
            assert cert["passed"], (xs, idx, cert)
            checked += 1
    assert checked > 4000


def test_factorization_guards():
    with pytest.raises(ValueError):
        factor_pseudo_orbit(["a"])
    with pytest.raises(ValueError):
        factor_pseudo_orbit(["a", "a", "b"])


def test_lower_bound_scan_passes(atlas, cobound, constants):
    phi, _ = cobound
    rep = livsic_lower_bound_scan(atlas, phi, constants, n_paths=60, seed=2)
    assert rep["passed"], rep
    assert rep["margin"] > 0.0
    assert rep["n_paths"] >= 60


def test_periodic_splice_family_closes(model, atlas):
    paths = generate_paths(atlas, "periodic_splice", 4, seed=7)
    for path in paths:
        assert np.abs(path.points[-1] - path.points[0]).max() < 1e-12


# Oracles.  ``_oracle_generate`` is the one-path-at-a-time generator loop;
# it takes the path builders of one of two earlier versions: per path, one
# batched flow_map per orbit leg (``PER_PATH``, the builders the batched
# families must match bitwise), and per step, one flow_map per node with the
# time accumulated (``PER_STEP``, matched within rounding).


def _oracle_generate(atlas, family, n_paths, seed, builders):
    rng = np.random.default_rng(seed)
    model = atlas.model
    step = atlas.tau / 40.0
    out = []
    for _ in range(n_paths):
        T = float(rng.uniform(1.0, 6.0) * atlas.tau)
        start = rng.random(3)
        start[2] *= model.roof
        if family in ("flow_following", "anti_flow"):
            direction = 1.0 if family == "flow_following" else -1.0
            out.append(builders.orbit(
                model, start, T, step, noise=10 ** rng.uniform(-4, -2),
                rng=rng, direction=direction))
        elif family == "boundary_hugging":
            box = atlas.box(rng.integers(0, atlas.n_gamma))
            out.append(builders.boundary(atlas, box, T, step, rng))
        elif family == "pseudo_splice":
            out.append(builders.splice(model, atlas, T, step, rng))
        else:
            out.append(builders.periodic(model, atlas, rng, step))
    return out


def _per_path_orbit(model, start, T, step, noise, rng, direction=1.0):
    n = max(2, int(np.ceil(T / step)) + 1)
    times = np.linspace(0.0, T, n)
    pts = model.flow_map(np.asarray(start, dtype=float), direction * times)
    if noise > 0:
        pts = pts + noise * rng.standard_normal(pts.shape)
        pts = model.flow_map(pts, 0.0)
    return PathSample(times, pts, model, max_step=2 * step)


def _per_path_boundary(atlas, box, T, step, rng):
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
    return PathSample(times, pts, atlas.model, max_step=2 * step)


def _per_path_leg(model, p, t, leg, step, t_max=np.inf):
    n = max(1, int(np.ceil(leg / step)))
    dts = np.arange(1, n + 1) * (leg / n)
    dts = dts[:np.searchsorted(t + dts, t_max) + 1]
    return t + dts, model.flow_map(p, dts)


def _per_path_splice(model, atlas, T, step, rng):
    eps = atlas.eps
    p = rng.random(3)
    p[2] *= model.roof
    times, pts = [0.0], [p]
    while times[-1] < T:
        leg = float(rng.uniform(0.5, 1.5) * atlas.tau)
        ts, leg_pts = _per_path_leg(model, p, times[-1], leg, step, t_max=T)
        jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.5])
        p = model.flow_map(leg_pts[-1] + jump, 0.0)
        times += [*ts, ts[-1] + step]
        pts += [*leg_pts, p]
    return PathSample(np.array(times), np.array(pts), model, max_step=2 * step)


def _per_path_periodic(model, atlas, rng, step):
    eps = atlas.eps
    n_laps = int(rng.integers(2, 6))
    start = rng.random(3)
    start[2] *= model.roof * 0.5
    times, pts = [0.0], [start]
    p = start
    for lap in range(n_laps):
        ts, leg_pts = _per_path_leg(model, p, times[-1], model.roof, step)
        if lap < n_laps - 1:
            jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.25])
            p = model.flow_map(leg_pts[-1] + jump, 0.0)
        else:
            p = start
        times += [*ts, ts[-1] + step]
        pts += [*leg_pts, p]
    return PathSample(np.array(times), np.array(pts), model, max_step=2 * step)


PER_PATH = SimpleNamespace(orbit=_per_path_orbit, boundary=_per_path_boundary,
                           splice=_per_path_splice,
                           periodic=_per_path_periodic)


def _oracle_weighted_action(path, phi, c, phi_bar):
    """The action of one path, priced alone."""
    model = path.model
    dt = np.diff(path.times)
    delta = model.difference(path.points[1:], path.points[:-1])
    mids = model.flow_map(path.points[:-1] + 0.5 * delta, 0.0)
    dev = np.linalg.norm(model.velocity(mids) - delta / dt[:, None], axis=-1)
    vals = np.asarray(phi(mids), dtype=float) - phi_bar
    return float(np.sum(dt * (vals + c * dev)))


def _oracle_normalize(model, p):
    """Roof wrap done separately from flow_map: A^m on the base, s - m roof."""
    q = np.array(p, dtype=float).reshape(-1, 3)
    m = np.floor(q[:, 2] / model.roof).astype(np.int64)
    for mv in np.unique(m):
        if mv != 0:
            sel = m == mv
            M = np.linalg.matrix_power(
                model.base_matrix if mv > 0 else model.base_inverse,
                abs(int(mv))).astype(float)
            q[sel, :2] = q[sel, :2] @ M.T
            q[sel, 2] -= mv * model.roof
    q[:, :2] = np.mod(q[:, :2], 1.0)
    return q.reshape(np.shape(p))


def _per_step_orbit(model, start, T, step, noise, rng, direction=1.0):
    n = max(2, int(np.ceil(T / step)) + 1)
    times = np.linspace(0.0, T, n)
    pts = model.flow_map(np.asarray(start, dtype=float), direction * times)
    if noise > 0:
        pts = _oracle_normalize(
            model, pts + noise * rng.standard_normal(pts.shape))
    return PathSample(times, pts, model, max_step=2 * step)


def _per_step_boundary(atlas, box, T, step, rng):
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
    pts = np.array([box.chart_forward(tt[k], u[k]) for k in range(n)])
    return PathSample(times, pts, atlas.model, max_step=2 * step)


def _per_step_splice(model, atlas, T, step, rng):
    eps = atlas.eps
    times = [0.0]
    p = rng.random(3)
    p[2] *= model.roof
    pts = [p.copy()]
    t = 0.0
    while t < T:
        leg = float(rng.uniform(0.5, 1.5) * atlas.tau)
        n = max(1, int(np.ceil(leg / step)))
        for _ in range(n):
            p = model.flow_map(p, leg / n)
            t += leg / n
            times.append(t)
            pts.append(p.copy())
            if t >= T:
                break
        jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.5])
        p = _oracle_normalize(model, p + jump)
        t += step
        times.append(t)
        pts.append(p.copy())
    return PathSample(np.array(times), np.array(pts), model, max_step=2 * step)


def _per_step_periodic(model, atlas, rng, step):
    eps = atlas.eps
    n_laps = int(rng.integers(2, 6))
    start = rng.random(3)
    start[2] *= model.roof * 0.5
    times = [0.0]
    pts = [start.copy()]
    p = start.copy()
    t = 0.0
    for lap in range(n_laps):
        n = max(1, int(np.ceil(model.roof / step)))
        for _ in range(n):
            p = model.flow_map(p, model.roof / n)
            t += model.roof / n
            times.append(t)
            pts.append(p.copy())
        if lap < n_laps - 1:
            jump = rng.uniform(-eps / 2, eps / 2, 3) * np.array([1, 1, 0.25])
            p = _oracle_normalize(model, p + jump)
        else:
            p = start.copy()
        t += step
        times.append(t)
        pts.append(p.copy())
    return PathSample(np.array(times), np.array(pts), model, max_step=2 * step)


PER_STEP = SimpleNamespace(orbit=_per_step_orbit, boundary=_per_step_boundary,
                           splice=_per_step_splice,
                           periodic=_per_step_periodic)


def _oracle_track_chart_coords(box, path):
    model = path.model
    roof = model.roof
    n = len(path.times)
    ts = np.empty(n)
    us = np.empty((n, 2))
    t_prev = s_prev = None
    for k in range(n):
        p = path.points[k]
        raw = p[2] - box.center[2]
        if t_prev is None:
            t = raw - roof * np.round(raw / roof)
        else:
            ds = p[2] - s_prev
            ds -= roof * np.round(ds / roof)
            t = raw + roof * np.round((t_prev + ds - raw) / roof)
        db = model.flow_map(p, -t)[:2] - box.center[:2]
        us[k] = (db - np.round(db)) @ model.eigen_frame_inv.T
        ts[k] = t
        t_prev, s_prev = t, p[2]
    return ts, us


FAMILIES = ("flow_following", "anti_flow", "boundary_hugging",
            "pseudo_splice", "periodic_splice")


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_path_builders_match_per_step_oracle(model, atlas, family):
    for seed in range(5):
        new = generate_paths(atlas, family, 20, seed=seed)
        old = _oracle_generate(atlas, family, 20, seed, PER_STEP)
        for a, b in zip(new, old, strict=True):
            assert len(a.times) == len(b.times), (family, seed)
            assert np.abs(a.times - b.times).max() < 1e-12
            assert model.distance(a.points, b.points).max() < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_paths_bitwise_matches_per_path_oracle(atlas, family):
    for seed in (0, 1):
        new = generate_paths(atlas, family, 30, seed=seed)
        old = _oracle_generate(atlas, family, 30, seed, PER_PATH)
        for a, b in zip(new, old, strict=True):
            assert np.array_equal(a.times, b.times), (family, seed)
            assert np.array_equal(a.points, b.points), (family, seed)


def test_scan_actions_bitwise_match_per_path_pricing(atlas, cobound,
                                                     constants):
    phi, _ = cobound
    families = ("flow_following", "anti_flow", "boundary_hugging",
                "pseudo_splice")
    rep = livsic_lower_bound_scan(atlas, phi, constants, n_paths=200,
                                  seed=4, families=families)
    worst = np.inf
    for fam_i, family in enumerate(families):
        paths = generate_paths(atlas, family, 50, seed=4 + fam_i)
        acts = livsic._path_actions(paths, phi, constants.c4, 0.0)
        old = [_oracle_weighted_action(p, phi, constants.c4, 0.0)
               for p in paths]
        assert acts.tolist() == old, family
        worst = min(worst, *old)
    assert rep["min_action"] == worst and rep["n_paths"] == 200


def test_runs_of_paths_price_each_path_whole(model, atlas, cobound,
                                             monkeypatch):
    phi, _ = cobound
    paths = generate_paths(atlas, "pseudo_splice", 12, seed=9)
    long = _flow_path(model, [0.3, 0.6, 0.1], 30.0,
                      n=livsic._SEGMENT_BUDGET + 500)
    paths = paths[:5] + [long] + paths[5:]
    old = [_oracle_weighted_action(p, phi, 2.5, 0.1) for p in paths]
    assert livsic._path_actions(paths, phi, 2.5, 0.1).tolist() == old
    # Runs of a few paths each, and paths longer than a whole run.
    monkeypatch.setattr(livsic, "_SEGMENT_BUDGET", 300)
    assert livsic._path_actions(paths, phi, 2.5, 0.1).tolist() == old
    assert [weighted_action(p, phi, 2.5, 0.1) for p in paths] == old


def test_track_chart_coords_matches_per_node_loop(model, atlas):
    rng = np.random.default_rng(11)
    for family in FAMILIES:
        for path in generate_paths(atlas, family, 4, seed=3):
            for i in rng.integers(0, atlas.n_gamma, 3):
                box = atlas.box(i)
                ts, us = livsic._track_chart_coords(box, path)
                ts0, us0 = _oracle_track_chart_coords(box, path)
                assert np.abs(ts - ts0).max() < 1e-12
                assert np.abs(us - us0).max() < 1e-12
