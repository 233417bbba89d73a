"""Periodic shadowing through chains of affine local Poincare maps.

A true periodic orbit (p_i) near a periodic pseudo-orbit (q_i) solves
f_i(p_i) = p_{i+1}, and the summed correction is certified against K * sum of
the per-step errors.  Every map is affine
(:func:`~weakkam.charts.affine_poincare`), so the cyclic system is linear:
one exact solve with J = blockdiag(linear parts) - (cyclic shift) gives the
orbit, and its residual is certified once, after the solve.  Orbits sharing
a box sequence are solved together: one einsum evaluates the system on their
(m, n, 2) points and one solve takes all their right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .charts import adapted_norm, affine_poincare


class ConstantsTooWeakError(ValueError):
    pass


class NewtonDivergenceError(RuntimeError):
    pass


class EscapeError(RuntimeError):
    pass


def _cyclic_jacobian(L):
    """J of the cyclic system f_i(p_i) - p_{i+1} with linear parts L
    (n, 2, 2): L_i on the diagonal blocks, -I on the blocks (i, i+1 mod n);
    at n = 1 the two meet, J = L_0 - I."""
    n = len(L)
    J = np.zeros((n, 2, n, 2))
    i = np.arange(n)
    J[i, :, i, :] = L
    J[i, :, (i + 1) % n, :] -= np.eye(2)
    return J.reshape(2 * n, 2 * n)


def _ball_errors(Q, FQ, rho):
    """{row: message} for orbits with a point or an image outside B(rho/2)."""
    img = adapted_norm(FQ) > rho / 2 + 1e-9
    pts = np.abs(Q).max(axis=(1, 2)) > rho / 2 + 1e-12
    return {j: "pseudo-orbit points must stay in B(rho/2)" if pts[j] else
            f"image of point {np.argmax(img[j])} leaves B(rho/2)"
            for j in np.flatnonzero(pts | img.any(axis=1))}


@dataclass
class ShadowingResult:
    orbit: np.ndarray
    residuals: np.ndarray
    distance_sum: float
    error_sum: float
    k_gamma: float
    passed: bool
    newton_iterations: int


def lattice_box_chains(atlas, max_len=50):
    """Cyclic chains of atlas boxes that follow the base automorphism.

    Atlas centers on the level-0 lattice are permuted by the base matrix (the
    lattice is invariant), so following a lattice orbit yields box chains whose
    Poincare maps have exactly zero offset; any multiple of the orbit period
    up to ``max_len`` closes a periodic chain.  Returns a list of
    (box_index_cycle, period).
    """
    A = atlas.model.base_matrix
    level0 = [(i, c) for i, c in enumerate(atlas.centers)
              if abs(c[2]) < 1e-12]
    # The level-0 centers form an m x m integer lattice scaled by 1/m.
    m = int(round(np.sqrt(len(level0))))
    centers = {(int(round(c[0] * m)) % m, int(round(c[1] * m)) % m): i
               for i, c in level0}
    chains, seen = [], set()
    for cur in centers:
        cyc = []
        while centers[cur] not in seen:
            seen.add(centers[cur])
            cyc.append(centers[cur])
            cur = tuple(int(v) for v in A @ cur % m)
        if 0 < len(cyc) <= max_len:
            chains.append((cyc, len(cyc)))
    return chains


# pseudo_orbit_suite's draws: noise amplitudes log-uniform over
# _NOISE_RANGE, chains of at most _MAX_LEN boxes; _TOL is the residual
# tolerance certified after the solve.
_NOISE_RANGE = (1e-6, 1e-2)
_MAX_LEN = 50
_TOL = 1e-10


def pseudo_orbit_suite(atlas, n_orbits, seed=0):
    """Randomized periodic pseudo-orbits through lattice box chains.

    Each pseudo-orbit is the exact periodic orbit of its affine Poincare chain
    (the origin, since chain offsets vanish) plus uniform noise.  All orbits
    are drawn first, then shadowed one box sequence at a time, by one exact
    solve of the cyclic affine system per sequence.  Returns one
    result dict per orbit, in draw order; ``chain`` numbers its box sequence.
    Raises the error of the lowest-numbered failing orbit, naming it."""
    rng = np.random.default_rng(seed)
    chains = lattice_box_chains(atlas, max_len=_MAX_LEN)
    if not chains:
        raise ValueError("atlas has no level-0 lattice chains")
    groups = {}
    for k in range(n_orbits):
        cyc, period = chains[rng.integers(0, len(chains))]
        reps = int(rng.integers(1, max(2, _MAX_LEN // period + 1)))
        boxes = cyc * max(reps, 2 // period)  # at least two steps
        noise = 10 ** rng.uniform(np.log10(_NOISE_RANGE[0]),
                                  np.log10(_NOISE_RANGE[1]))
        pts = rng.uniform(-noise, noise, (len(boxes), 2))
        groups.setdefault(tuple(boxes), []).append((k, float(noise), pts))
    pair_map = lru_cache(None)(lambda x, y: affine_poincare(atlas, x, y))
    results = [None] * n_orbits
    for chain, (boxes, members) in enumerate(groups.items()):
        maps = [pair_map(*key) for key in zip(boxes, boxes[1:] + boxes[:1])]
        ids, noises, pts = zip(*members)
        solved = _shadow_chain(np.stack(pts), maps, atlas.rho)
        for k, noise, res in zip(ids, noises, solved):
            results[k] = res if isinstance(res, Exception) else {
                "length": len(boxes), "noise": noise,
                "distance_sum": res.distance_sum, "error_sum": res.error_sum,
                "k_gamma": res.k_gamma,
                "max_residual": float(res.residuals.max()),
                "newton_iterations": res.newton_iterations,
                "passed": res.passed, "chain": chain}
    for k, res in enumerate(results):
        if isinstance(res, Exception):
            res.args = (f"orbit {k}: {res}",)
            raise res
    return results


def estimate_k_gamma(sigma_u, sigma_s, eta=0.0):
    """Heuristic shadowing constant 2 / min(sigma_u - 1 - 3 eta,
    1 - sigma_s - 3 eta), clamped to at least 1."""
    den = min(sigma_u - 1.0 - 3.0 * eta, 1.0 - sigma_s - 3.0 * eta)
    if den <= 0.0:
        raise ConstantsTooWeakError(
            "hyperbolicity constants too weak for a shadowing bound")
    return max(1.0, 2.0 / den)


def k_gamma_from_maps(maps):
    """estimate_k_gamma from the certified bounds of a chain of maps."""
    L = np.abs(np.stack([m.linear_part for m in maps]).astype(float))
    return estimate_k_gamma(float(L[:, 0, 0].min()), float(L[:, 1, 1].max()),
                            float(max(L[:, 0, 1].max(), L[:, 1, 0].max())))


def shadow_periodic(points, maps, rho, k_gamma=None):
    """Exact solve of the cyclic affine system through the chart points
    ``points`` (N, 2), q_i in box i with q_N = q_0 and ``maps[i]`` from box
    i to box i + 1; certifies the summed-error bound.

    The one-orbit case of the chain solve.  Raises ValueError for points
    not (N, 2) or with points or images outside B(rho/2),
    NewtonDivergenceError for a singular system or a residual not below
    ``_TOL`` after the solve, EscapeError for an orbit outside B(rho)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("points must be (N, 2)")
    res = _shadow_chain(points[None], maps, rho, k_gamma)[0]
    if isinstance(res, Exception):
        raise res
    return res


def _shadow_chain(Q, maps, rho, k_gamma=None):
    """Shadow the pseudo-orbits Q (m, n, 2) of one chain of affine maps
    together.

    The residual F_i = f_i(p_i) - p_{i+1} is affine in P, so one solve
    J step = -F(Q) with J = ``_cyclic_jacobian`` is exact; the residual at
    the solution is then checked against ``_TOL``, which catches a wrong J.
    ``newton_iterations`` counts residual evaluations: 1 for an orbit already
    below ``_TOL``, else 2.  Returns, per orbit, its ShadowingResult or the
    error it raises alone: points or images outside B(rho/2) (ValueError); a
    singular system or a residual not below ``_TOL`` after the solve
    (NewtonDivergenceError); a solution outside B(rho) (EscapeError)."""
    m, n, _ = Q.shape
    if len(maps) != n:
        raise ValueError("need one map per step")
    L = np.stack([f.linear_part for f in maps]).astype(float)
    off = np.stack([f.offset for f in maps]).astype(float)

    def images(P):
        return off + np.einsum("nij,mnj->mni", L, P)

    FQ = images(Q)
    out = {j: ValueError(msg) for j, msg in _ball_errors(Q, FQ, rho).items()}
    try:
        k_gamma = float(k_gamma_from_maps(maps) if k_gamma is None
                        else k_gamma)
    except ConstantsTooWeakError as e:
        return [out.get(j, e) for j in range(m)]
    F = FQ - np.roll(Q, -1, axis=1)
    resid = adapted_norm(F)
    errs, iters = resid.sum(axis=1), np.ones(m, dtype=int)
    act = np.setdiff1d(np.flatnonzero(~(resid.max(axis=1) < _TOL)), list(out))
    try:
        step = np.linalg.solve(_cyclic_jacobian(L),
                               -F[act].reshape(act.size, 2 * n).T)
    except np.linalg.LinAlgError as e:
        out.update((j, NewtonDivergenceError(f"singular linearization: {e}"))
                   for j in act)
        act, step = act[:0], np.zeros((2 * n, 0))
    P = Q.copy()
    P[act] = P[act] + step.T.reshape(act.size, n, 2)
    escaped = np.abs(P[act]).max(axis=(1, 2)) > rho
    out.update((j, EscapeError("shadowing orbit escaped B(rho)"))
               for j in act[escaped])
    act = act[~escaped]
    resid[act] = adapted_norm(images(P[act]) - np.roll(P[act], -1, axis=1))
    iters[act] = 2
    out.update((j, NewtonDivergenceError(
        f"residual {resid[j].max():.3g} not below {_TOL:g} after the exact "
        "solve")) for j in act if not resid[j].max() < _TOL)
    dist = adapted_norm(Q - P).sum(axis=1)
    return [out[j] if j in out else ShadowingResult(
        orbit=P[j], residuals=resid[j], distance_sum=float(dist[j]),
        error_sum=float(errs[j]), k_gamma=k_gamma,
        passed=bool(dist[j] <= k_gamma * errs[j] + 1e-14),
        newton_iterations=int(iters[j])) for j in range(m)]
