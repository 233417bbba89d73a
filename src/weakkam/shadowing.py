"""Periodic shadowing through chains of local hyperbolic Poincare maps.

Given a periodic pseudo-orbit (q_i) with q_{i+1} approximately f_i(q_i), a
true periodic orbit (p_i) of the chain is found by Newton iteration on the
cyclic system p_{i+1} - f_i(p_i) = 0, and the summed correction is certified
against K * sum of the per-step errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConstantsTooWeakError(ValueError):
    pass


class NewtonDivergenceError(RuntimeError):
    def __init__(self, message, history):
        super().__init__(message)
        self.history = history


class EscapeError(RuntimeError):
    pass


@dataclass
class DiscretePseudoOrbit:
    """Cyclic chain: q_i in box i, f_i maps box i coordinates to box i+1."""

    points: np.ndarray  # (N, 2) chart coordinates, q_N identified with q_0
    box_indices: list
    rho: float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be (N, 2)")

    @property
    def n(self):
        return self.points.shape[0]

    def step_errors(self, maps):
        errs = np.empty(self.n)
        for i in range(self.n):
            fq = maps[i](self.points[i])
            errs[i] = np.abs(fq - self.points[(i + 1) % self.n]).max()
        return errs

    def validate(self, maps):
        if np.abs(self.points).max() > self.rho / 2 + 1e-12:
            raise ValueError("pseudo-orbit points must stay in B(rho/2)")
        for i in range(self.n):
            fq = maps[i](self.points[i])
            if np.abs(fq).max() > self.rho / 2 + 1e-9:
                raise ValueError(
                    f"image of point {i} leaves B(rho/2) "
                    f"(norm {np.abs(fq).max():.3e})")


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
    model = atlas.model
    A = model.base_matrix
    level0 = [(i, box) for i, box in enumerate(atlas.boxes)
              if abs(box.center[2]) < 1e-12]
    # The level-0 centers form an m x m integer lattice scaled by 1/m.
    m = int(round(np.sqrt(len(level0))))
    centers = {}
    for idx, box in level0:
        key = (int(round(box.center[0] * m)) % m,
               int(round(box.center[1] * m)) % m)
        centers[key] = idx
    chains = []
    seen = set()
    for start, idx in centers.items():
        if idx in seen:
            continue
        cyc = []
        cur = start
        while True:
            j = centers[cur]
            cyc.append(j)
            seen.add(j)
            cur = ((A[0, 0] * cur[0] + A[0, 1] * cur[1]) % m,
                   (A[1, 0] * cur[0] + A[1, 1] * cur[1]) % m)
            if cur == start:
                break
        if len(cyc) <= max_len:
            chains.append((cyc, len(cyc)))
    return chains


def pseudo_orbit_suite(atlas, n_orbits, seed=0, noise_range=(1e-6, 1e-2),
                       max_len=50, tol=1e-10):
    """Randomized periodic pseudo-orbits through lattice box chains.

    Each pseudo-orbit is the exact periodic orbit of its affine Poincare chain
    (the origin, since chain offsets vanish) plus uniform noise.  Returns a
    list of per-orbit result dicts from :func:`shadow_periodic`.
    """
    from .charts import affine_poincare

    rng = np.random.default_rng(seed)
    chains = lattice_box_chains(atlas, max_len=max_len)
    if not chains:
        raise ValueError("atlas has no level-0 lattice chains")
    map_cache = {}
    results = []
    for _ in range(n_orbits):
        cyc, period = chains[rng.integers(0, len(chains))]
        reps = int(rng.integers(1, max(2, max_len // period + 1)))
        boxes = (cyc * reps)[: period * reps]
        if len(boxes) < 2:
            boxes = boxes * 2
        maps = []
        for i in range(len(boxes)):
            key = (boxes[i], boxes[(i + 1) % len(boxes)])
            if key not in map_cache:
                map_cache[key] = affine_poincare(atlas, key[0], key[1])
            maps.append(map_cache[key])
        noise = 10 ** rng.uniform(np.log10(noise_range[0]),
                                  np.log10(noise_range[1]))
        pts = rng.uniform(-noise, noise, (len(boxes), 2))
        orbit = DiscretePseudoOrbit(points=pts, box_indices=boxes,
                                    rho=atlas.rho)
        res = shadow_periodic(orbit, maps, tol=tol)
        results.append({"length": len(boxes), "noise": float(noise),
                        "distance_sum": res.distance_sum,
                        "error_sum": res.error_sum, "k_gamma": res.k_gamma,
                        "max_residual": float(res.residuals.max()),
                        "newton_iterations": res.newton_iterations,
                        "passed": res.passed})
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
    sigma_u = min(abs(float(m.linear_part[0, 0])) for m in maps)
    sigma_s = max(abs(float(m.linear_part[1, 1])) for m in maps)
    eta = max(max(abs(float(m.linear_part[0, 1])),
                  abs(float(m.linear_part[1, 0]))) for m in maps)
    return estimate_k_gamma(sigma_u, sigma_s, eta)


def shadow_periodic(orbit: DiscretePseudoOrbit, maps, tol=1e-10,
                    k_gamma=None, max_iters=25):
    """Newton solve of the cyclic system; certifies the summed-error bound.

    The cyclic block-bidiagonal linearization is solved densely (the chains
    here are short).  Raises on divergence or on escape from B(rho).
    """
    n = orbit.n
    if len(maps) != n:
        raise ValueError("need one map per step")
    orbit.validate(maps)
    if k_gamma is None:
        k_gamma = k_gamma_from_maps(maps)
    p = orbit.points.copy()
    history = []
    stall = 0
    it = 0
    for it in range(max_iters):
        F = np.empty((n, 2))
        for i in range(n):
            F[i] = maps[i](p[i]) - p[(i + 1) % n]
        res = float(np.abs(F).max())
        history.append(res)
        if res < tol:
            break
        if len(history) >= 2 and res > 0.5 * history[-2]:
            stall += 1
            if stall >= 5:
                raise NewtonDivergenceError(
                    "Newton residual stopped halving", history)
        else:
            stall = 0
        J = np.zeros((2 * n, 2 * n))
        for i in range(n):
            Df = maps[i].jacobian(p[i])
            J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = Df
            j = (i + 1) % n
            J[2 * i:2 * i + 2, 2 * j:2 * j + 2] -= np.eye(2)
        try:
            step = np.linalg.solve(J, -F.ravel())
        except np.linalg.LinAlgError as e:
            raise NewtonDivergenceError(f"singular linearization: {e}", history)
        p = p + step.reshape(n, 2)
        if np.abs(p).max() > orbit.rho:
            raise EscapeError("Newton iterate escaped B(rho)")
    else:
        res = history[-1]
        if res >= tol:
            raise NewtonDivergenceError("max Newton iterations reached", history)
    residuals = np.array([np.abs(maps[i](p[i]) - p[(i + 1) % n]).max()
                          for i in range(n)])
    dist = float(np.abs(orbit.points - p).max(axis=1).sum())
    errs = float(orbit.step_errors(maps).sum())
    return ShadowingResult(orbit=p, residuals=residuals, distance_sum=dist,
                           error_sum=errs, k_gamma=float(k_gamma),
                           passed=bool(dist <= k_gamma * errs + 1e-14),
                           newton_iterations=it + 1)
