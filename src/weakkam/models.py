"""Model flow: the torus suspension of a hyperbolic automorphism.

Points live in R^3 with coordinates (x1, x2, s) on T^2 x [0, roof) and the
gluing (x, roof) ~ (A x, 0); the flow is the unit translation in s.
``SuspensionFlow.flow_map`` alone moves points along the flow and across the
gluing (``flow_map(p, 0.0)`` is the roof wrap); ``birkhoff_integral`` is the
signed, batched orbit quadrature built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


# How many uniform points (seed 0) SuspensionFlow.diameter measures.
_DIAMETER_SAMPLES = 4096


class HorizonError(ValueError):
    """Requested integration time exceeds the configured horizon."""


@dataclass(frozen=True)
class HyperbolicityData:
    """Contraction and expansion rates per unit time of the splitting."""

    lambda_s: float
    lambda_u: float


@dataclass(frozen=True)
class Observable:
    """Scalar Lipschitz observable.  ``evaluate`` must accept (..., d+1) arrays.

    ``lines``, when given, computes ``along_lines`` from a family's own
    structure; it must equal the pointwise default bitwise.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    lipschitz_constant: float
    sup_bound: float
    name: str = "observable"
    lines: Optional[Callable] = None

    def __call__(self, points):
        return self.evaluate(np.asarray(points, dtype=float))

    def along_lines(self, s, base, run):
        """The observable along flow lines: out[r, c] is its value at the
        point with base ``base[run[r], c]`` and s-coordinate ``s[r]``, where
        c runs over the middle axes of ``base``, shape (runs, ..., 2).  It
        equals the pointwise evaluation at those points bitwise."""
        s = np.asarray(s, dtype=float)
        base = np.asarray(base, dtype=float)
        if self.lines is not None:
            return self.lines(s, base, run)
        pts = np.empty(s.shape + base.shape[1:-1] + (3,))
        pts[..., :2] = base[run]
        pts[..., 2] = s.reshape((-1,) + (1,) * (base.ndim - 2))
        return self(pts)


@dataclass(frozen=True)
class SuspensionFlow:
    """Constant-roof suspension of an integer matrix A on T^2 with |det A| = 1.

    The default base map is [[2, 1], [1, 1]].  The whole manifold is a locally
    maximal hyperbolic set for the suspension flow, with one-dimensional
    stable/unstable bundles spanned by the eigenvectors of A.
    """

    base_matrix: np.ndarray = field(
        default_factory=lambda: np.array([[2, 1], [1, 1]], dtype=np.int64))
    roof: float = 1.0
    max_horizon: float = 64.0

    def __post_init__(self):
        A = np.asarray(self.base_matrix, dtype=np.int64)
        if A.shape != (2, 2):
            raise ValueError("base matrix must be 2x2")
        det = int(round(np.linalg.det(A)))
        if abs(det) != 1:
            raise ValueError("base matrix must have determinant +-1")
        if abs(A[0, 0] + A[1, 1]) <= 2:
            raise ValueError("base matrix must be hyperbolic (|trace| > 2)")
        # Negated comparison: NaN fails it too.
        if not 0.0 < self.roof < np.inf:
            raise ValueError(f"roof must be positive and finite, got "
                             f"{self.roof}")
        object.__setattr__(self, "base_matrix", A)
        # A is integer with det +-1, so the inverse is integer as well.
        inv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=np.int64) * det
        object.__setattr__(self, "base_inverse", inv)
        evals, evecs = np.linalg.eig(A.astype(float))
        iu = int(np.argmax(np.abs(evals)))
        lam = float(np.abs(evals[iu]))
        eu = evecs[:, iu].real
        es = evecs[:, 1 - iu].real
        eu = eu / np.linalg.norm(eu)
        es = es / np.linalg.norm(es)
        # Fix signs so the frame is reproducible.
        if eu[0] < 0:
            eu = -eu
        if es[0] < 0:
            es = -es
        object.__setattr__(self, "unstable_eigenvalue", lam)
        object.__setattr__(self, "stable_eigenvalue", 1.0 / lam)
        object.__setattr__(self, "unstable_direction", eu)
        object.__setattr__(self, "stable_direction", es)
        frame = np.column_stack([eu, es])
        object.__setattr__(self, "eigen_frame", frame)
        object.__setattr__(self, "eigen_frame_inv", np.linalg.inv(frame))
        lam_u = np.log(lam) / self.roof
        object.__setattr__(self, "hyperbolicity", HyperbolicityData(
            lambda_s=-lam_u, lambda_u=lam_u))

    @property
    def sup_norm_bound(self):
        return 1.0  # V = d/ds, unit speed

    def _apply_base(self, base, n):
        """Apply A^n (mod 1) to base coordinates (..., 2), stepwise for accuracy."""
        b = np.mod(np.asarray(base, dtype=float), 1.0)
        n = np.asarray(n, dtype=np.int64)
        A = self.base_matrix.astype(float)
        Ainv = self.base_inverse.astype(float)
        rem = np.broadcast_to(n, b.shape[:-1]).copy()
        b = np.broadcast_to(b, rem.shape + (2,)).copy()
        while True:
            pos = rem > 0
            neg = rem < 0
            if not (pos.any() or neg.any()):
                break
            if pos.any():
                b[pos] = np.mod(b[pos] @ A.T, 1.0)
                rem[pos] -= 1
            if neg.any():
                b[neg] = np.mod(b[neg] @ Ainv.T, 1.0)
                rem[neg] += 1
        return b

    def flow_map(self, x, t):
        """Time-t flow.  Exact up to rounding: translate s, apply A at crossings.

        Broadcasts ``x`` (..., 3) against ``t``.  With t = 0 it is the roof
        wrap: s goes into [0, roof) and the base through A^floor(s/roof) mod 1.
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x[..., 2]))):
            raise ValueError("flow_map needs finite times and s coordinates")
        if np.any(np.abs(t) > self.max_horizon):
            raise HorizonError(f"|t| exceeds max horizon {self.max_horizon}")
        s_tot = x[..., 2] + t
        n = np.floor(s_tot / self.roof).astype(np.int64)
        s_new = s_tot - n * self.roof
        # Rounding can leave s_new at the roof, or below 0 when s_tot / roof
        # rounds up: move it one roof, the low side first (it may hit roof).
        low, hit = s_new < 0, s_new >= self.roof
        if (low | hit).any():
            s_new = np.where(low, s_new + self.roof, s_new)
            hit = s_new >= self.roof
            s_new = np.where(hit, s_new - self.roof, s_new)
            n = n - low + hit
        shape = np.broadcast_shapes(x[..., 0].shape, t.shape)
        b = self._apply_base(np.broadcast_to(x[..., :2], shape + (2,)), n)
        out = np.empty(shape + (3,))
        out[..., :2] = b
        out[..., 2] = s_new
        return out

    def velocity(self, x):
        """The generating vector field V = d/ds, in suspension coordinates."""
        x = np.asarray(x, dtype=float)
        v = np.zeros_like(x)
        v[..., 2] = 1.0
        return v

    def difference(self, q, p):
        """Lifted displacement q - p, choosing the gluing branch of least norm.

        Returns (..., 3) vectors; the base part is a representative of the
        torus difference after optionally carrying q across the roof.
        """
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        best = None
        best_norm = None
        A = self.base_matrix.astype(float)
        Ainv = self.base_inverse.astype(float)
        for m, M in ((-1, A), (0, None), (1, Ainv)):
            # (b, s) ~ (A^{-m} b, s + m*roof): lift q to the copy nearest p.
            bq = q[..., :2] if M is None else np.mod(q[..., :2] @ M.T, 1.0)
            db = bq - p[..., :2]
            db = db - np.round(db)
            ds = q[..., 2] + m * self.roof - p[..., 2]
            d = np.concatenate([db, ds[..., None]], axis=-1)
            nrm = np.linalg.norm(d, axis=-1)
            if best is None:
                best, best_norm = d, nrm
            else:
                better = nrm < best_norm
                best = np.where(better[..., None], d, best)
                best_norm = np.where(better, nrm, best_norm)
        return best

    def distance(self, q, p):
        """Ambient distance on the suspension (Euclidean product metric)."""
        return np.linalg.norm(self.difference(q, p), axis=-1)

    def diameter(self):
        """Measured diameter of the manifold under :meth:`distance`."""
        rng = np.random.default_rng(0)
        pts = rng.random((_DIAMETER_SAMPLES, 3))
        pts[:, 2] *= self.roof
        # Distance to a fixed reference set is enough for a sharp lower bound;
        # the flat upper bound sqrt(1/2 + (roof/2)^2) caps it.
        ref = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5 * self.roof]])
        d = max(float(self.distance(pts, ref[0]).max()),
                float(self.distance(pts, ref[1]).max()))
        cap = float(np.sqrt(0.5 + (0.5 * self.roof) ** 2))
        return min(max(d, 0.0), cap) if d > 0 else cap


def periodic_orbits(model, max_period):
    """All periodic orbits of the suspension with base period <= max_period.

    The fixed points of A^n are x = adj(M) k / det(M) with M = A^n - I and k
    integer, so every one is an integer numerator over d = |det M|, and the
    base map acts on numerators as n -> A n (mod d).  Returns a list of
    (base_point, flow_period) with each orbit reported once through its
    least point.
    """
    if max_period > 12:
        raise ValueError("max_period capped at 12 (orbit count grows like lambda^n)")
    A = [[int(v) for v in row] for row in model.base_matrix]
    orbits = []
    for n in range(1, max_period + 1):
        M = (np.linalg.matrix_power(np.array(A, dtype=object), n)
             - np.eye(2, dtype=object)).tolist()  # exact integers
        # nonzero: a hyperbolic A^n has no eigenvalue 1
        d = abs(M[0][0] * M[1][1] - M[0][1] * M[1][0])
        # The numerators form the subgroup of (Z/d)^2 spanned by the columns
        # of adj(M): x = M^{-1} k (mod 1) over every integer k.
        gens = ((M[1][1] % d, -M[1][0] % d), (-M[0][1] % d, M[0][0] % d))
        group, todo = {(0, 0)}, [(0, 0)]
        while todo:
            p = todo.pop()
            for g in gens:
                q = ((p[0] + g[0]) % d, (p[1] + g[1]) % d)
                if q not in group:
                    group.add(q)
                    todo.append(q)
        # An orbit of period m < n was reported at m; keep period n only.
        seen = set()
        for pt in group:  # any order: each orbit's sort key below is unique
            if pt in seen:
                continue
            orbit = _base_orbit(A, pt, d)
            seen.update(orbit)
            if len(orbit) == n:
                rep = min(orbit)
                orbits.append((np.array([rep[0] / d, rep[1] / d]),
                               n * model.roof))
    orbits.sort(key=lambda o: (o[1], o[0][0], o[0][1]))
    return orbits


def _base_orbit(A, pt, d):
    """Orbit of the point pt / d under x -> Ax mod 1, as numerators over d."""
    orbit = [pt]
    cur = pt
    while True:
        cur = ((A[0][0] * cur[0] + A[0][1] * cur[1]) % d,
               (A[1][0] * cur[0] + A[1][1] * cur[1]) % d)
        if cur == pt:
            break
        orbit.append(cur)
        if len(orbit) > 4096:
            raise RuntimeError("orbit closure not found")
    return orbit


def birkhoff_integral(model, phi, x, t, quadrature_step):
    """Composite-midpoint quadrature of int_0^t phi(f^s x) ds, for either sign
    of t (negative t integrates backward; t = 0 gives 0).

    ``x`` may be a single point or a batch (..., d+1); all midpoint nodes of
    every orbit are flowed in one ``flow_map`` call.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    x = np.asarray(x, dtype=float)
    n = max(1, int(np.ceil(abs(t) / quadrature_step)))
    h = t / n
    nodes = model.flow_map(x[..., None, :], (np.arange(n) + 0.5) * h)
    return np.sum(np.asarray(phi(nodes), dtype=float), axis=-1) * h
