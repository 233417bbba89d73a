"""Adapted local flow boxes, Poincare sections, return times and Poincare maps.

Charts on the suspension are built from the global eigen-splitting of the
base matrix: gamma_x(s, u) = f^s(x + iota(u)) with iota embedding chart
coordinates along the (unstable, stable) eigenframe in the base fiber.  All
Poincare maps between such charts are affine, which makes the hyperbolicity
certification exact up to rounding.  Adapted norms are max-norms in the
eigenframe coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import SuspensionFlow


def adapted_norm(q):
    """Adapted norm of chart coordinates q (..., 2): the max-norm in the
    eigenframe, as one exact elementwise maximum (NaN propagates) rather than
    a reduction over a length-2 axis."""
    q = np.asarray(q, dtype=float)
    return np.maximum(np.abs(q[..., 0]), np.abs(q[..., 1]))


class ConstantConsistencyError(ValueError):
    pass


class AdmissibilityError(RuntimeError):
    def __init__(self, condition):
        super().__init__(f"pair not forward admissible: {condition}")
        self.condition = condition


@dataclass
class FlowBox:
    """One adapted flow box around a center point; its Poincare section is
    the flat t=0 slice."""

    model: SuspensionFlow
    center: np.ndarray
    tau: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.frame = self.model.eigen_frame
        self.frame_inv = self.model.eigen_frame_inv

    def embed(self, u):
        """Base-fiber embedding iota: chart u -> base point (mod 1)."""
        u = np.asarray(u, dtype=float)
        b = self.center[:2] + u @ self.frame.T
        return np.mod(b, 1.0)

    def section_point(self, u):
        """The embedded section point of chart coordinate u (t = 0)."""
        b = self.embed(u)
        out = np.empty(b.shape[:-1] + (3,))
        out[..., :2] = b
        out[..., 2] = self.center[2]
        return out

    def chart_forward(self, t, u):
        """gamma(t, u) = f^t of the embedded section point."""
        return self.model.flow_map(self.section_point(u), t)

    def chart_inverse(self, p, branch="nearest"):
        """Chart coordinates (t, u) of p.

        ``branch='nearest'`` picks the section crossing closest in time;
        ``branch='forward'`` picks t in (0, roof].  The chart is not globally
        injective on the torus, so u is the minimal-norm representative.
        """
        p = np.asarray(p, dtype=float)
        roof = self.model.roof
        dt = p[..., 2] - self.center[2]
        if branch == "nearest":
            t = dt - roof * np.round(dt / roof)
        elif branch == "forward":
            t = dt - roof * (np.ceil(dt / roof) - 1.0)
        else:
            raise ValueError("branch must be 'nearest' or 'forward'")
        return t, self.transverse(p, t)

    def transverse(self, p, t):
        """Chart coordinate u of points p whose chart time is t."""
        return self.section_u(self.model.flow_map(p, -t))

    def section_u(self, x):
        """Chart coordinate u of points x already flowed back to the section
        (``transverse`` after its flow step).  A box built on a stack of
        centres (..., 3) gives each point's u against its own centre."""
        db = x[..., :2] - self.center[..., :2]
        return (db - np.round(db)) @ self.frame_inv.T


@dataclass
class AtlasConstants:
    sigma_u: float
    sigma_s: float
    eta: float
    rho: float
    eps_rho: float


@dataclass
class FlowBoxAtlas:
    model: SuspensionFlow
    boxes: list
    tau: float
    rho: float
    eps: float
    lip_gamma: float
    hyper: AtlasConstants
    covering_report: dict

    @property
    def n_gamma(self):
        return len(self.boxes)

    def _box(self, x):
        return self.boxes[x] if isinstance(x, (int, np.integer)) else x

    def diam_omega(self):
        return self.model.diameter()

    @cached_property
    def _levels(self):
        """Section levels of the boxes (ascending), each box's level, and
        one box on the stack of all centres."""
        centers = np.array([box.center for box in self.boxes])
        s, level = np.unique(centers[:, 2], return_inverse=True)
        return s, level, FlowBox(self.model, centers, self.tau)

    def nearest_center(self, p, max_adapted=None):
        """Index of the atlas center whose U_x(eps) chart puts p closest, or
        None if no center is within ``max_adapted`` (default eps).

        A point's 'nearest' chart time depends on a box only through its
        section level, so p is flowed back once per level; ties go to the
        first box.
        """
        cap = self.eps if max_adapted is None else max_adapted
        p = np.asarray(p, dtype=float)
        s, level, stacked = self._levels
        roof = self.model.roof
        dt = p[2] - s
        t = dt - roof * np.round(dt / roof)
        back = self.model.flow_map(p, -t)[level]
        u = stacked.section_u(back)
        d = np.maximum(np.abs(t)[level], adapted_norm(u))
        best = int(np.argmin(d))
        return best if d[best] < cap else None

    def contains_in_u(self, x, p, eps=None):
        """Is p inside U_x(eps) = gamma_x((-eps, eps) x B(eps))?"""
        eps = self.eps if eps is None else eps
        box = self._box(x)
        t, u = box.chart_inverse(p)
        return bool(abs(float(t)) < eps and float(adapted_norm(u)) < eps)


def default_hyper_constants(model: SuspensionFlow, tau, rho):
    """Admissible (sigma_u, sigma_s, eta, eps(rho)) for the model's rates."""
    lu = model.hyperbolicity.lambda_u
    ls = model.hyperbolicity.lambda_s
    sigma_u = float(np.exp(tau * lu / 4.0))
    sigma_s = float(np.exp(tau * ls / 4.0))
    eta = 0.5 * min((sigma_u - 1.0) / 6.0, (1.0 - sigma_s) / 6.0)
    eps_rho = rho * min((sigma_u - 1.0) / 2.0, (1.0 - sigma_s) / 8.0)
    return AtlasConstants(sigma_u=sigma_u, sigma_s=sigma_s, eta=float(eta),
                          rho=float(rho), eps_rho=float(eps_rho))


def check_constants(model, tau, rho, eps, hyper: AtlasConstants):
    lu = model.hyperbolicity.lambda_u
    ls = model.hyperbolicity.lambda_s
    checks = [
        (np.exp(tau * ls / 2.0) < hyper.sigma_s,
         "exp(tau*lambda_s/2) < sigma_s"),
        (hyper.sigma_s < 1.0, "sigma_s < 1"),
        (1.0 < hyper.sigma_u, "1 < sigma_u"),
        (hyper.sigma_u < np.exp(tau * lu / 2.0),
         "sigma_u < exp(tau*lambda_u/2)"),
        (hyper.eta < min((hyper.sigma_u - 1.0) / 6.0,
                         (1.0 - hyper.sigma_s) / 6.0),
         "eta < min((sigma_u-1)/6, (1-sigma_s)/6)"),
        (rho < tau / 3.0, "rho < tau/3"),
        (eps < tau / 2.0, "eps < tau/2"),
    ]
    for ok, name in checks:
        if not ok:
            raise ConstantConsistencyError(f"violated: {name}")


def _chart_lipschitz(model: SuspensionFlow, tau):
    """Lipschitz bound of a box chart over |t| <= 2 tau and of its inverse,
    between the adapted max-norm and the ambient metric.

    Such a chart crosses the roof k times, |k| <= N = ceil(2 tau / roof), and
    its linear part there is [V | A^k F] = [V | lam^k e_u, lam^-k e_s] with V
    orthogonal to the base.  Over the unit max-norm ball its norm peaks at a
    corner (+-1, +-1, +-1): sqrt(1 + lam^2k + lam^-2k + 2 |e_u . e_s|),
    largest at |k| = N.  ``FlowBox.chart_inverse`` takes the nearest branch,
    |t| <= roof/2, so it crosses at most one roof; it sends (db, ds) to
    (ds, diag(lam^-k, lam^k) F^-1 db), whose norm from the Euclidean to the
    max-norm is its largest row norm, at most max(1, lam |row of F^-1|).
    """
    n = int(np.ceil(2.0 * tau / model.roof))
    lam = model.unstable_eigenvalue
    cos = abs(float(model.unstable_direction @ model.stable_direction))
    fwd = np.sqrt(1.0 + lam ** (2 * n) + lam ** (-2 * n) + 2.0 * cos)
    inv = lam * np.linalg.norm(model.eigen_frame_inv, axis=1).max()
    return float(max(fwd, inv))


def build_atlas(model: SuspensionFlow, tau, rho, eps):
    """Uniform-net atlas whose U_x(eps) boxes cover the manifold.

    The centres are the lattice (i/m, j/m) on each of n_levels evenly spaced
    section levels.  The cover is certified by construction:

    * a point's nearest level is within the half-gap roof / (2 n_levels)
      <= eps/4 of its s, so its nearest-branch chart time has |t| < eps;
    * flowed back to that level, its base point lies within 1/(2m) per
      coordinate of a lattice centre, so its chart coordinate u = F^-1 db has
      adapted norm at most the corner radius |F^-1|_inf / (2m) <= eps/2.

    m is the least integer >= 2 with that radius <= eps/2.
    """
    if not all(v > 0 for v in (tau, rho, eps)):
        raise ValueError("tau, rho and eps must be positive")
    hyper = default_hyper_constants(model, tau, rho)
    check_constants(model, tau, rho, eps, hyper)
    row_sum = float(np.abs(model.eigen_frame_inv).sum(axis=1).max())
    m = max(2, int(np.ceil(row_sum / eps)))
    n_levels = max(1, int(np.ceil(model.roof / (eps / 2.0))))
    boxes = []
    for k in range(n_levels):
        s0 = k * model.roof / n_levels
        for i in range(m):
            for j in range(m):
                center = np.array([i / m, j / m, s0])
                boxes.append(FlowBox(model, center, tau))
    report = {"radius": row_sum / (2 * m),
              "level_half_gap": model.roof / (2 * n_levels),
              "n_boxes": len(boxes)}
    return FlowBoxAtlas(model=model, boxes=boxes, tau=float(tau),
                        rho=float(rho), eps=float(eps),
                        lip_gamma=_chart_lipschitz(model, tau), hyper=hyper,
                        covering_report=report)


def return_time(atlas: FlowBoxAtlas, x, y, t_hint=None):
    """Return time from Sigma_x to Sigma_y, the same for every section point.

    Both sections are flat slices of a constant-roof suspension, so the
    crossings of Sigma_y are exactly t* + m roof, where t* in (0, roof] is the
    forward offset of y's level from x's.  Returns the crossing nearest
    ``t_hint`` (default t* itself).
    """
    roof = atlas.model.roof
    dt = atlas._box(y).center[2] - atlas._box(x).center[2]
    t_star = float(dt - roof * (np.ceil(dt / roof) - 1.0))
    if t_hint is None:
        return t_star
    return t_star + roof * float(np.round((t_hint - t_star) / roof))


def check_forward_admissible(atlas: FlowBoxAtlas, x, y):
    """Def-style forward admissibility of the ordered pair (x, y)."""
    box_x = atlas._box(x)
    box_y = atlas._box(y)
    t0, u0 = box_x.chart_inverse(box_y.center, branch="forward")
    if not (abs(float(t0) - atlas.tau) < atlas.rho):
        raise AdmissibilityError(
            f"y not within rho of time-tau slice (t0={float(t0):.4f})")
    if not (float(adapted_norm(u0)) < atlas.rho):
        raise AdmissibilityError("y outside B_x(rho) transversally")
    f0 = float(adapted_norm(poincare_map(atlas, x, y, np.zeros(2))))
    if not (f0 <= atlas.hyper.eps_rho + 1e-12):
        raise AdmissibilityError(
            f"f_xy(0) outside B_y(eps(rho)) (norm {f0:.3e})")
    return True


def poincare_map(atlas: FlowBoxAtlas, x, y, q, t_hint=None):
    """f_{x,y}(q): follow the flow from gamma_x(0, q) to Sigma_y, in y-chart
    coordinates; the return time is ``return_time(atlas, x, y, t_hint)``."""
    t = return_time(atlas, x, y, t_hint)
    w = atlas._box(x).chart_forward(t, np.asarray(q, dtype=float))
    return atlas._box(y).chart_inverse(w)[1]


@dataclass
class LocalHyperbolicMap:
    """A local Poincare map with its linear part in adapted coordinates."""

    f_map: object
    linear_part: np.ndarray
    offset: np.ndarray  # f(0)
    rho: float
    affine: bool = False  # f(q) = offset + linear_part q exactly

    def __call__(self, q):
        return self.f_map(np.asarray(q, dtype=float))


def affine_poincare(atlas: FlowBoxAtlas, x, y):
    """Closed-form Poincare map for flat sections on a constant-roof suspension.

    The return time is constant on the chart, so the section-to-section map is
    the base automorphism iterated once per roof crossing: in eigenframe
    coordinates f(q) = diag(lam^k, lam^-k) q + f(0).  Exact; no root-finding.
    """
    model = atlas.model
    box_x = atlas._box(x)
    box_y = atlas._box(y)
    roof = model.roof
    t_star = return_time(atlas, x, y)
    k = int(round((box_x.center[2] + t_star - box_y.center[2]) / roof))
    lam = model.unstable_eigenvalue
    linear = np.diag([lam ** k, lam ** (-k)])
    image = model.flow_map(np.array([box_x.center[0], box_x.center[1],
                                     box_x.center[2]]), t_star)
    db = image[:2] - box_y.center[:2]
    db = db - np.round(db)
    offset = db @ model.eigen_frame_inv.T

    def f(q):
        return offset + np.asarray(q, dtype=float) @ linear.T

    return LocalHyperbolicMap(f_map=f, linear_part=linear, offset=offset,
                              rho=atlas.rho, affine=True)


@dataclass
class HyperbolicCertificate:
    sigma_u: float
    sigma_s: float
    coupling_u: float
    coupling_s: float
    offset_norm: float
    checks: dict

    @property
    def passed(self):
        return all(v["ok"] for v in self.checks.values())


def certify_hyperbolic(hmap: LocalHyperbolicMap,
                       required: AtlasConstants = None):
    """Read the adapted-hyperbolic-map quantities off an affine map.

    Block convention: coordinate 0 is unstable, coordinate 1 stable; the
    adapted norm is the max-norm.  An affine map has nonlinearity exactly 0,
    so only its linear part and offset are checked; any other map is refused
    with ValueError.  When ``required`` is given, pass/fail margins are
    reported against its constants.
    """
    if not hmap.affine:
        raise ValueError("certify_hyperbolic needs an affine map")
    A = hmap.linear_part
    sigma_u = abs(float(A[0, 0]))
    sigma_s = abs(float(A[1, 1]))
    du = abs(float(A[0, 1]))
    dsc = abs(float(A[1, 0]))
    off = float(adapted_norm(hmap.offset))
    checks = {}
    if required is not None:
        checks = {
            "expansion": {"ok": sigma_u >= required.sigma_u,
                          "margin": sigma_u - required.sigma_u},
            "contraction": {"ok": sigma_s <= required.sigma_s,
                            "margin": required.sigma_s - sigma_s},
            "coupling_u": {"ok": du <= required.eta,
                           "margin": required.eta - du},
            "coupling_s": {"ok": dsc <= required.eta,
                           "margin": required.eta - dsc},
            "offset": {"ok": off <= required.eps_rho,
                       "margin": required.eps_rho - off},
        }
    return HyperbolicCertificate(sigma_u=sigma_u, sigma_s=sigma_s,
                                 coupling_u=du, coupling_s=dsc,
                                 offset_norm=off, checks=checks)
