"""Built-in observable families on the suspension manifold.

All families come with analytic derivative data where the test oracles need
it: the coboundary family is the exact flow-derivative of a closed-form
potential, so its orbit averages vanish identically.
"""

from __future__ import annotations

import numpy as np

from .models import Observable, SuspensionFlow


def smoothstep(x):
    """Quintic smoothstep: 0 on x<=0, 1 on x>=1, C^2 across the ends."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def smoothstep_prime(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)
    d = 30.0 * y * y * (1.0 - y) * (1.0 - y)
    return np.where(inside, d, 0.0)


def constant_observable(c):
    return Observable(
        evaluate=lambda p: np.full(np.asarray(p)[..., 0].shape, float(c)),
        lines=lambda s, base, run: np.full(s.shape + base.shape[1:-1],
                                           float(c)),
        lipschitz_constant=0.0,
        sup_bound=abs(float(c)),
        name=f"constant[{c}]",
    )


# The (k1, k2, amp_cos, amp_sin) frequency terms of GluePotential's P.
_GLUE_COEFFS = ((1, 0, 0.05, 0.02), (0, 1, -0.03, 0.04), (1, 1, 0.02, -0.01))
# How many uniform points (seed 0) GluePotential.lipschitz_estimate samples.
_LIPSCHITZ_SAMPLES = 20000


class GluePotential:
    """A potential u0 on the suspension built from a base trig polynomial P.

    u0(b, s) = (1 - g(s/roof)) P(b) + g(s/roof) P(A b) with g a quintic
    smoothstep, so u0 is continuous and C^2 across the roof gluing and its
    flow derivative g'(s/roof)/roof * (P(Ab) - P(b)) is closed-form.
    """

    def __init__(self, model: SuspensionFlow):
        self.model = model

    def base_potential(self, b):
        b = np.asarray(b, dtype=float)
        out = np.zeros(b[..., 0].shape)
        for k1, k2, ac, as_ in _GLUE_COEFFS:
            ang = 2.0 * np.pi * (k1 * b[..., 0] + k2 * b[..., 1])
            out = out + ac * np.cos(ang) + as_ * np.sin(ang)
        return out

    def base_gradient(self, b):
        b = np.asarray(b, dtype=float)
        g = np.zeros(b.shape)
        for k1, k2, ac, as_ in _GLUE_COEFFS:
            ang = 2.0 * np.pi * (k1 * b[..., 0] + k2 * b[..., 1])
            d = -ac * np.sin(ang) + as_ * np.cos(ang)
            g[..., 0] += 2.0 * np.pi * k1 * d
            g[..., 1] += 2.0 * np.pi * k2 * d
        return g

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        b = p[..., :2]
        s = p[..., 2] / self.model.roof
        A = self.model.base_matrix.astype(float)
        Pb = self.base_potential(b)
        PAb = self.base_potential(b @ A.T)
        g = smoothstep(s)
        return (1.0 - g) * Pb + g * PAb

    def flow_derivative(self, p):
        """Exact Lie derivative of u0 along the suspension flow."""
        p = np.asarray(p, dtype=float)
        b = p[..., :2]
        s = p[..., 2] / self.model.roof
        A = self.model.base_matrix.astype(float)
        Pb = self.base_potential(b)
        PAb = self.base_potential(b @ A.T)
        return smoothstep_prime(s) / self.model.roof * (PAb - Pb)

    def flow_derivative_lines(self, s, base, run):
        """``flow_derivative`` along flow lines (``Observable.along_lines``):
        the jump P(Ab) - P(b) once per run base, the smoothstep factor once
        per row, multiplied in ``flow_derivative``'s order."""
        A = self.model.base_matrix.astype(float)
        jump = self.base_potential(base @ A.T) - self.base_potential(base)
        rate = smoothstep_prime(s / self.model.roof) / self.model.roof
        return rate.reshape((-1,) + (1,) * (base.ndim - 2)) * jump[run]

    def lipschitz_estimate(self):
        """Sampled Lipschitz bound of u0 (gradient sup, with 10% headroom)."""
        rng = np.random.default_rng(0)
        p = rng.random((_LIPSCHITZ_SAMPLES, 3))
        p[:, 2] *= self.model.roof
        A = self.model.base_matrix.astype(float)
        g = smoothstep(p[:, 2] / self.model.roof)
        gp = smoothstep_prime(p[:, 2] / self.model.roof) / self.model.roof
        grad_b = ((1.0 - g)[:, None] * self.base_gradient(p[:, :2])
                  + g[:, None] * (self.base_gradient(p[:, :2] @ A.T) @ A))
        grad_s = gp * (self.base_potential(p[:, :2] @ A.T)
                       - self.base_potential(p[:, :2]))
        norms = np.sqrt((grad_b ** 2).sum(axis=1) + grad_s ** 2)
        return 1.1 * float(norms.max())


def coboundary_observable(model: SuspensionFlow):
    """phi = L_V[u0] for the closed-form potential; orbit averages are 0."""
    pot = GluePotential(model)
    # Lipschitz bound of the derivative field, sampled.
    rng = np.random.default_rng(1)
    p = rng.random((20000, 3))
    p[:, 2] *= model.roof
    vals = pot.flow_derivative(p)
    q = p + 1e-5 * rng.standard_normal(p.shape)
    q[:, :2] %= 1.0
    q[:, 2] = np.clip(q[:, 2], 0.0, model.roof * (1 - 1e-12))
    quot = np.abs(pot.flow_derivative(q) - vals) / np.linalg.norm(q - p, axis=1)
    obs = Observable(
        evaluate=pot.flow_derivative,
        lines=pot.flow_derivative_lines,
        lipschitz_constant=1.2 * float(quot.max()),
        sup_bound=1.05 * float(np.abs(vals).max()),
        name="coboundary",
    )
    return obs, pot


def distance_squared_observable(model: SuspensionFlow, base_point=(0.0, 0.0)):
    """phi(p) = (torus distance of the base to ``base_point``)^2.

    Nonnegative, and zero only on the fiber over ``base_point``.  When
    ``base_point`` is a fixed point of A, such as the default (0, 0), that
    fiber is a periodic orbit of the flow, so the ergodic minimizing value
    is 0.  Elsewhere it is positive in general: centred at the period-3
    point (0.5, 0.5), the periodic-orbit estimate (periods up to 4) is 0.1.
    """
    b0 = np.asarray(base_point, dtype=float)

    def ev(p):
        p = np.asarray(p, dtype=float)
        d = p[..., :2] - b0
        d = d - np.round(d)
        return (d ** 2).sum(axis=-1)

    # |grad| <= 2 * max torus distance = sqrt(2); headroom for corners of the cell.
    return Observable(evaluate=ev, lines=lambda s, base, run: ev(base)[run],
                      lipschitz_constant=float(np.sqrt(2.0)),
                      sup_bound=0.5, name="dist2_fixed_orbit")


BUILTIN_FAMILIES = ("constant", "coboundary", "dist2")


def make_observable(model, family, **params):
    """Construct a built-in observable by family name."""
    if family == "constant":
        return constant_observable(params.get("value", 0.0))
    if family == "coboundary":
        return coboundary_observable(model)[0]
    if family == "dist2":
        return distance_squared_observable(model, params.get("base_point", (0.0, 0.0)))
    raise ValueError(f"unknown observable family: {family!r}")
