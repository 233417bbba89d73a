"""Plain-text run configuration (INI key/value schema).

Schema (all keys optional; defaults shown; keys not listed are ignored):

    [model]
    a11 = 2            ; integer entries of a hyperbolic matrix, det +-1
    a12 = 1
    a21 = 1
    a22 = 1
    roof = 1.0         ; finite, above 0.8 (the smoothing boxes' time extent)
    max_horizon = 64.0 ; positive and finite

    [observable]
    family = coboundary   ; constant | coboundary | dist2
    value = 0.0           ; constant family; finite
    base_point = 0.0, 0.0 ; dist2 family; two finite numbers

    [grid]
    n1 = 32
    n2 = 32
    ns = 16

    [kernel]
    h =                  ; default: roof/10 snapped to the s-spacing; at
                         ; most roof/10, a multiple of the s-spacing
    c = 4.0              ; positive and finite
    reach_multiplier = 2.0 ; finite, at least 2

    [atlas]              ; all three positive and finite, rho < tau/3
                         ; and eps < tau/2
    tau = 1.0
    rho = 0.25
    eps = 0.25

    [tolerances]         ; both positive and finite
    solve_tol = 1e-8
    ergodic_tol = 1e-2

    [run]
    seed = 0             ; non-negative
    output =             ; output directory (default: cwd/weakkam-out)
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .charts import check_constants, default_hyper_constants
from .grid import Grid
from .kernel import discretization
from .models import SuspensionFlow
from .observables import BUILTIN_FAMILIES, make_observable
from .regularize import default_cover


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    matrix: tuple = (2, 1, 1, 1)
    roof: float = 1.0
    max_horizon: float = 64.0
    family: str = "coboundary"
    obs_params: dict = field(default_factory=dict)
    grid_shape: tuple = (32, 32, 16)
    h: float = None
    c: float = 4.0
    reach_multiplier: float = 2.0
    tau: float = 1.0
    rho: float = 0.25
    eps: float = 0.25
    solve_tol: float = 1e-8
    ergodic_tol: float = 1e-2
    seed: int = 0
    output: str = None

    def validate(self):
        if self.family not in BUILTIN_FAMILIES:
            raise ConfigError(f"unknown observable family {self.family!r}; "
                              f"choose one of {BUILTIN_FAMILIES}")
        # Tested as `not 0 < value < inf`, so that NaN and inf fail too.
        for name in ("solve_tol", "ergodic_tol", "tau", "rho", "eps", "roof",
                     "c", "max_horizon"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ConfigError(
                    f"{name} must be positive and finite, got {value}")
        if self.h is not None and not self.h > 0:
            raise ConfigError("kernel step h must be positive")
        if not 2 <= self.reach_multiplier < np.inf:
            raise ConfigError("reach_multiplier must be finite and at least 2")
        if any(n < 2 for n in self.grid_shape):
            raise ConfigError("grid resolutions must be at least 2")
        if self.grid_shape[0] != self.grid_shape[1]:
            raise ConfigError("suspension grids need n1 == n2")
        for key, val in self.obs_params.items():
            if not np.isfinite(val).all():
                raise ConfigError(f"[observable] {key} must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # A matrix that is not hyperbolic, a roof that is not finite, a
        # kernel step build_kernel refuses, a roof too short for the
        # smoothing cover, or atlas constants build_atlas refuses.
        try:
            model = self.build_model()
            discretization(model, Grid(self.grid_shape, (1.0, 1.0, model.roof),
                                       model.base_matrix), self.h)
            default_cover(model)
            check_constants(model, self.tau, self.rho, self.eps,
                            default_hyper_constants(model, self.tau, self.rho))
        except ValueError as e:
            raise ConfigError(str(e)) from None
        return self

    def build_model(self):
        m = self.matrix
        return SuspensionFlow(
            base_matrix=np.array([[m[0], m[1]], [m[2], m[3]]], dtype=np.int64),
            roof=self.roof, max_horizon=self.max_horizon)

    def build_observable(self, model):
        return make_observable(model, self.family, **self.obs_params)

    def output_dir(self):
        out = Path(self.output) if self.output else Path.cwd() / "weakkam-out"
        out.mkdir(parents=True, exist_ok=True)
        return out


def _get(cp, sec, key, cast, default):
    if not cp.has_option(sec, key):
        return default
    raw = cp.get(sec, key).strip()
    if raw == "":
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for [{sec}] {key}: {raw!r} ({e})")


def _point(raw):
    """A base point: two numbers, separated by a comma or blanks."""
    p = tuple(float(v) for v in raw.replace(",", " ").split())
    if len(p) != 2:
        raise ValueError(f"need two numbers, got {len(p)}")
    return p


def load_config(path=None, overrides=None):
    """Load a RunConfig from an INI file, then apply keyword overrides."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        read = cp.read(str(path))
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()
    cfg.matrix = tuple(_get(cp, "model", k, int, d) for k, d in
                       zip(("a11", "a12", "a21", "a22"), cfg.matrix))
    cfg.roof = _get(cp, "model", "roof", float, cfg.roof)
    cfg.max_horizon = _get(cp, "model", "max_horizon", float, cfg.max_horizon)
    cfg.family = _get(cp, "observable", "family", str, cfg.family)
    if cp.has_option("observable", "value"):
        cfg.obs_params["value"] = _get(cp, "observable", "value", float, 0.0)
    if cp.has_option("observable", "base_point"):
        cfg.obs_params["base_point"] = _get(cp, "observable", "base_point",
                                            _point, (0.0, 0.0))
    cfg.grid_shape = tuple(_get(cp, "grid", k, int, d) for k, d in
                           zip(("n1", "n2", "ns"), cfg.grid_shape))
    cfg.h = _get(cp, "kernel", "h", float, None)
    cfg.c = _get(cp, "kernel", "c", float, cfg.c)
    cfg.reach_multiplier = _get(cp, "kernel", "reach_multiplier", float,
                                cfg.reach_multiplier)
    cfg.tau = _get(cp, "atlas", "tau", float, cfg.tau)
    cfg.rho = _get(cp, "atlas", "rho", float, cfg.rho)
    cfg.eps = _get(cp, "atlas", "eps", float, cfg.eps)
    cfg.solve_tol = _get(cp, "tolerances", "solve_tol", float, cfg.solve_tol)
    cfg.ergodic_tol = _get(cp, "tolerances", "ergodic_tol", float,
                           cfg.ergodic_tol)
    cfg.seed = _get(cp, "run", "seed", int, cfg.seed)
    cfg.output = _get(cp, "run", "output", str, cfg.output)
    for key, val in (overrides or {}).items():
        if val is not None:
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, val)
    return cfg.validate()
