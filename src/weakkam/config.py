"""Plain-text run configuration (INI key/value schema).

Schema (all keys optional; defaults shown):

    [model]
    a11 = 2            ; integer base-matrix entries
    a12 = 1
    a21 = 1
    a22 = 1
    roof = 1.0
    max_horizon = 64.0

    [observable]
    family = coboundary   ; constant | coboundary | dist2
    value = 0.0           ; constant family
    base_point = 0.0, 0.0 ; dist2 family

    [grid]
    n1 = 32
    n2 = 32
    ns = 16

    [kernel]
    h =                  ; default: roof/10 snapped to the s-spacing
    c = 4.0
    reach_multiplier = 2.0

    [atlas]              ; all three must be positive
    tau = 1.0
    rho = 0.25
    eps = 0.25

    [tolerances]
    solve_tol = 1e-8
    monotone_tol = 1e-9
    ergodic_tol = 1e-2

    [run]
    seed = 0
    output =             ; output directory (default: cwd/weakkam-out)
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .models import SuspensionFlow
from .observables import BUILTIN_FAMILIES, make_observable


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
    monotone_tol: float = 1e-9
    ergodic_tol: float = 1e-2
    seed: int = 0
    output: str = None

    def validate(self):
        if self.family not in BUILTIN_FAMILIES:
            raise ConfigError(f"unknown observable family {self.family!r}; "
                              f"choose one of {BUILTIN_FAMILIES}")
        for name in ("solve_tol", "monotone_tol", "ergodic_tol", "tau",
                     "rho", "eps"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.roof <= 0:
            raise ConfigError("roof must be positive")
        if self.h is not None and self.h <= 0:
            raise ConfigError("kernel step h must be positive")
        if self.c <= 0:
            raise ConfigError("kernel weight c must be positive")
        if any(n < 2 for n in self.grid_shape):
            raise ConfigError("grid resolutions must be at least 2")
        if self.grid_shape[0] != self.grid_shape[1]:
            raise ConfigError("suspension grids need n1 == n2")
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


def load_config(path=None, overrides=None):
    """Load a RunConfig from an INI file, then apply keyword overrides."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        read = cp.read(str(path))
        if not read:
            raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()
    cfg.matrix = tuple(_get(cp, "model", k, int, d) for k, d in
                       (("a11", 2), ("a12", 1), ("a21", 1), ("a22", 1)))
    cfg.roof = _get(cp, "model", "roof", float, cfg.roof)
    cfg.max_horizon = _get(cp, "model", "max_horizon", float, cfg.max_horizon)
    cfg.family = _get(cp, "observable", "family", str, cfg.family)
    if cp.has_option("observable", "value"):
        cfg.obs_params["value"] = _get(cp, "observable", "value", float, 0.0)
    if cp.has_option("observable", "base_point"):
        raw = cp.get("observable", "base_point")
        cfg.obs_params["base_point"] = tuple(
            float(v) for v in raw.replace(",", " ").split())
    cfg.grid_shape = (_get(cp, "grid", "n1", int, 32),
                      _get(cp, "grid", "n2", int, 32),
                      _get(cp, "grid", "ns", int, 16))
    cfg.h = _get(cp, "kernel", "h", float, None)
    cfg.c = _get(cp, "kernel", "c", float, cfg.c)
    cfg.reach_multiplier = _get(cp, "kernel", "reach_multiplier", float,
                                cfg.reach_multiplier)
    cfg.tau = _get(cp, "atlas", "tau", float, cfg.tau)
    cfg.rho = _get(cp, "atlas", "rho", float, cfg.rho)
    cfg.eps = _get(cp, "atlas", "eps", float, cfg.eps)
    cfg.solve_tol = _get(cp, "tolerances", "solve_tol", float, cfg.solve_tol)
    cfg.monotone_tol = _get(cp, "tolerances", "monotone_tol", float,
                            cfg.monotone_tol)
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
