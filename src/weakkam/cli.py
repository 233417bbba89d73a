"""Batch command-line front end.

Subcommands: ``solve`` (full pipeline: ergodic value, weak-KAM fixed point,
subaction certificate, constants table), ``verify`` (named property suites),
``atlas``, ``shadow``, ``constants``.  All tabular output is CSV with a
documented header plus one ``summary.json`` per run.  Exit codes: 0 pass,
1 property failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .charts import affine_poincare, build_atlas
from .config import ConfigError, RunConfig, load_config
from .grid import Grid, GridFunction
from .kernel import build_kernel, discretization
from .laxoleinik import ergodic_value, verify_apriori, weak_kam_solve
from .livsic import compute_constants, livsic_lower_bound_scan
from .regularize import default_cover, regularize_all, verify_subaction
from .shadowing import k_gamma_from_maps, pseudo_orbit_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

FLOAT_FMT = "%.12g"

# The explicit constants of constants.csv, in the order it lists them.
CONSTANT_NAMES = ("a_star", "c1", "c2", "c3", "c4", "c_lambda_distortion",
                  "delta_lambda", "diam_omega", "eps", "k_gamma", "lip_gamma",
                  "lip_phi", "n_gamma", "tau")


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % float(v)
    return str(v)


def write_csv(path, header, rows):
    """Write a header and rows: an iterable of rows, each value through
    ``_fmt``, or a 2-D float array, formatted in one pass with the same
    ``FLOAT_FMT`` and the same ``\\r\\n`` row ends as ``csv.writer``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join([FLOAT_FMT] * rows.shape[1]) + "\r\n"
            f.write(line * len(rows) % tuple(rows.ravel().tolist()))
            return
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_summary(outdir, summary):
    with open(Path(outdir) / "summary.json", "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=str)
        f.write("\n")


def _build_common(cfg: RunConfig):
    model = cfg.build_model()
    phi = cfg.build_observable(model)
    grid, h = discretization(
        model, Grid(cfg.grid_shape, (1.0, 1.0, model.roof), model.base_matrix),
        cfg.h)
    return model, phi, grid, h


def _solve_and_certify(cfg, model, phi, grid, h):
    """Weak-KAM fixed point and its subaction certificate from one kernel.

    The kernel is built at reference value 0, so the eigenvalue refinement
    inside ``weak_kam_solve`` is the min-plus drift estimate of phi_bar:
    ``sol.phi_bar`` is the ergodic value and ``sol.howard`` its report.
    Also returns the wall seconds of the kernel build, the solve and the
    smoothing, of the solve's Howard and its two fold passes (``stage_a``,
    ``stage_b``), and of the smoothing's u-independent chunks and ordered
    passes (``regularize_chunks``, ``regularize_passes``).
    """
    t0 = time.perf_counter()
    kern = build_kernel(grid, model, phi, cfg.c, 0.0, h, cfg.reach_multiplier)
    t1 = time.perf_counter()
    sol = weak_kam_solve(kern)
    t2 = time.perf_counter()
    cert = regularize_all(sol.u, default_cover(model), phi, sol.phi_bar,
                          precheck=False)
    timings = {"build_kernel": t1 - t0, "weak_kam_solve": t2 - t1,
               "regularize_all": time.perf_counter() - t2, **sol.timings,
               **{"regularize_" + k: v
                  for k, v in cert.report["timings"].items()}}
    return sol, cert, timings


def _constants(cfg, model, phi):
    """Atlas and explicit constants; K_Gamma comes from the closed-form
    Poincare map of the atlas's first box."""
    atlas = build_atlas(model, cfg.tau, cfg.rho, cfg.eps)
    kg = k_gamma_from_maps([affine_poincare(atlas, 0, 0)])
    return atlas, compute_constants(atlas, phi, kg)


def _write_constants(out, consts):
    rows = [(k, getattr(consts, k)) for k in CONSTANT_NAMES]
    write_csv(out / "constants.csv", ["name", "value"], rows)
    return rows


def cmd_solve(cfg: RunConfig):
    out = cfg.output_dir()
    model, phi, grid, h = _build_common(cfg)
    checks = {}
    t0 = time.perf_counter()
    v_orb, rep_orb = ergodic_value(model, phi, "periodic_orbits", max_period=4)
    t_ergodic = time.perf_counter() - t0
    sol, cert, timings = _solve_and_certify(cfg, model, phi, grid, h)
    timings["ergodic_value"] = t_ergodic
    v_drift = sol.phi_bar
    gap = abs(v_orb - v_drift)
    scale = max(1.0, phi.sup_bound)
    checks["ergodic_agreement"] = bool(gap <= cfg.ergodic_tol * scale)
    checks["weak_kam_residual"] = bool(sol.residual <= cfg.solve_tol)
    checks["certificate_margin"] = bool(cert.margin >= -cert.slack)

    t0 = time.perf_counter()
    consts = _constants(cfg, model, phi)[1]
    timings["constants"] = time.perf_counter() - t0

    # The CSV writes are timed as one stage; summary.json, which carries the
    # timings, is written after them.
    t0 = time.perf_counter()
    write_csv(out / "ergodic.csv", ["method", "value"],
              [("periodic_orbits", v_orb), ("minplus_drift", v_drift)])
    write_csv(out / "solution.csv", ["x1", "x2", "s", "u"],
              np.column_stack([grid.node_points().reshape(-1, 3),
                               sol.u.values.reshape(-1)]))
    write_csv(out / "certificate.csv", ["quantity", "value"],
              [("margin", cert.margin), ("slack", cert.slack),
               ("lip_u", cert.lip_u), ("lip_lie", cert.lip_lie),
               ("lip_phi", cert.lip_phi), ("ratio_u", cert.ratio_u),
               ("ratio_lie", cert.ratio_lie), ("fd_step", cert.fd_step),
               ("n_region_nodes", cert.report["n_region_nodes"])])
    _write_constants(out, consts)
    timings["write"] = time.perf_counter() - t0

    summary = {"command": "solve", "phi_bar": v_drift,
               "phi_bar_periodic": v_orb, "residual": sol.residual,
               "lipschitz": sol.lipschitz, "margin": cert.margin,
               "slack": cert.slack, "checks": checks,
               "n_orbits_enumerated": rep_orb["n_orbits"],
               "howard_iterations": sol.howard["iterations"],
               "howard_offsets_folded": sum(sol.howard["offsets_folded"]),
               "stage_a_sweeps": sol.stage_a_sweeps,
               "stage_b_sweeps": sol.stage_b_sweeps,
               "aubry": sol.aubry,
               "table_columns_priced": cert.report["table_columns_priced"],
               "table_columns": cert.report["table_columns"],
               "timings": timings}
    write_summary(out, summary)
    return EXIT_PASS if all(checks.values()) else EXIT_FAIL


def _suite_semigroup(cfg, out, n_trials=100):
    model, phi, grid, h = _build_common(cfg)
    kern = build_kernel(grid, model, phi, cfg.c, 0.0, h, cfg.reach_multiplier)
    rng = np.random.default_rng(cfg.seed)
    rows, ok, margins = [], True, []
    for trial in range(n_trials):
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        v = GridFunction(grid, u.values + np.abs(rng.standard_normal(grid.shape)))
        cshift = float(rng.standard_normal())
        tu, tv = kern.apply(u), kern.apply(v)
        mono = bool(np.all(tu.values <= tv.values))
        tc = kern.apply(GridFunction(grid, u.values + cshift))
        gap = float(np.abs(tc.values - (tu.values + cshift)).max())
        bound = kern.equivariance_bound(u, cshift)
        equiv = gap <= bound
        margins.append((gap, bound))
        tmin = kern.apply(GridFunction(grid, np.minimum(u.values, v.values)))
        inf_comm = bool(np.array_equal(tmin.values,
                                       np.minimum(tu.values, tv.values)))
        ok &= mono and equiv and inf_comm
        rows.append((trial, mono, equiv, inf_comm))
    write_csv(out / "semigroup.csv",
              ["trial", "monotone", "additive_equivariant", "inf_commutes"],
              rows)
    # The trial whose equivariance gap comes nearest its bound.
    gap, bound = max(margins, key=lambda gb: gb[0] / gb[1])
    return ok, {"n_trials": len(rows), "equivariance_gap": gap,
                "equivariance_bound": bound}


def _suite_apriori(cfg, out, n_pairs=200):
    model, phi, grid, h = _build_common(cfg)
    rep = verify_apriori(model, phi, cfg.c, 5 * h, n_pairs, grid=grid, h=h,
                         seed=cfg.seed)
    write_csv(out / "apriori.csv", ["item", "worst_margin"],
              sorted(rep["worst_margins"].items()))
    return rep["passed"], {"n_checked": rep["n_checked"],
                           "violations": len(rep["violations"]),
                           "timings": rep["timings"]}


def _suite_livsic(cfg, out, n_paths=200):
    model, phi, _, _ = _build_common(cfg)
    atlas, consts = _constants(cfg, model, phi)
    phi_bar = ergodic_value(model, phi, "periodic_orbits", max_period=4)[0]
    rep = livsic_lower_bound_scan(atlas, phi, consts, phi_bar=phi_bar,
                                  n_paths=n_paths, seed=cfg.seed)
    write_csv(out / "livsic.csv", ["quantity", "value"],
              [("min_action", rep["min_action"]), ("floor", rep["floor"]),
               ("margin", rep["margin"]), ("n_paths", rep["n_paths"])])
    extra = {"weight": consts.c4, "worst_case": rep["worst_case"]}
    return rep["passed"], extra


def _suite_shadowing(cfg, out, n_orbits=200):
    atlas = build_atlas(cfg.build_model(), cfg.tau, cfg.rho, cfg.eps)
    results = pseudo_orbit_suite(atlas, n_orbits, seed=cfg.seed)
    cols = ["length", "noise", "distance_sum", "error_sum", "k_gamma",
            "max_residual", "newton_iterations", "passed"]
    write_csv(out / "shadowing.csv", cols,
              [[r[k] for k in cols] for r in results])
    ok = all(r["passed"] for r in results)
    return ok, {"n_orbits": len(results),
                "newton_iterations": sum(r["newton_iterations"]
                                         for r in results),
                "chains": len({r["chain"] for r in results})}


def _suite_subaction(cfg, out, n_samples=2000):
    model, phi, grid, h = _build_common(cfg)
    sol, cert, _ = _solve_and_certify(cfg, model, phi, grid, h)
    rep = verify_subaction(cert, phi, sol.phi_bar, n_samples, model,
                           seed=cfg.seed)
    write_csv(out / "subaction.csv", ["quantity", "value"],
              [("worst_margin", rep["worst_margin"]), ("slack", rep["slack"]),
               ("path_min_action", rep["path_min_action"]),
               ("path_floor", rep["path_floor"]),
               ("violations", len(rep["violations"]))])
    return rep["passed"], {"n_samples": n_samples}


SUITES = {"semigroup": _suite_semigroup, "apriori": _suite_apriori,
          "livsic": _suite_livsic, "shadowing": _suite_shadowing,
          "subaction": _suite_subaction}


def cmd_verify(cfg: RunConfig, suite, count=None):
    """Run one suite; ``count`` overrides its sample count when given."""
    out = cfg.output_dir()
    counts = () if count is None else (count,)
    ok, extra = SUITES[suite](cfg, out, *counts)
    write_summary(out, {"command": "verify", "suite": suite,
                        "passed": bool(ok), **extra})
    if not ok:
        print(f"verify {suite}: property failure (see {out})",
              file=sys.stderr)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_atlas(cfg: RunConfig):
    out = cfg.output_dir()
    model = cfg.build_model()
    atlas = build_atlas(model, cfg.tau, cfg.rho, cfg.eps)
    write_csv(out / "atlas.csv", ["index", "x1", "x2", "s"],
              [(i, *c) for i, c in enumerate(atlas.centers)])
    write_summary(out, {"command": "atlas", "n_boxes": atlas.n_gamma,
                        "tau": atlas.tau, "rho": atlas.rho, "eps": atlas.eps,
                        "lip_gamma": atlas.lip_gamma,
                        "covering": atlas.covering_report, "passed": True})
    return EXIT_PASS


def cmd_shadow(cfg: RunConfig, n_orbits):
    out = cfg.output_dir()
    ok, extra = _suite_shadowing(cfg, out, n_orbits=n_orbits)
    write_summary(out, {"command": "shadow", "passed": bool(ok), **extra})
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_constants(cfg: RunConfig):
    out = cfg.output_dir()
    model = cfg.build_model()
    phi = cfg.build_observable(model)
    rows = _write_constants(out, _constants(cfg, model, phi)[1])
    write_summary(out, {"command": "constants", "passed": True,
                        **{k: float(v) for k, v in rows}})
    return EXIT_PASS


def _positive_int(raw):
    """The argparse type of the ``--count`` options."""
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer: {raw!r}")
    return n


def build_parser():
    p = argparse.ArgumentParser(
        prog="weakkam",
        description="Weak-KAM / subaction pipeline for suspension flows")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--grid", type=int, nargs=3, metavar=("N1", "N2", "NS"))
    p.add_argument("--h", type=float, help="kernel time step")
    p.add_argument("--c", type=float, help="action weight C")
    p.add_argument("--tol", type=float, help="weak-KAM residual tolerance")
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="output directory")
    p.add_argument("--observable", help="built-in observable family")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="run the full pipeline")
    pv = sub.add_parser("verify", help="run a property suite")
    pv.add_argument("suite", choices=sorted(SUITES))
    pv.add_argument("--count", type=_positive_int, default=None,
                    help="override the suite's sample count")
    sub.add_parser("atlas", help="build and export the flow-box atlas")
    ps = sub.add_parser("shadow", help="run the shadowing suite")
    ps.add_argument("--count", type=_positive_int, default=200)
    sub.add_parser("constants", help="export the explicit constants table")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed, "output": args.output, "h": args.h,
                 "c": args.c, "solve_tol": args.tol, "family": args.observable}
    if args.grid is not None:
        overrides["grid_shape"] = tuple(args.grid)
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    run = {"solve": lambda: cmd_solve(cfg),
           "verify": lambda: cmd_verify(cfg, args.suite, args.count),
           "atlas": lambda: cmd_atlas(cfg),
           "shadow": lambda: cmd_shadow(cfg, args.count),
           "constants": lambda: cmd_constants(cfg)}[args.command]
    try:
        return run()
    except (ValueError, RuntimeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
