"""One benchmark repeat in a fresh interpreter: set up, run, check, report.

Run by ``run.py`` as ``python3 worker.py --workload W --seed N --out DIR
[--trace] [--setup-only]`` with ``src`` on ``PYTHONPATH``.  Prints one JSON
object as the last line of standard output.  ``setup_done`` is a
``time.monotonic()`` reading, which the parent compares with the time it
started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

import checks

GRID = ["--grid", "16", "16", "10"]

# Each call: (label, CLI arguments without --seed/--output, reach multiplier
# of the kernel it builds or None, which checks and headroom apply to it).
WORKLOADS = {
    "solve_cob": [
        ("solve", GRID + ["--observable", "coboundary", "solve"], 2.0,
         "solve_cob"),
    ],
    "solve_dist2": [
        ("solve", GRID + ["--observable", "dist2", "solve"], 2.0, "solve"),
    ],
    "verify_mix": [
        ("apriori", GRID + ["verify", "apriori"], 3.0, "verify"),
        ("livsic", GRID + ["verify", "livsic", "--count", "1000"], None,
         "verify"),
        ("shadow", GRID + ["shadow", "--count", "1000"], None, "shadow"),
        ("subaction", ["--grid", "8", "8", "10", "verify", "subaction"], 2.0,
         "verify"),
    ],
}


class SpeedProbe(threading.Thread):
    """Times a fixed numpy routine every 50 ms while the workload runs.

    On a shared host the CPU alternates every few seconds between a fast
    phase and one about 1.5x slower, CPU time included, so wall times of one
    computation drift by 10-30% between runs.  The routine repeats the
    numpy operations of the kernels' twisted shift on a 16x16x10 array (a
    roll, a wrap of the layer index, gathers through a base-index map, a
    minimum) but runs none of the package's code, so it slows with the host
    and not with the program.  The run's wall time divided by the routine's
    mean time cancels much of the host's phases.  It holds the interpreter
    for about 1.5% of the run, on every commit alike.  Samples over
    ``OUTLIER`` times the median are left out of the mean: they are waits
    for the interpreter lock (multiples of its 5 ms switch interval), which
    follow the program's own lock use, not the host's speed, and made up
    ~12% of the mean on solve_cob.
    """

    PERIOD_S = 0.05
    STEPS = 12
    OUTLIER = 3.0

    def __init__(self):
        import numpy as np

        super().__init__(daemon=True)
        self.np = np
        n = 16
        self.arr = np.arange(n * n * 10, dtype=float).reshape(n, n, 10)
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        self.base_map = np.broadcast_arrays((2 * i + j) % n, (i + j) % n)
        self.layers = np.arange(10)
        self.samples = []
        self.done = threading.Event()

    def sample(self):
        np = self.np
        t = time.perf_counter()
        best = self.arr
        for step in range(self.STEPS):
            rolled = np.roll(self.arr, (1, step % 3), axis=(0, 1))
            ks = self.layers - (step % 4 + 1)
            wraps = ks // 10
            k0 = ks - wraps * 10
            out = np.empty_like(self.arr)
            for w in np.unique(wraps):
                sel = wraps == w
                src = rolled if w == 0 else self.arr[tuple(self.base_map)]
                out[:, :, sel] = src[:, :, k0[sel]]
            best = np.minimum(best, out + 1.0)
        self.samples.append(time.perf_counter() - t)

    def run(self):
        while not self.done.wait(self.PERIOD_S):
            self.sample()

    def finish(self):
        """Stop sampling; returns the routine's mean time in seconds."""
        self.done.set()
        self.join()
        if not self.samples:
            self.sample()
        cut = self.OUTLIER * statistics.median(self.samples)
        return statistics.mean(x for x in self.samples if x <= cut)


def _overrides(argv):
    """Config overrides named by a call's global options."""
    out = {}
    if "--grid" in argv:
        i = argv.index("--grid")
        out["grid_shape"] = tuple(int(v) for v in argv[i + 1:i + 4])
    if "--observable" in argv:
        out["family"] = argv[argv.index("--observable") + 1]
    return out


def setup(workload):
    """Import the package, load the first call's config and build its model
    and observable: the cost every user run pays before any work."""
    from weakkam.config import load_config
    import weakkam.cli  # noqa: F401  (the entry point the run calls)

    cfg = load_config(None, _overrides(WORKLOADS[workload][0][1]))
    model = cfg.build_model()
    cfg.build_observable(model)
    return model


def run_calls(workload, seed, out):
    from weakkam.cli import main

    codes = []
    for i, (label, argv, _, _) in enumerate(WORKLOADS[workload]):
        outdir = out / f"{i}_{label}"
        codes.append(main(["--seed", str(seed), "--output", str(outdir)]
                          + argv))
    return codes


def check_outputs(workload, codes, out, model, checker):
    """Run every check on the calls' outputs and return the certificate
    headroom, the share of a certificate's allowance left unused.

    On a solve it is 1 + margin / slack of the subaction certificate, which
    is deterministic.  verify_mix has no deterministic certificate (its
    worst sampled margins move by 10-20% with the seed), so there it is the
    median over the shadowed orbits of 1 - distance / (K_Gamma * error).
    """
    headroom = 0.0
    for i, ((label, argv, _, kind), rc) in enumerate(
            zip(WORKLOADS[workload], codes)):
        outdir = out / f"{i}_{label}"
        summary = checks.check_call(checker, label, rc, outdir,
                                    solve=kind.startswith("solve"))
        if summary is None:
            continue
        if kind.startswith("solve"):
            headroom = 1.0 + summary["margin"] / summary["slack"]
        if kind == "solve_cob":
            gap, bound = _coboundary_gap(outdir, model, argv)
            checker.coboundary_gap(label, gap, bound)
        if kind == "shadow":
            rows = checks.read_csv(outdir / "shadowing.csv")
            headroom = statistics.median(
                1.0 - float(r["distance_sum"])
                / (float(r["k_gamma"]) * float(r["error_sum"])) for r in rows)
    return headroom


def _coboundary_gap(outdir, model, argv):
    """Criterion 1's comparison of solution.csv with the exact potential."""
    import numpy as np
    from weakkam.grid import Grid
    from weakkam.observables import coboundary_observable

    _, pot = coboundary_observable(model)
    sol = np.loadtxt(outdir / "solution.csv", delimiter=",", skiprows=1)
    diff = sol[:, 3] - pot(sol[:, :3])
    gap = float(np.abs(diff - diff.mean()).max())
    grid = Grid(_overrides(argv)["grid_shape"], (1.0, 1.0, model.roof),
                model.base_matrix)
    return gap, 5.0 * grid.diagonal * pot.lipschitz_estimate()


def kernels_built(workload):
    """Grid shape and stencil size of each kernel the workload builds."""
    from weakkam.cli import _build_common
    from weakkam.config import load_config
    from weakkam.kernel import build_kernel

    out = []
    for label, argv, reach, _ in WORKLOADS[workload]:
        if reach is None:
            continue
        cfg = load_config(None, _overrides(argv))
        model, phi, grid, h = _build_common(cfg)
        kern = build_kernel(grid, model, phi, cfg.c, 0.0, h, reach)
        out.append({"call": label, "grid": list(grid.shape),
                    "reach_multiplier": reach, "n_offsets": kern.n_offsets})
    return out


def newton_iterations(workload, out):
    for i, (label, argv, _, _) in enumerate(WORKLOADS[workload]):
        if "shadow" in argv:
            rows = checks.read_csv(out / f"{i}_{label}" / "shadowing.csv")
            return sum(int(r["newton_iterations"]) for r in rows)
    return 0


def versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    model = setup(args.workload)
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    out = Path(args.out)
    recorder = uninstall = None
    if args.trace:
        import tracing
        recorder = tracing.SpanRecorder(f"{args.workload}-{args.seed}")
        uninstall = tracing.install(recorder)
    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    codes = run_calls(args.workload, args.seed, out)
    run_s = time.perf_counter() - t0
    ref_loop_s = probe.finish()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if uninstall is not None:
        uninstall()

    checker = checks.Checker()
    headroom = check_outputs(args.workload, codes, out, model, checker)
    result.update(run_s=run_s, ref_loop_s=ref_loop_s,
                  peak_rss_mb=peak_kb / 1024.0,
                  cert_headroom=headroom, attempted=checker.attempted,
                  failed=checker.failed, failures=checker.failures,
                  exit_codes=codes, versions=versions(),
                  kernels=kernels_built(args.workload))
    if recorder is not None:
        layers = tracing.layer_metrics(recorder, run_s)
        layers["shadowing.newton_iterations"] = newton_iterations(
            args.workload, out)
        recorder.to_json(out / "spans.json")
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
