"""weakkam benchmark: time the CLI end to end on three workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Each repeat is a fresh single-threaded interpreter (``worker.py``)
that calls ``weakkam.cli.main`` in-process, one repeat at a time.  With
``--trace 0`` the run repeats its workload while another repeat fits into
``--seconds`` (always at least one) and reports medians of the end-to-end
metrics.  With ``--trace 1`` it makes one untraced and one traced repeat and
reports the per-layer metrics of the traced one.  Metric names and units come
from ``BENCHMARK.json``.  Outputs, the full result and the span file go under
``.bench_out/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count correctness checks (see ``checks.py``).  Exit code 0 means
the run completed, whatever the checks found; any other code means it could
not run and no result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
# The set-up's reference: the imports that dominate the package's own
# set-up, in a fresh interpreter, printing when they are done.  Set-up time
# is divided by it and multiplied by its nominal time (about its time on
# the fast phase of the 2-core VM of baseline.json), so setup_s reads in
# seconds at a fixed host speed; see README.md.
REFERENCE_CODE = "import time, numpy, scipy.sparse; print(time.monotonic())"
REFERENCE_NOMINAL_S = 0.25
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker_env():
    """Environment of every child interpreter.  Bytecode is always cached,
    under ``.bench_out/pycache`` so nothing outside the checkout is written:
    whether the caller's environment disables bytecode writing would
    otherwise decide whether each set-up compiles the package (~15% of it).
    """
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_out" / "pycache")
    return env


def spawn(workload, seed, out, deadline, *flags):
    """Run one worker to completion; returns its result and its setup time
    measured from just before the process was started."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the next repeat")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), *flags]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded the time budget: {cmd}") from e
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - t_spawn
    return result


def reference_setup(deadline):
    """Time a fresh interpreter importing numpy and scipy.sparse, the same
    kind of work as the package's set-up but none of its code."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the next set-up")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-c", REFERENCE_CODE],
                              env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError("reference set-up exceeded the time budget") from e
    if proc.returncode != 0:
        raise BenchError(f"reference set-up failed: {proc.stderr}")
    return float(proc.stdout.split()[-1]) - t_spawn


def measure_setup(workload, seed, out, deadline):
    """Set-up samples from set-up-only workers, each between two reference
    set-ups.  Returns the set-up time rescaled to the reference speed, the
    plain wall times and the reference times."""
    setups, refs = [], [reference_setup(deadline)]
    for _ in range(SETUP_SAMPLES):
        setups.append(spawn(workload, seed, out / "setup", deadline,
                            "--setup-only")["setup_s"])
        refs.append(reference_setup(deadline))
    ratios = [s * 2.0 / (refs[i] + refs[i + 1])
              for i, s in enumerate(setups)]
    return statistics.median(ratios) * REFERENCE_NOMINAL_S, setups, refs


def measure(workload, seed, seconds, out, deadline):
    """Repeat the workload while one more repeat is expected to fit into
    ``seconds``; then sample set-up with set-up-only workers (the first
    repeat has compiled and cached everything they import)."""
    repeats = []
    t0 = time.monotonic()
    while True:
        repeats.append(spawn(workload, seed, out / f"r{len(repeats)}",
                             deadline))
        typical = statistics.median(r["run_s"] for r in repeats)
        if time.monotonic() - t0 + typical > seconds:
            break
    setup_s, setups, refs = measure_setup(workload, seed, out, deadline)
    metrics = {
        "run_ref": statistics.median(r["run_s"] / r["ref_loop_s"]
                                     for r in repeats),
        "run_s": statistics.median(r["run_s"] for r in repeats),
        "setup_s": setup_s,
        "setup_wall_s": statistics.median(setups),
        "setup_reference_s": statistics.median(refs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
        "cert_headroom": statistics.median(r["cert_headroom"]
                                           for r in repeats),
    }
    return repeats, metrics, {"repeats": len(repeats),
                              "setup_samples": setups,
                              "setup_reference_samples": refs}


def measure_traced(workload, seed, out, deadline):
    """One untraced repeat for the overhead baseline, then one traced.

    The overhead compares the traced wall time with the untraced one
    rescaled to the traced repeat's host speed (see ``worker.SpeedProbe``).
    """
    plain = spawn(workload, seed, out / "untraced", deadline)
    traced = spawn(workload, seed, out / "traced", deadline, "--trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["run_s"] - (
        plain["run_s"] * traced["ref_loop_s"] / plain["ref_loop_s"])
    metrics["trace.run_s"] = traced["run_s"]
    metrics["trace.untraced_run_s"] = plain["run_s"]
    return [plain, traced], metrics, {"spans": str(out / "traced" /
                                                    "spans.json")}


def cpu_info():
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, val = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = val.strip()
    except OSError:
        pass
    return info


def source_id():
    """Git commit when the checkout is a repository, and always a digest of
    the package sources, which identifies the code without git."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "weakkam" / "__init__.py").is_file():
        raise BenchError(f"no weakkam sources under {ROOT / 'src'}")
    units = declared_metrics(args.trace)
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    bad = checks.self_test(out / "selftest")
    if bad:
        raise BenchError(f"correctness checks cannot fail: {bad}")

    if args.trace:
        repeats, metrics, extra = measure_traced(args.workload, args.seed,
                                                 out, deadline)
    else:
        repeats, metrics, extra = measure(args.workload, args.seed,
                                          args.seconds, out, deadline)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"declared metrics not measured: {missing}")
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    environment = {**repeats[0]["versions"], **cpu_info(), **source_id(),
                   "kernels": repeats[0]["kernels"],
                   **{v: "1" for v in THREAD_VARS}}
    full = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "environment": environment, "metrics": metrics,
            "check_fail_rate": failed / attempted,
            "failures": [f for r in repeats for f in r["failures"]],
            "samples": {k: [r.get(k) for r in repeats]
                        for k in ("run_s", "ref_loop_s", "setup_s",
                                  "peak_rss_mb", "cert_headroom")}, **extra}
    with open(out / "result.json", "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)

    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    print("also " + json.dumps({k: v for k, v in sorted(metrics.items())
                                if k not in units}))
    print(f"{'check_fail_rate':48s} {failed / attempted:>16.6g} "
          f"({failed}/{attempted})")
    for msg in full["failures"]:
        print(f"FAILED {msg}")
    print("environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
