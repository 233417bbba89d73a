"""Self-tests of the benchmark's own logic: the correctness checks can fail,
and the trace arithmetic gives the documented self times and stage split.

    python3 -m pytest benchmarks/test_checks.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402


def _write_summary(tmp_path, summary):
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    return tmp_path


GOOD = {"command": "solve", "phi_bar": 1e-17, "margin": -0.2, "slack": 1.0,
        "checks": {"certificate_margin": True, "weak_kam_residual": True}}


def test_unperturbed_solve_passes(tmp_path):
    c = checks.Checker()
    checks.check_call(c, "solve", 0, _write_summary(tmp_path, GOOD),
                      solve=True)
    assert c.attempted == 4 and c.failed == 0


def test_each_perturbation_is_one_failure(tmp_path):
    perturbed = {
        "wrong phi_bar": (0, {**GOOD, "phi_bar": 2e-6}),
        "passed false": (0, {**GOOD, "passed": False}),
        "check false": (0, {**GOOD, "checks": {**GOOD["checks"],
                                               "weak_kam_residual": False}}),
        "nonzero exit": (1, GOOD),
    }
    for i, (name, (rc, summary)) in enumerate(perturbed.items()):
        outdir = tmp_path / str(i)
        outdir.mkdir()
        c = checks.Checker()
        checks.check_call(c, name, rc, _write_summary(outdir, summary),
                          solve=True)
        assert c.failed == 1, (name, c.failures)


def test_missing_summary_fails(tmp_path):
    c = checks.Checker()
    checks.check_call(c, "solve", 0, tmp_path, solve=True)
    assert c.failed == 1


def test_coboundary_gap_over_bound_fails():
    c = checks.Checker()
    c.coboundary_gap("solve", 0.5, 1.0)
    c.coboundary_gap("solve", 1.5, 1.0)
    assert (c.attempted, c.failed) == (2, 1)


def test_run_self_test_is_clean(tmp_path):
    assert checks.self_test(tmp_path) == []


def test_self_time_and_stage_split():
    rec = tracing.SpanRecorder("t")
    gather = rec.wrap("grid.gather_shift", lambda: None)
    kernel = SimpleNamespace(n_offsets=3, grid=SimpleNamespace(n_nodes=10))

    def apply(kern):
        for _ in range(kern.n_offsets):
            gather()

    def solve():
        for _ in range(5):
            traced_apply(kernel)
        return SimpleNamespace(stage_a_sweeps=2)

    traced_apply = rec.wrap("kernel.apply", apply)
    rec.wrap("laxoleinik.weak_kam_solve", solve)()
    m = tracing.layer_metrics(rec, run_s=1.0)
    assert m["kernel.apply.calls"] == 5
    assert m["grid.gather_shift.calls"] == 15
    assert m["grid.gather_per_apply"] == 3 == m["kernel.n_offsets"]
    assert m["kernel.updates"] == 150
    assert m["laxoleinik.stage_a.sweeps"] == 2
    assert m["laxoleinik.stage_b.sweeps"] == 3
    assert abs(m["kernel.apply.s"] - m["kernel.apply.self_s"]
               - m["grid.gather_shift.s"]) < 1e-9
    assert m["livsic.weighted_action.calls"] == 0
