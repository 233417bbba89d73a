"""Correctness checks on the outputs of the benchmark's CLI calls.

Every timing the benchmark reports is paired with these checks: a run whose
calls fail any of them is reported with ``correct: false``.  The checks read
only what a user sees: exit codes, ``summary.json`` and the CSV files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

# Both observables have ergodic minimizing value exactly 0: a coboundary has
# zero average along every orbit, and dist2 is >= 0 and vanishes on the fixed
# fiber over the base point.
PHI_BAR_TOL = 1e-6


class Checker:
    """Counts attempted and failed checks and keeps the failures' messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    def exit_code(self, label, rc):
        return self.check(rc == 0, f"{label}: exit code {rc}")

    def summary(self, label, summary):
        """Every boolean in ``checks`` and the ``passed`` flag must be true."""
        for name, ok in sorted(summary.get("checks", {}).items()):
            self.check(ok is True, f"{label}: summary check {name} false")
        if "passed" in summary:
            self.check(summary["passed"] is True, f"{label}: passed false")

    def phi_bar(self, label, summary, reference=0.0):
        val = summary.get("phi_bar")
        self.check(val is not None and abs(val - reference) <= PHI_BAR_TOL,
                   f"{label}: |phi_bar - {reference}| = "
                   f"{'missing' if val is None else abs(val - reference)}"
                   f" > {PHI_BAR_TOL}")

    def coboundary_gap(self, label, gap, bound):
        """Criterion 1: the mean-adjusted gap between the solved u and the
        exact potential is at most 5 * grid diagonal * Lip(potential)."""
        self.check(gap <= bound,
                   f"{label}: coboundary gap {gap:.4g} > bound {bound:.4g}")


def read_summary(outdir):
    with open(Path(outdir) / "summary.json") as f:
        return json.load(f)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_call(checker, label, rc, outdir, solve=False):
    """Exit code, summary flags and, for solves, phi_bar against 0."""
    checker.exit_code(label, rc)
    try:
        summary = read_summary(outdir)
    except (OSError, ValueError) as e:
        checker.check(False, f"{label}: no readable summary.json ({e})")
        return None
    checker.summary(label, summary)
    if solve:
        checker.phi_bar(label, summary)
    return summary


def self_test(workdir):
    """Feed :func:`check_call` perturbed outputs written under ``workdir``.

    Each case must be counted as exactly one failure, and the unperturbed
    control as none.  Returns the names of the cases that misbehaved.
    """
    good = {"command": "solve", "phi_bar": 0.0,
            "checks": {"weak_kam_residual": True}}
    cases = {
        "control": (0, good, 0),
        "nonzero exit code": (1, good, 1),
        "wrong phi_bar": (0, {**good, "phi_bar": 1e-3}, 1),
        "passed false": (0, {**good, "passed": False}, 1),
        "summary check false":
            (0, {**good, "checks": {"weak_kam_residual": False}}, 1),
    }
    bad = []
    for i, (name, (rc, summary, want)) in enumerate(cases.items()):
        outdir = Path(workdir) / f"case{i}"
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "summary.json").write_text(json.dumps(summary))
        c = Checker()
        check_call(c, name, rc, outdir, solve=True)
        if c.failed != want:
            bad.append(name)
    gap = Checker()
    gap.coboundary_gap("gap", 2.0, 1.0)
    if gap.failed != 1:
        bad.append("coboundary gap over bound")
    return bad
