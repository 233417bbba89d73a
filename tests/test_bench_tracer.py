"""The benchmark tracer (``benchmarks/tracing.py``) against the real package:
every traced name must exist, be wrapped by ``install`` and be restored by
its undo, so a deleted or renamed traced function fails here rather than in
a traced benchmark run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import tracing  # noqa: E402


def _namespaces():
    mods = {m: importlib.import_module(f"weakkam.{m}")
            for m in tracing.MODULES}
    return mods, [importlib.import_module("weakkam"), *mods.values()]


def _snapshot():
    """Every binding the tracer may replace: module attributes and the
    traced class methods, by identity."""
    mods, namespaces = _namespaces()
    snap = {(ns.__name__, attr): val for ns in namespaces
            for attr, val in vars(ns).items()}
    for mod, qual, _ in tracing.TRACED:
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mods[mod], cls_name)
            snap[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return snap


def test_install_wraps_every_traced_name_and_uninstall_restores_it():
    before = _snapshot()
    uninstall = tracing.install(tracing.SpanRecorder("tier1"))
    try:
        mods, _ = _namespaces()
        for mod, qual, span in tracing.TRACED:
            owner, name = mods[mod], qual
            if "." in qual:
                cls_name, name = qual.split(".")
                owner = getattr(owner, cls_name)
            wrapped = getattr(owner, name)
            assert getattr(wrapped, "__wrapped__", None) is not None, span
    finally:
        uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed


def test_layer_metrics_read_a_traced_solve(small_kernel):
    """``layer_metrics`` reads the attributes the tracer keeps off a solve
    (``stage_a_sweeps``), so renaming them fails here."""
    from weakkam import laxoleinik

    rec = tracing.SpanRecorder("tier1")
    uninstall = tracing.install(rec)
    try:
        sol = laxoleinik.weak_kam_solve(small_kernel)
    finally:
        uninstall()
    m = tracing.layer_metrics(rec, 1.0)
    assert m["laxoleinik.weak_kam_solve.calls"] == 1
    assert m["kernel.howard.calls"] == 1
    assert m["kernel.howard.iterations"] == sol.howard["iterations"]
    # w* = T z and the residual: the two applies inside the solve
    assert m["laxoleinik.stage_a.sweeps"] + m["laxoleinik.stage_b.sweeps"] \
        == m["kernel.apply.calls"] == 2
