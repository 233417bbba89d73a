"""Every name ``weakkam`` exports is used by the package or the benchmark, or
is declared pending with the ROADMAP item that decides it."""

import ast
import types
from pathlib import Path

import weakkam

ROOT = Path(__file__).resolve().parents[1]

# Exports that only tests and demos call, each with the ROADMAP item that
# wires it into a pipeline or deletes it.
PENDING = {
    "decompose_path": 6,            # the block-wise Livsic check
    "factor_pseudo_orbit": 6,       # criterion 10 pins the factorization
    "check_factorization": 6,
}


def _exports():
    return sorted(n for n in weakkam.__all__
                  if not isinstance(getattr(weakkam, n), types.ModuleType))


def _defined(stmt):
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _read(node, strings=False):
    """Identifiers read under ``node``: loaded names and attributes, and
    with ``strings`` every dotted part of a string constant.  Imports and
    assignment targets are not reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def _used_in_src():
    """Names read in ``src/weakkam`` outside their own definition (the
    re-exports of ``__init__`` aside)."""
    used = set()
    for path in (ROOT / "src" / "weakkam").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            used |= _read(stmt) - _defined(stmt)
    return used


def _read_by_benchmarks():
    """Names the benchmark's code reads, also as the dotted strings of the
    names it traces."""
    used = set()
    for path in (ROOT / "benchmarks").glob("*.py"):
        if not path.name.startswith("test_"):
            used |= _read(ast.parse(path.read_text()), strings=True)
    return used


def test_every_export_is_used_or_pending():
    used = _used_in_src() | _read_by_benchmarks()
    unused = [n for n in _exports() if n not in used and n not in PENDING]
    assert not unused, (
        f"exported but read by no pipeline: {unused}; wire each in, delete "
        "it, move it into tests/ as an oracle, or declare it in PENDING")


def test_pending_list_is_current():
    exports = set(_exports())
    used = _used_in_src() | _read_by_benchmarks()
    assert not set(PENDING) - exports, "pending but not exported"
    assert not set(PENDING) & used, "used now: drop it from PENDING"
    assert set(PENDING.values()) <= {6}
