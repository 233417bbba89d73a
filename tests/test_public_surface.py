"""Every name ``weakkam`` exports is used by the package or the benchmark, or
is declared pending with the ROADMAP item that decides it; every defaulted
parameter of an export is set by some call, and every field of an exported
dataclass is read somewhere."""

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


# Item-6 records: their fields are what the block-wise check will read.
UNREAD_RECORDS = {"SegmentClassification", "PathBlock"}


def _trees():
    """Every module of the package, tests, demos and benchmark, parsed."""
    paths = [p for d in ("src", "tests", "demos", "benchmarks")
             for p in sorted((ROOT / d).rglob("*.py"))]
    return [ast.parse(p.read_text()) for p in paths]


def _exported_defs():
    """(name, node) of each exported module-level function and class."""
    exports = set(_exports())
    for path in sorted((ROOT / "src" / "weakkam").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and stmt.name in exports and stmt.name not in PENDING:
                yield stmt.name, stmt


def _decorators(node):
    return {d.id if isinstance(d, ast.Name) else
            d.func.id if isinstance(d, ast.Call)
            and isinstance(d.func, ast.Name) else None
            for d in node.decorator_list}


def _defaulted(fn, bound):
    """(position or None, name) of each defaulted parameter of ``fn``; a
    bound method's positions do not count its first (self) parameter."""
    args = fn.args.posonlyargs + fn.args.args
    args = args[1:] if bound else args
    first = len(args) - len(fn.args.defaults)
    for pos, a in enumerate(args[first:], first):
        yield pos, a.arg
    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if d is not None:
            yield None, a.arg


def _parameters():
    """(callee, qualified name, position, keyword) of each defaulted
    parameter of an exported function, or of a public method or ``__init__``
    (called by the class's name) of an exported class."""
    for name, node in _exported_defs():
        if isinstance(node, ast.FunctionDef):
            for pos, kw in _defaulted(node, bound=False):
                yield name, f"{name}.{kw}", pos, kw
            continue
        for fn in node.body:
            if isinstance(fn, ast.FunctionDef) and (
                    fn.name == "__init__" or not fn.name.startswith("_")):
                callee = name if fn.name == "__init__" else fn.name
                bound = "staticmethod" not in _decorators(fn)
                for pos, kw in _defaulted(fn, bound):
                    yield callee, f"{name}.{fn.name}.{kw}", pos, kw


def _calls():
    """{callee name: (most positional arguments, keywords set)} over every
    call.  A starred argument sets every position; ``**`` sets no keyword,
    since only a keyword the call names is seen to be set."""
    out = {}
    for tree in _trees():
        for n in ast.walk(tree):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            n_pos = float("inf") if any(isinstance(a, ast.Starred)
                                        for a in n.args) else len(n.args)
            kws = {k.arg for k in n.keywords if k.arg is not None}
            pos, seen = out.get(name, (0, set()))
            out[name] = (max(pos, n_pos), seen | kws)
    return out


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = _calls()
    unset = []
    for callee, qual, pos, kw in _parameters():
        n_pos, kws = calls.get(callee, (0, set()))
        if kw in kws or (pos is not None and pos < n_pos):
            continue
        unset.append(qual)
    assert not unset, (
        f"defaulted but set by no call: {sorted(unset)}; make each a "
        "module constant or let a pipeline set it")


def _fields():
    """(class, field) of every exported dataclass."""
    for name, node in _exported_defs():
        if isinstance(node, ast.ClassDef) and "dataclass" in \
                _decorators(node) and name not in UNREAD_RECORDS:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name):
                    yield name, stmt.target.id


def _attribute_reads(tree):
    """Loaded attribute names, and every dotted part of a string constant
    (``getattr`` by a listed name, a traced qualified name)."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.split("."))
    return out


def test_every_dataclass_field_is_read():
    reads = set().union(*(_attribute_reads(t) for t in _trees()))
    unread = [f"{cls}.{f}" for cls, f in _fields() if f not in reads]
    assert not unread, (
        f"stored but read nowhere: {sorted(unread)}; delete each field")
