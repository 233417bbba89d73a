"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from outside the package: :func:`install` replaces each
traced method on its class and each traced module function under every name
the ``weakkam`` modules bind it to (``weakkam.cli.weak_kam_solve``,
``weakkam.laxoleinik.build_kernel``, ...), so callers that looked the name up
at import time still reach the wrapper.  Nothing under ``src/`` changes.

A span is (name, parent, start, end); all spans of one recorder share its
``run_id``.  Columns are kept in ``array`` buffers because the kernel layers
produce a few hundred thousand spans per run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, qualified name, span name).  Class methods are given as
# "Class.method"; module functions are patched under every binding.
TRACED = (
    ("kernel", "ActionKernel.apply", "kernel.apply"),
    ("kernel", "ActionKernel.apply_reverse", "kernel.apply_reverse"),
    ("kernel", "ActionKernel.solve_additive_eigenvalue", "kernel.howard"),
    ("kernel", "build_kernel", "kernel.build"),
    ("grid", "Grid.gather_shift", "grid.gather_shift"),
    ("grid", "Grid.path_distance_field", "grid.path_distance_field"),
    ("grid", "Grid.neighbor_graph", "grid.neighbor_graph"),
    ("grid", "GridFunction.interpolate", "grid.interpolate"),
    ("grid", "GridFunction.discrete_lipschitz", "grid.discrete_lipschitz"),
    ("laxoleinik", "ergodic_value", "laxoleinik.ergodic_value"),
    ("laxoleinik", "weak_kam_solve", "laxoleinik.weak_kam_solve"),
    ("laxoleinik", "verify_apriori", "laxoleinik.verify_apriori"),
    ("regularize", "regularize_all", "regularize.regularize_all"),
    ("regularize", "regularize_once", "regularize.regularize_once"),
    ("regularize", "lie_derivative_field", "regularize.lie_derivative_field"),
    ("regularize", "verify_subaction", "regularize.verify_subaction"),
    ("models", "SuspensionFlow.flow_map", "models.flow_map"),
    ("models", "SuspensionFlow.diameter", "models.diameter"),
    ("models", "birkhoff_integral", "models.birkhoff_integral"),
    ("models", "periodic_orbits", "models.periodic_orbits"),
    ("models", "Observable.__call__", "observables.eval"),
    ("charts", "build_atlas", "charts.build_atlas"),
    ("charts", "affine_poincare", "charts.affine_poincare"),
    ("livsic", "compute_constants", "livsic.compute_constants"),
    ("livsic", "generate_paths", "livsic.generate_paths"),
    ("livsic", "weighted_action", "livsic.weighted_action"),
    ("livsic", "livsic_lower_bound_scan", "livsic.livsic_lower_bound_scan"),
    ("shadowing", "pseudo_orbit_suite", "shadowing.pseudo_orbit_suite"),
    ("shadowing", "shadow_periodic", "shadowing.shadow_periodic"),
    ("cli", "write_csv", "cli.io"),
    ("cli", "write_summary", "cli.io"),
    ("config", "load_config", "config.load_config"),
)

MODULES = ("models", "observables", "grid", "kernel", "laxoleinik", "charts",
           "shadowing", "livsic", "regularize", "config", "cli")

KERNEL_SPANS = ("kernel.apply", "kernel.apply_reverse", "kernel.howard")
ERGODIC_METHODS = ("periodic_orbits", "minplus_drift")


def _ergodic_name(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    return f"laxoleinik.ergodic_value.{method}"


# Span names that depend on the call, and attributes kept per span.
NAME_OF = {"laxoleinik.ergodic_value": _ergodic_name}
ATTR_OF = {
    "kernel.apply": lambda a, kw, out: (a[0].n_offsets, a[0].grid.n_nodes),
    "kernel.apply_reverse":
        lambda a, kw, out: (a[0].n_offsets, a[0].grid.n_nodes),
    "kernel.howard":
        lambda a, kw, out: (out[2]["iterations"], a[0].grid.n_nodes),
    "laxoleinik.weak_kam_solve": lambda a, kw, out: out.stage_a_sweeps,
}


class SpanRecorder:
    """Records nested spans of one single-threaded run in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs = {}
        self._stack = [-1]

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, span_name, fn):
        name_of = NAME_OF.get(span_name)
        attr_of = ATTR_OF.get(span_name)
        fixed_id = self._name_id(span_name) if name_of is None else None
        stack, clock = self._stack, time.perf_counter
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(fixed_id if name_of is None
                         else self._name_id(name_of(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if attr_of is not None:
                self.attrs[sid] = attr_of(args, kwargs, out)
            return out

        return traced

    def span_names(self):
        return [self.names[i] for i in self.name]

    def to_json(self, path):
        """Write the spans column-wise: span i is (name[i], parent[i],
        start[i], end[i]) in seconds; parent -1 marks a top-level span."""
        doc = {"run_id": self.run_id, "names": self.names,
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "attrs": {str(k): v for k, v in self.attrs.items()}}
        with open(path, "w") as f:
            json.dump(doc, f)


def install(recorder):
    """Wrap every entry of TRACED; returns a function that undoes it."""
    mods = {m: importlib.import_module(f"weakkam.{m}") for m in MODULES}
    namespaces = [importlib.import_module("weakkam"), *mods.values()]
    undo = []
    for mod, qual, span in TRACED:
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mods[mod], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, recorder.wrap(span, orig))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(mods[mod], qual)
        wrapped = recorder.wrap(span, orig)
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, attr, wrapped)
                    undo.append((ns, attr, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall


def layer_metrics(rec: SpanRecorder, run_s):
    """Per-layer totals, self times, counts and ratios from one run's spans.

    Self time is a span's duration minus its children's; children of one
    span never overlap because the run is single-threaded.
    """
    n = len(rec.start)
    names = rec.span_names()
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += dur[i]
    # Every traced layer is reported, with zero calls where the workload
    # does not reach it.
    calls = {span: 0 for _, _, span in TRACED if span not in NAME_OF}
    calls.update({f"laxoleinik.ergodic_value.{m}": 0 for m in ERGODIC_METHODS})
    total = dict.fromkeys(calls, 0.0)
    self_s = dict.fromkeys(calls, 0.0)
    for i, nm in enumerate(names):
        calls[nm] += 1
        total[nm] += dur[i]
        self_s[nm] += dur[i] - child[i]

    m = {}
    for nm in sorted(calls):
        m[f"{nm}.calls"] = calls[nm]
        m[f"{nm}.s"] = total[nm]
        m[f"{nm}.self_s"] = self_s[nm]

    # Kernel work: gathers issued from inside a kernel span, priced at the
    # node count of that kernel's grid.
    kernel_ids = {rec._name_ids.get(k) for k in KERNEL_SPANS} - {None}
    apply_id = rec._name_ids.get("kernel.apply")
    gather_id = rec._name_ids.get("grid.gather_shift")
    updates = gathers_in_apply = 0
    for i in range(n):
        p = rec.parent[i]
        if rec.name[i] == gather_id and p >= 0 and rec.name[p] in kernel_ids:
            updates += rec.attrs[p][1]
            gathers_in_apply += rec.name[p] == apply_id
    applies = [sid for sid in rec.attrs if rec.name[sid] == apply_id]
    m["kernel.updates"] = updates
    m["kernel.updates_per_s"] = _ratio(
        updates, sum(m[f"{k}.s"] for k in KERNEL_SPANS))
    m["kernel.n_offsets"] = _ratio(sum(rec.attrs[s][0] for s in applies),
                                   len(applies))
    m["kernel.howard.iterations"] = sum(
        rec.attrs[s][0] for s in rec.attrs if names[s] == "kernel.howard")
    m["kernel.apply.ms_per_call"] = _ratio(1e3 * m["kernel.apply.s"],
                                           len(applies))
    m["grid.gather_shift.us_per_call"] = _ratio(
        1e6 * m["grid.gather_shift.s"], m["grid.gather_shift.calls"])
    m["grid.gather_per_apply"] = _ratio(gathers_in_apply, len(applies))
    m.update(_stage_metrics(rec, names, apply_id))

    top = sum(dur[i] for i in range(n) if rec.parent[i] < 0)
    m["trace.coverage"] = top / run_s
    m["trace.spans"] = n
    return m


def _ratio(num, den):
    return num / den if den else 0.0


def _stage_metrics(rec, names, apply_id):
    """Split the applies directly under each weak_kam_solve span into Stage A
    (the first ``stage_a_sweeps`` of them) and Stage B (the rest).  A stage's
    time runs from its first apply's start to the next stage's first apply
    (Stage A) or to its last apply's end (Stage B), so the min/compare work
    between sweeps is included."""
    out = {"laxoleinik.stage_a.sweeps": 0, "laxoleinik.stage_a.s": 0.0,
           "laxoleinik.stage_b.sweeps": 0, "laxoleinik.stage_b.s": 0.0}
    solves = {s: [] for s in rec.attrs
              if names[s] == "laxoleinik.weak_kam_solve"}
    for i in range(len(rec.start)):
        if rec.name[i] == apply_id and rec.parent[i] in solves:
            solves[rec.parent[i]].append(i)
    for sid, applies in solves.items():
        n_a = rec.attrs[sid]
        a, b = applies[:n_a], applies[n_a:]
        out["laxoleinik.stage_a.sweeps"] += len(a)
        out["laxoleinik.stage_b.sweeps"] += len(b)
        if a:
            stop = rec.start[b[0]] if b else rec.end[a[-1]]
            out["laxoleinik.stage_a.s"] += stop - rec.start[a[0]]
        if b:
            out["laxoleinik.stage_b.s"] += rec.end[b[-1]] - rec.start[b[0]]
    return out
