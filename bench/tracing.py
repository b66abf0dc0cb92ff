"""Span tracing of the maxblaschke layers from outside the library.

:meth:`Tracer.install` replaces every public function of every layer module
with a timing wrapper, under every name a loaded ``maxblaschke`` module binds
it to (``solver.critical_points`` and ``verify.solve_maximal`` are the same
objects as ``blaschke.critical_points`` and ``solver.solve_maximal``), so
calls between layers are seen.  ``maxblaschke.pde.spla`` is swapped for a
proxy whose functions are wrapped too, which times the PDE layer's calls into
``scipy.sparse.linalg`` without touching scipy itself.  Nothing in ``src/``
changes, and :meth:`Tracer.uninstall` restores every binding.

A span is ``[name, start, end, parent, op, error, info]``; ``parent`` is the
index of the enclosing span or -1, ``op`` the benchmark op it belongs to, and
``info`` a small dict of counts read from the call's arguments and result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "blaschke", "solver", "metrics", "pde", "verify", "serialize", "cli",
    "disk", "roots",
)

NAME, START, END, PARENT, OP, ERROR, INFO = range(7)


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["z"]))}


def _solve(args, kwargs, result):
    trace = result.homotopy_trace
    return {"path_steps": len(trace), "newton_iters": sum(t[2] for t in trace)}


def _dirichlet(args, kwargs, result):
    return {"newton_iters": int(result.newton_iters),
            "unknowns": int(np.count_nonzero(result.mask))}


def _curvature(args, kwargs, result):
    return {"defined": int(np.count_nonzero(result.defined)),
            "computed": int(np.count_nonzero(np.isfinite(result.values)))}


def _extremality(args, kwargs, result):
    return {"scored": int(result["samples"]), "skipped": int(result["skipped"])}


def _file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _dumps(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _write_json(args, kwargs, result):
    return {"bytes": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}


def _field_to_csv(args, kwargs, result):
    path = str(args[2] if len(args) > 2 else kwargs["path"])
    return {"bytes": _file_bytes(path) + _file_bytes(path + ".json")}


#: Counts recorded from a successful call, by span name.
INFO_HOOKS = {
    "blaschke.evaluate": _points,
    "blaschke.derivative": _points,
    "solver.solve_maximal": _solve,
    "pde.solve_dirichlet": _dirichlet,
    "metrics.discrete_curvature": _curvature,
    "verify.extremality_suite": _extremality,
    "serialize.dumps": _dumps,
    "serialize.write_json": _write_json,
    "serialize.field_to_csv": _field_to_csv,
}


class _Proxy:
    """Stands in for a module; its functions are traced under ``prefix``."""

    def __init__(self, tracer, module, prefix):
        self._tracer, self._module, self._prefix = tracer, module, prefix

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if callable(value):
            value = self._tracer.wrap(value, f"{self._prefix}.{attr}")
        setattr(self, attr, value)
        return value


class Tracer:
    """Collects spans for the layers of one process."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        hook = INFO_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    False, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every loaded layer module."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "maxblaschke" or name.startswith("maxblaschke.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"maxblaschke.{layer}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = self.wrap(value, f"{layer}.{attr}")
        # the originals stay alive in the modules, so their ids stay unique
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._bind(mod, attr, wrappers[id(value)])
        pde = modules.get("maxblaschke.pde")
        if pde is not None:
            self._bind(pde, "spla",
                       _Proxy(self, pde.spla, "scipy.sparse.linalg"))

    def _bind(self, mod, attr, value):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def extend(self, spans, op):
        """Append spans recorded by another process as part of op ``op``."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            s[PARENT] = s[PARENT] + base if s[PARENT] >= 0 else -1
            s[OP] = op
            self.spans.append(s)


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, ops: int, children: list) -> dict:
    """Per-layer metrics, per op, from a list of spans.

    ``children`` holds one ``(import_s, main_s, exit_code)`` triple per CLI
    child (empty for in-process workloads).  Inclusive times (``*_s``) sum
    the spans of a name that do not sit inside another span of the same
    name; self times (``*_self_s``) subtract the time covered by direct child
    spans.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p]
            p = spans[p][PARENT]

    outer_in_layer = [
        all(_layer(a[NAME]) != _layer(s[NAME]) for a in ancestors(i))
        for i, s in enumerate(spans)
    ]
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def incl(*names):
        return sum(dur[i] for nm in names for i in by_name[nm])

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in by_name[name])

    def calls(*names):
        return sum(len(by_name[nm]) for nm in names)

    def info(name, key):
        return sum((spans[i][INFO] or {}).get(key, 0) for i in by_name[name])

    solves = by_name["solver.solve_maximal"]
    under_verify = [
        i for i in solves
        if any(_layer(a[NAME]) == "verify" for a in ancestors(i))
    ]
    json_names = ("serialize.dumps", "serialize.write_json",
                  "serialize.read_json")
    serialize_outer = [
        i for i, s in enumerate(spans)
        if _layer(s[NAME]) == "serialize" and outer_in_layer[i]
    ]
    linalg = [i for i, s in enumerate(spans)
              if s[NAME].startswith("scipy.sparse.linalg.")]
    dirichlet_calls = calls("pde.solve_dirichlet")
    computed = info("metrics.discrete_curvature", "computed")
    per = 1.0 / max(ops, 1)
    raw = {
        "solver.solve_calls": len(solves),
        "solver.solve_self_s": self_time("solver.solve_maximal"),
        "solver.errors": sum(1 for i in solves if spans[i][ERROR]),
        "solver.path_steps": info("solver.solve_maximal", "path_steps"),
        "solver.newton_iters": info("solver.solve_maximal", "newton_iters"),
        "blaschke.critical_points_calls": calls("blaschke.critical_points"),
        "blaschke.critical_points_s": incl("blaschke.critical_points"),
        "blaschke.eval_calls": calls("blaschke.evaluate",
                                     "blaschke.derivative"),
        "blaschke.eval_points": info("blaschke.evaluate", "points")
        + info("blaschke.derivative", "points"),
        "blaschke.eval_s": incl("blaschke.evaluate", "blaschke.derivative"),
        "blaschke.compose_s": incl("blaschke.compose"),
        "metrics.pullback_s": incl("metrics.pullback_density"),
        "metrics.curvature_s": incl("metrics.discrete_curvature"),
        "metrics.dominance_s": incl("metrics.dominance_check"),
        "pde.dirichlet_calls": dirichlet_calls,
        "pde.dirichlet_self_s": self_time("pde.solve_dirichlet"),
        "pde.newton_iters": info("pde.solve_dirichlet", "newton_iters"),
        "pde.sparse_linalg_calls": len(linalg),
        "pde.sparse_linalg_s": sum(dur[i] for i in linalg),
        "verify.extremality_self_s": self_time("verify.extremality_suite"),
        "verify.resolve_s": sum(dur[i] for i in under_verify),
        "verify.competitors_scored": info("verify.extremality_suite",
                                          "scored"),
        "verify.competitors_skipped": info("verify.extremality_suite",
                                           "skipped"),
        "verify.boundary_s": incl("verify.boundary_probes",
                                  "verify.boundary_quotient",
                                  "verify.phi_boundary_bound"),
        "serialize.json_s": sum(dur[i] for i in serialize_outer
                                if spans[i][NAME] in json_names),
        "serialize.csv_s": sum(dur[i] for i in serialize_outer
                               if spans[i][NAME] == "serialize.field_to_csv"),
        "serialize.bytes": sum((spans[i][INFO] or {}).get("bytes", 0)
                               for i in serialize_outer),
        "cli.import_s": sum(c[0] for c in children),
        "cli.main_s": sum(c[1] for c in children),
        "cli.nonzero_exits": sum(1 for c in children if c[2] != 0),
    }
    out = {k: v * per for k, v in raw.items()}
    # sizes and ratios are not per op
    out["pde.unknowns"] = (info("pde.solve_dirichlet", "unknowns")
                           / dirichlet_calls if dirichlet_calls else 0.0)
    out["metrics.curvature_defined_frac"] = (
        info("metrics.discrete_curvature", "defined") / computed
        if computed else 0.0
    )
    return out
