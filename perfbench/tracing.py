"""Spans around the package's public functions, recorded from outside the package.

Tracer.patch() replaces each function in SPANS at every name a caller looks
it up by (the module global the calling code reads, or the class attribute for
a method) with a wrapper that records a span: name, parent span, start, end.
Nothing under src/ is edited. Spans are kept in flat in-memory arrays and
written out only by Tracer.save, after the run.

A span's self time is its duration minus the durations of its direct
children, so the self times of every span under a root add up to that root's
duration: nothing is counted twice. The wrapper's own cost falls into the
caller's self time; the traced run reports it as a whole as the difference
between traced and untraced solve time.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# span name -> the places the function is looked up by its callers.
# The span name's prefix is the package module, which is the layer.
SPANS = {
    "numerics.spd_solve_factored": ["jointmm.numerics:spd_solve_factored",
                                    "jointmm.problem:spd_solve_factored"],
    "numerics.spd_factor": ["jointmm.numerics:spd_factor", "jointmm.problem:spd_factor"],
    "numerics.operator_norm": ["jointmm.numerics:operator_norm", "jointmm.problem:operator_norm"],
    "problem.residuals": ["jointmm.problem:residuals", "jointmm.solver:residuals",
                          "jointmm.apps:residuals"],
    "problem.recover_multiplier": ["jointmm.problem:recover_multiplier",
                                   "jointmm.apps:recover_multiplier"],
    "problem.gram_solve": ["jointmm.problem:MinimaxProblem.gram_solve"],
    "problem.compute_constants": ["jointmm.problem:compute_constants"],
    "problem.load_problem_manifest": ["jointmm.problem:load_problem_manifest",
                                      "jointmm.cli:load_problem_manifest"],
    "prox.prox_eval": ["jointmm.prox:prox_eval", "jointmm.problem:prox_eval",
                       "jointmm.solver:prox_eval"],
    "prox.project_cone": ["jointmm.prox:project_cone", "jointmm.apps:project_cone"],
    "prox.projection_jacobian": ["jointmm.prox:projection_jacobian",
                                 "jointmm.apps:projection_jacobian"],
    "solver.inner_ascent": ["jointmm.solver:inner_ascent"],
    "solver.outer_step": ["jointmm.solver:outer_step"],
    "solver.project_feasible": ["jointmm.solver:project_feasible",
                                "jointmm.apps:project_feasible"],
    "solver.run_pgmsad": ["jointmm.solver:run_pgmsad", "jointmm.cli:run_pgmsad"],
    "solver.write_trace_csv": ["jointmm.solver:write_trace_csv", "jointmm.cli:write_trace_csv"],
    "solver.write_state_json": ["jointmm.solver:write_state_json",
                                "jointmm.cli:write_state_json"],
    "apps.run_glpe": ["jointmm.apps:run_glpe"],
    "apps.run_linreg": ["jointmm.apps:run_linreg"],
    "apps.run_gave": ["jointmm.apps:run_gave"],
    "apps.make_linreg": ["jointmm.apps:make_linreg"],
    "matio.read_matrix": ["jointmm.matio:read_matrix"],
    "matio.write_matrix_mm": ["jointmm.matio:write_matrix_mm"],
    "matio.write_matrix_csv": ["jointmm.matio:write_matrix_csv"],
    "cli.main": ["jointmm.cli:main"],
}

# functions whose file argument (by position) is measured in bytes after the call
FILE_ARG = {
    "solver.write_trace_csv": 1,
    "solver.write_state_json": 3,
    "matio.read_matrix": 0,
    "matio.write_matrix_mm": 1,
    "matio.write_matrix_csv": 1,
}

# drivers whose result carries a trace list; its length is counted
TRACE_RESULT = ("solver.run_pgmsad", "apps.run_glpe", "apps.run_linreg", "apps.run_gave")

LAYERS = ("numerics", "prox", "problem", "solver", "apps", "matio", "cli", "bench")


def _resolve(site):
    module, _, attr = site.partition(":")
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder. Span ids are indices into the arrays; a parent
    is always recorded before its children, so parent id < child id."""

    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.file_bytes = defaultdict(int)
        self.trace_records = defaultdict(int)

    def _intern(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid):
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(self._intern(name))
        self.start[sid] = time.perf_counter()
        try:
            yield
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        nid = self._intern(name)
        file_arg = FILE_ARG.get(name)
        counts_trace = name in TRACE_RESULT
        start, end, stack, opn = self.start, self.end, self.stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = opn(nid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if file_arg is not None:
                self.file_bytes[name] += os.path.getsize(args[file_arg])
            if counts_trace:
                self.trace_records[name] += len(result.trace)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers at every site in SPANS; restore them on exit."""
        saved = []
        try:
            for name, sites in SPANS.items():
                owner, attr = _resolve(sites[0])
                fn = getattr(owner, attr)
                wrapped = self.wrap(name, fn)
                for site in sites:
                    owner, attr = _resolve(site)
                    if getattr(owner, attr) is not fn:
                        raise RuntimeError(f"{site} is not the function traced as {name}")
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def arrays(self):
        return (np.array(self.name_of, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def rollup(self):
        """Per span name and per root span: calls, inclusive and self seconds.

        Returns (by_name, by_root_layer, root_seconds) where by_name maps a
        span name to (calls, inclusive_s, self_s), by_root_layer maps
        (root name, layer) to self seconds, and root_seconds maps a root name
        to its duration.
        """
        name_of, parent, start, end = self.arrays()
        n = start.shape[0]
        dur = end - start
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child_s
        k = len(self.names)
        calls = np.bincount(name_of, minlength=k)
        incl = np.bincount(name_of, weights=dur, minlength=k)
        selfs = np.bincount(name_of, weights=self_s, minlength=k)
        by_name = {nm: (int(calls[i]), float(incl[i]), float(selfs[i]))
                   for i, nm in enumerate(self.names)}
        root = np.where(has_parent, parent, np.arange(n))
        while True:
            nxt = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(nxt, root):
                break
            root = nxt
        by_root_layer = defaultdict(float)
        root_seconds = {}
        layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in self.names])
        for r in np.flatnonzero(~has_parent):
            rname = self.names[name_of[r]]
            root_seconds[rname] = root_seconds.get(rname, 0.0) + float(dur[r])
            members = root == r
            per_layer = np.bincount(layer_of[name_of[members]], weights=self_s[members],
                                    minlength=len(LAYERS))
            for li, layer in enumerate(LAYERS):
                by_root_layer[(rname, layer)] += float(per_layer[li])
        return by_name, dict(by_root_layer), root_seconds

    def save(self, path):
        name_of, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name_of, parent=parent,
                            start=start, end=end)
