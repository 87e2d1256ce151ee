"""Span tracing of proxbp's public functions, installed from outside the library.

proxbp modules import each other's functions with `from .x import f`, so a
function is looked up in every module that imports it. `Tracer.installed`
rebinds each traced function in every proxbp namespace that holds it, plus
`Trace.to_csv` on its class, and puts the originals back on exit. Spans are
kept in memory as flat arrays and written out once the run is over.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
from array import array
from collections import Counter

# (module, function) pairs wrapped in a traced run; the span is "module.function".
TRACED = (
    ("net", "parse_scenario"), ("net", "residual_matrix"),
    ("net", "validate_decision"), ("net", "total_utility"),
    ("projection", "project_sorted"), ("rates", "solve_rate"),
    ("engine", "compute_weights"), ("engine", "link_update"), ("engine", "slot_update"),
    ("queues", "step_Y"), ("queues", "step_Z"), ("queues", "step_Q"),
    ("dpp", "dpp_slot_update"), ("harness", "run"),
    ("oracle", "solve_centralized"), ("oracle", "dual_value"),
    ("oracle", "repair_feasible"), ("oracle", "tighten_to_equality"),
    ("cli", "main"),
)
TO_CSV = "harness.to_csv"


def _budget_binds(args, out):
    """project_sorted took the sort path: the water level theta is positive."""
    return out[1] > 0.0


def _bisected(args, out):
    """solve_rate bisected: a wlog1p problem whose optimum is interior."""
    return args[0].utility.kind == "wlog1p" and out > 0.0


# Calls of these spans are also counted when the predicate holds.
FLAGS = {"projection.project_sorted": _budget_binds, "rates.solve_rate": _bisected}


class Tracer:
    """Spans of the calls made while `current_op` is set: name, start and end
    in ns, parent span index (-1 for a root) and op id."""

    def __init__(self):
        self.names = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.flagged = Counter()  # name id -> calls whose FLAGS predicate held
        self.current_op = None
        self._stack = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        """Return fn recording one span per call while an op is current."""
        nid = self._name_id(name)
        flag = FLAGS.get(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.current_op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(op)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if flag is not None and flag(args, out):
                self.flagged[nid] += 1
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function wherever proxbp looks it up; restore
        the originals on exit, also when the body raises."""
        spaces = [m for k, m in sys.modules.items()
                  if k == "proxbp" or k.startswith("proxbp.")]
        patches = []
        try:
            for mod, fn_name in TRACED:
                original = getattr(sys.modules[f"proxbp.{mod}"], fn_name)
                wrapper = self.wrap(f"{mod}.{fn_name}", original)
                for ns in spaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            patches.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
            trace_cls = sys.modules["proxbp.harness"].Trace
            original = trace_cls.__dict__["to_csv"]
            patches.append((trace_cls, "to_csv", original))
            trace_cls.to_csv = self.wrap(TO_CSV, original)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns, self ns and flagged calls,
        summed over all recorded ops."""
        own = self_times(self.start, self.end, self.parent)
        out = {n: {"calls": 0, "incl_ns": 0, "self_ns": 0, "flagged": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["incl_ns"] += self.end[i] - self.start[i]
            row["self_ns"] += own[i]
        for nid, count in self.flagged.items():
            out[self.names[nid]]["flagged"] += count
        return out

    def calls_under(self, child: str, parent: str) -> int:
        """Spans named child whose direct parent span is named parent."""
        if child not in self.names or parent not in self.names:
            return 0
        c = self.names.index(child)
        p = self.names.index(parent)
        return sum(1 for i, nid in enumerate(self.name)
                   if nid == c and self.parent[i] >= 0 and self.name[self.parent[i]] == p)

    def write(self, path) -> None:
        """Write all spans as gzip CSV: op,name,start_ns,end_ns,parent."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.op[i]},{self.names[nid]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it its direct children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals inside the parent is subtracted.
    """
    kids = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered = 0
        reach = s
        for c in sorted(kids[i], key=start.__getitem__):
            lo = max(start[c], reach)
            hi = min(end[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered)
    return out
