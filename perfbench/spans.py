"""Outside-in spans: perf_counter pass-throughs patched over combust's public functions.

Nothing in the program is edited.  A function is wrapped where its caller
looks it up, because the modules import each other's functions by name:
timestepper calls `residual`, `jacobian`, `solve`, ... from its own
namespace, discretization calls `phi`/`flux*` from its own, and
`model.phi_dtheta` calls `model.phi`.  BandedMatrix methods are patched on
the class.  Spans are aggregated on the fly (calls, total and self time, and
calls per direct parent); individual spans are not kept, because a traced
M = 400 run makes about half a million of them.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  A class attribute is written "Class.method".
TRACE_POINTS = [
    ("combust.timestepper", "step", "timestepper.step"),
    ("combust.timestepper", "assemble_LD", "discretization.assemble_LD"),
    ("combust.timestepper", "assemble_LDQ", "discretization.assemble_LDQ"),
    ("combust.timestepper", "residual", "discretization.residual"),
    ("combust.timestepper", "jacobian", "discretization.jacobian"),
    ("combust.timestepper", "solve", "mncp.solve"),
    ("combust.mncp", "restore_feasibility", "mncp.restore_feasibility"),
    ("combust.mncp", "direction", "mncp.direction"),
    ("combust.mncp", "line_search", "mncp.line_search"),
    ("combust.bandmat", "BandedMatrix.solve", "bandmat.solve"),
    ("combust.bandmat", "BandedMatrix.matvec", "bandmat.matvec"),
    ("combust.bandmat", "BandedMatrix.scale_rows", "bandmat.scale_rows"),
    ("combust.discretization", "phi", "model.phi"),
    ("combust.discretization", "phi_dtheta", "model.phi_dtheta"),
    ("combust.discretization", "phi_deta", "model.phi_deta"),
    ("combust.discretization", "flux", "model.flux"),
    ("combust.discretization", "flux_d", "model.flux_d"),
    ("combust.model", "phi", "model.phi"),
]


class Tracer:
    """Per-span call counts, total time and time covered by wrapped children."""

    def __init__(self):
        self.calls = {}
        self.total = {}
        self.child = {}
        self.by_parent = {}   # (parent span, span) -> calls
        self._stack = []      # open spans as [name, seconds covered by children]

    def wrap(self, name, fn):
        calls, total, child, by_parent, stack = (
            self.calls, self.total, self.child, self.by_parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] = calls.get(name, 0) + 1
                total[name] = total.get(name, 0.0) + dt
                child[name] = child.get(name, 0.0) + frame[1]
                if parent is not None:
                    parent[1] += dt
                    key = (parent[0], name)
                    by_parent[key] = by_parent.get(key, 0) + 1

        return traced

    def self_time(self, name) -> float:
        return self.total.get(name, 0.0) - self.child.get(name, 0.0)


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, leaf):
        raise RuntimeError(f"trace point {module_name}.{attr} no longer exists; "
                           "the benchmark's trace points must follow the program")
    return owner, leaf


@contextmanager
def patched(wrappers):
    """Replace each (module, attribute) with make(original) and restore on exit.

    wrappers: list of ((module, attribute), make) pairs.
    """
    saved = []
    try:
        for (module_name, attr), make in wrappers:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, make(original))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def traced(tracer: Tracer):
    """patched() wrappers that put every trace point under `tracer`."""
    return [((module_name, attr), lambda fn, name=name: tracer.wrap(name, fn))
            for module_name, attr, name in TRACE_POINTS]
