"""Span recorder that traces the doublelambda package from outside.

The recorder wraps named public functions at every module attribute of the
package that binds them (``doublelambda.propagation.steady_coherences`` and
``doublelambda.bloch_steady.steady_coherences`` are the same function bound
twice), records one span per call, and restores the originals on exit.
Nothing under ``src/`` is changed.

A span is ``[id, parent_id, name, thread_id, t0, t1, work]``.  Spans opened
on the op's thread nest by call order.  A span opened in one of the CLI's
pool threads, whose own stack is empty, takes as parent the innermost span
open on the op's thread at that moment (the ``cli.cmd_*`` span of the op),
so the command's self time excludes the work it handed to the pool.
``work`` holds counts computed from the call's arguments and returned
objects (RK4 steps, segment steps, optimizer evaluations).

Spans stay in memory; :func:`self_times` and :func:`aggregate` reduce them
after the op, outside any timed interval.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

PACKAGE = "doublelambda"

#: Traced functions, by layer (the package module that defines them).
TRACED = {
    "protocols": ("build_profile", "solve_theta0", "load_profile_table"),
    "bloch_steady": ("steady_coherences",),
    "propagation": ("propagate_reduced", "propagate_adiabatic", "propagate_exact",
                    "dissipation_order"),
    "efficiency": ("numerical_efficiency", "optimal_efficiency_closed",
                   "constant_efficiency_closed"),
    "pmp_search": ("piecewise_efficiency", "sampled_profile_efficiencies",
                   "optimize_piecewise", "verify_singular_arc", "singular_arc_checks",
                   "integrate_adjoint_along_arc"),
    "cli": ("cmd_efficiency", "cmd_verify", "cmd_search", "cmd_simulate"),
}

OP = "op"


def _work(name: str, args, kwargs, result):
    """Work counts of one call, from its arguments and returned object."""
    if name in ("propagation.propagate_reduced", "propagation.propagate_adiabatic",
                "propagation.propagate_exact"):
        return {"rk4_steps": len(result.zeta) - 1}
    if name == "pmp_search.piecewise_efficiency":
        # segment_step (about 1 us per call) is counted here, not wrapped:
        # each evaluation applies it once per segment.
        thetas = args[0] if args else kwargs["thetas"]
        return {"segment_steps": np.size(thetas) - 1}
    if name == "pmp_search.optimize_piecewise":
        return {"evaluations": result.evaluations, "restarts": result.restarts,
                "budget_exhausted": int(not result.converged)}
    return None


class SpanRecorder:
    """Records spans of traced calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._op_stack: list[list] | None = None

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = None
        span = [next(self._ids), None if parent is None else parent[0], name,
                threading.get_ident(), time.perf_counter(), None, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def op(self):
        """Span around one op; pool-thread spans attach below it."""
        span = self.open(OP)
        self._op_stack = self._stack()
        try:
            yield span
        finally:
            self._op_stack = None
            self.close(span)

    def _wrap(self, name: str, fn):
        rec = self

        def traced(*args, **kwargs):
            span = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(span)
            span[6] = _work(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function at every package attribute binding it."""
        importlib.import_module(PACKAGE + ".cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        patched = []
        try:
            for layer, names in TRACED.items():
                home = importlib.import_module(f"{PACKAGE}.{layer}")
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run on other threads and overlap each other; the covered
    part is the union of their intervals, so overlapping children are not
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    return {s[0]: (s[5] - s[4]) - _covered(children.get(s[0], ()), s[4], s[5])
            for s in spans}


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed work counts."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s[2], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[s[0]]
        for key, value in (s[6] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out
