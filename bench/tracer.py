"""Span tracer that wraps the public functions of posetsys from outside.

``Tracer.install()`` replaces every public function of every posetsys module
with a wrapper, at every place the function is bound: a name such as
``report.reach_profile`` is bound at import time, so patching only
``reachability.profile`` would miss it. ``Subspace.__init__`` and
``Subspace.intersect`` are wrapped on the class. ``uninstall()`` puts the
originals back.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it directly caused. Spans are aggregated in memory per
function, and per function under each benchmark operation (``op`` spans opened
with ``Tracer.op``), so nothing is written while the workload runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from contextlib import contextmanager
from fractions import Fraction

# posetsys modules traced as layers; `corpus` hosts the demo that drives
# `poset` and `blockmat`, `cli`/`errors` hold no computation.
LAYERS = (
    "_linalg",
    "subspace",
    "reachability",
    "observability",
    "duality",
    "reduction",
    "system",
    "report",
    "sim",
    "fileio",
    "poset",
    "blockmat",
    "corpus",
)

# Subspace methods traced as spans of their own (name -> metric key).
SUBSPACE_METHODS = {"__init__": "subspace.Subspace.init", "intersect": "subspace.intersect"}


def layer_name(module: str) -> str:
    """Metric prefix of a module: names must start with a letter."""
    return module.lstrip("_")


def max_bits(entries) -> int:
    """Largest numerator or denominator bit length among exact entries."""
    best = 0
    for x in entries:
        if isinstance(x, Fraction):
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
        else:
            b = int(x).bit_length()
        if b > best:
            best = b
    return best


class FnStats:
    __slots__ = ("calls", "self_time")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0


class Tracer:
    """Aggregating span recorder; one instance per traced run."""

    def __init__(self):
        self.stats: dict[str, FnStats] = {}
        self.op_calls: dict[tuple[str, str], int] = {}
        self.op_count: dict[str, int] = {}
        self.counters: dict[str, float] = {
            "ctrb.max_bits": 0,
            "ctrb.rank": 0,
            "ctrb.columns": 0,
            "rref.cells": 0,
            "rref.max_in_bits": 0,
            "mdot.mults": 0,
            "moments.products": 0,
            "moments.max_bits": 0,
            "duality.checks": 0,
            "simulate.steps": 0,
            "load.bytes": 0,
        }
        self._stack: list[list] = []  # [name, child_time]
        self._op: str | None = None
        self._pending_ctrb = None  # (matrix, columns) of the latest ctrb_matrix result
        self._patched: list[tuple] = []

    # spans ---------------------------------------------------------------

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; calls inside count toward it."""
        outer = self._op
        self._op = name
        self.op_count[name] = self.op_count.get(name, 0) + 1
        try:
            yield
        finally:
            self._op = outer

    def _span(self, name, fn, observe, args, kwargs):
        frame = [name, 0.0]
        stack = self._stack
        parent = stack[-1][0] if stack else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = FnStats()
            st.calls += 1
            st.self_time += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if self._op is not None:
                key = (self._op, name)
                self.op_calls[key] = self.op_calls.get(key, 0) + 1
        if observe is not None:
            # observer time is trace overhead: keep it out of the caller's self time
            start = time.perf_counter()
            observe(self, parent, Args(args, kwargs), result)
            if stack:
                stack[-1][1] += time.perf_counter() - start
        return result

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, observe, args, kwargs)

        wrapper.__traced__ = fn
        return wrapper

    # installation --------------------------------------------------------

    def install(self):
        import posetsys
        from posetsys import subspace

        modules = {
            info.name: importlib.import_module(f"posetsys.{info.name}")
            for info in pkgutil.iter_modules(posetsys.__path__)
        }
        wrappers = {}
        for mod_name in LAYERS:
            mod = modules[mod_name]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer_name(mod_name)}.{obj.__name__}", obj)
        targets = [posetsys, *modules.values()]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for meth, name in SUBSPACE_METHODS.items():
            orig = getattr(subspace.Subspace, meth)
            self._patched.append((subspace.Subspace, meth, orig))
            setattr(subspace.Subspace, meth, self._wrap(name, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def self_s(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_time if st else 0.0

    def calls_per_op(self, op: str, name: str) -> float:
        count = self.op_count.get(op, 0)
        return self.op_calls.get((op, name), 0) / count if count else 0.0

    def layer_totals(self) -> dict:
        """{layer: (calls, self seconds)} summed over the layer's functions."""
        out = {layer_name(m): [0, 0.0] for m in LAYERS}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer][0] += st.calls
            out[layer][1] += st.self_time
        return out


class Args:
    """A call's arguments, read by position or, if passed so, by keyword."""

    def __init__(self, args, kwargs):
        self.args = args
        self.kwargs = kwargs

    def get(self, index: int, name: str):
        return self.args[index] if index < len(self.args) else self.kwargs[name]


# Observers read a finished call's arguments and result to update counters.


def _obs_ctrb(tr, parent, args, result):
    tr.counters["ctrb.max_bits"] = max(tr.counters["ctrb.max_bits"], max_bits(result.flat))
    # the rank is read when the matrix is next passed, untransposed, to a
    # Subspace or to rank(); observability's transposed Krylov is not counted
    tr._pending_ctrb = (result, result.shape[1])


def _consume_ctrb(tr, matrix, rank):
    pending = tr._pending_ctrb
    if pending is not None and pending[0] is matrix:
        tr._pending_ctrb = None
        tr.counters["ctrb.rank"] += rank
        tr.counters["ctrb.columns"] += pending[1]


def _obs_subspace_init(tr, parent, args, result):
    _consume_ctrb(tr, args.get(2, "basis"), args.get(0, "self").dim)


def _obs_rank(tr, parent, args, result):
    _consume_ctrb(tr, args.get(0, "m"), result)


def _obs_rref(tr, parent, args, result):
    m = args.get(0, "m")
    tr.counters["rref.cells"] += m.size
    tr.counters["rref.max_in_bits"] = max(tr.counters["rref.max_in_bits"], max_bits(m.flat))


def _obs_mdot(tr, parent, args, result):
    a, b = args.get(0, "a"), args.get(1, "b")
    tr.counters["mdot.mults"] += a.shape[0] * a.shape[1] * b.shape[1]
    if parent == "reduction.moments_equal":
        tr.counters["moments.products"] += 1
        tr.counters["moments.max_bits"] = max(tr.counters["moments.max_bits"], max_bits(result.flat))


def _obs_duality(tr, parent, args, result):
    tr.counters["duality.checks"] += len(result.checks)


def _obs_simulate(tr, parent, args, result):
    tr.counters["simulate.steps"] += args.get(2, "u").steps


def _obs_load(tr, parent, args, result):
    tr.counters["load.bytes"] += os.path.getsize(args.get(0, "path"))


OBSERVERS = {
    "reachability.ctrb_matrix": _obs_ctrb,
    "subspace.Subspace.init": _obs_subspace_init,
    "linalg.rank": _obs_rank,
    "linalg.rref": _obs_rref,
    "linalg.mdot": _obs_mdot,
    "duality.verify_duality": _obs_duality,
    "sim.simulate": _obs_simulate,
    "fileio.load_system": _obs_load,
}
