"""In-memory span tracer installed by patching functions at every binding.

A traced function is replaced, for the length of a `with Tracer(...)` block,
by a wrapper that records one span per call: the function's metric name, the
start and end times, the span that was open when it was called (its parent)
and the current operation identifier. The wrapper is installed under every
name a caller resolves: the defining module, every module of the package
that imported the function by name (`from .memory import insert_and_select`
binds a second reference in `marginadapt.adapt`), and the class dictionary
for methods. Leaving the block puts every original object back.

Spans stay in compact arrays until the run ends; `self_times` turns them into
self time per span (duration minus the time covered by direct children).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function.

    name: metric prefix, `<layer>.<fn>`.
    module, qualname: where the original is defined (`Class.method` for methods).
    rows_arg: position of the argument whose leading dimension is counted as
        rows (`<name>.rows`), or None.
    after: optional hook `after(tracer, args, result)` run after each call,
        used for counters that need the call's arguments or result.
    """

    name: str
    module: str
    qualname: str
    rows_arg: int | None = None
    after: Callable | None = None


PACKAGE = "marginadapt"
# Name of the spans around `after` hooks: the hooks' time is the tracer's, so
# it is a child of the caller's span and not counted as any layer's self time.
HOOK = "tracer.after"


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.names = [t.name for t in self.targets] + [HOOK]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = np.zeros(len(self.targets), dtype=np.int64)
        self.rows = np.zeros(len(self.targets), dtype=np.int64)
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open_span(self, name_index: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(name_index)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def close_span(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- installation ----------------------------------------------------

    def _wrap(self, index: int, target: Target, fn):
        rows_arg = target.rows_arg
        after = target.after
        calls, rows = self.calls, self.rows
        hook = len(self.targets)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[index] += 1
            if rows_arg is not None and len(args) > rows_arg:
                rows[index] += np.shape(args[rows_arg])[0]
            sid = self.open_span(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close_span(sid)
            if after is not None:
                sid = self.open_span(hook)
                try:
                    after(self, args, result)
                finally:
                    self.close_span(sid)
            return result

        return wrapper

    def _bindings(self, target: Target):
        """Every (owner, attribute) that currently resolves to the original."""
        module = sys.modules[target.module]
        owner_path, _, attr = target.qualname.rpartition(".")
        if owner_path:
            owner = module
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            return vars(owner)[attr], [(owner, attr)]
        original = getattr(module, attr)
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, key))
        return original, sites

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for index, target in enumerate(self.targets):
            original, sites = self._bindings(target)
            wrapper = self._wrap(index, target, original)
            for owner, attr in sites:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def self_seconds(self) -> np.ndarray:
        """Total self time per name in `names`, in seconds."""
        spans = self.arrays()
        own = self_times(spans["start"], spans["end"], spans["parent"])
        return np.bincount(spans["name"], weights=own, minlength=len(self.names))


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's.

    Spans come from one thread, so children of a span are nested inside it and
    do not overlap each other; the time they cover is the sum of their
    durations. parent[i] is the index of span i's parent, or -1 for a root.
    """
    start = np.asarray(start, dtype=np.float64)
    duration = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    own = duration.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], duration[child])
    return own
