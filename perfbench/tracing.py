"""In-memory span tracer that wraps ddcodes functions where callers find them.

Python code calls a function through the name its module looks it up by
(`ddcodes.ddcodec.boxplus`, `ddcodes.sim.osd_decode`, ...), so the tracer
replaces every public ddcodes function in every ddcodes module namespace
with a wrapper that records a span: layer-qualified name, start, end and the
span that was open when it was called.  Spans live in flat integer arrays
until the run ends; self time is a span's duration minus its direct
children's durations (one thread, so children nest inside their parent).
"""
from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter_ns

import numpy as np

import ddcodes.cyclic
import ddcodes.ddcodec
import ddcodes.decoders
import ddcodes.derivative
import ddcodes.gf2
import ddcodes.gf2m
import ddcodes.parity
import ddcodes.sim

MODULES = (ddcodes.gf2m, ddcodes.gf2, ddcodes.cyclic, ddcodes.derivative,
           ddcodes.parity, ddcodes.decoders, ddcodes.ddcodec, ddcodes.sim)
METHODS = ((ddcodes.gf2m.GF2m, "pair_permutation"),
           (ddcodes.gf2m.GF2m, "shift_index"))


class Tracer:
    """Records spans while installed; `with tracer:` installs and restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict[str, list] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def on_return(self, name: str, hook) -> None:
        """Call hook(result) after every span of `name` (for counters)."""
        self._hooks.setdefault(name, []).append(hook)

    def wrap(self, fn, name: str):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self._stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                self._stack.pop()
            for hook in self._hooks.get(name, ()):
                hook(result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by its traced wrapper until uninstall()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def install(self) -> None:
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("ddcodes.")):
                    layer = obj.__module__.split(".", 1)[1]
                    self.patch(mod, attr, f"{layer}.{obj.__name__}")
        for cls, attr in METHODS:
            self.patch(cls, attr, f"gf2m.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, busy (inclusive) and self time in milliseconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        busy = np.bincount(ids, weights=dur, minlength=k) / 1e6
        own = np.bincount(ids, weights=self_t, minlength=k) / 1e6
        return {name: {"calls": int(calls[i]), "busy_ms": float(busy[i]),
                       "self_ms": float(own[i])}
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start_ns, end_ns, parent index."""
        names = [json.dumps(name) for name in self.names]
        with open(path, "w") as fh:
            fh.writelines(
                f'{{"name": {names[nid]}, "start_ns": {s}, "end_ns": {e}, '
                f'"parent": {p}}}\n'
                for nid, s, e, p in zip(self.name_id, self.start, self.end,
                                        self.parent))
