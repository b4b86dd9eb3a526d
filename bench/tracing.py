"""Per-layer tracing for the sl1 benchmark, done from outside the package.

Hooks replace module attributes of the loaded ``sl1`` modules with
wrappers.  A function imported by name into other modules (for example
``sl1.analysis.make_instance``) is replaced in every ``sl1`` module
that holds it, so re-bound names are traced too.

Coarse boundaries record spans (name, start, end, parent).  Primitives
called once per solver iteration or per random draw are aggregated as
a count plus total time under their parent span instead, because a
span per call would mean about a million records on ``oracle``.  A
span's self time is its duration minus the time covered by its child
spans and by the aggregated primitives called directly under it.

A hook whose target no longer exists is recorded in ``Tracer.absent``
and its metrics read 0; the benchmark keeps running.
"""

import contextlib
import importlib
import itertools
import sys
import time
from typing import Callable, NamedTuple

_clock = time.perf_counter


class Tracer:
    """In-memory spans and aggregates; written out when the run ends."""

    def __init__(self):
        self.spans = []          # finished spans, in order of completion
        self.aggs = {}           # (parent span name, primitive name) -> [count, seconds]
        self.absent = []         # hook names whose target is gone
        self._stack = []
        self._ids = itertools.count()
        self._agg_depth = 0
        self._rng_depth = 0
        self._undo = []

    # -- wrappers -----------------------------------------------------

    def _span_wrapper(self, name, fn, info):
        def traced(*args, **kwargs):
            with self.region(name) as span:
                result = fn(*args, **kwargs)
            if info is not None:
                span["info"] = info(args, kwargs, result)
            return result

        return traced

    def _agg_wrapper(self, name, fn, rng):
        stack = self._stack
        aggs = self.aggs

        def traced(*args, **kwargs):
            if rng and self._rng_depth:
                return fn(*args, **kwargs)  # inner Stream call: counted by the outer one
            self._agg_depth += 1
            if rng:
                self._rng_depth += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                self._agg_depth -= 1
                if rng:
                    self._rng_depth -= 1
                parent = stack[-1] if stack else None
                key = (parent["name"] if parent else None, name)
                rec = aggs.get(key)
                if rec is None:
                    rec = aggs[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                if parent is not None and not self._agg_depth:
                    parent["child_s"] += elapsed
                    counts = parent.setdefault("calls", {})
                    counts[name] = counts.get(name, 0) + 1

        return traced

    @contextlib.contextmanager
    def region(self, name):
        """Record a span around the block; hooks and the benchmark's own
        phases (set-up, the traced cycle) both use it."""
        stack, spans = self._stack, self.spans
        parent = stack[-1] if stack else None
        span = {"id": next(self._ids), "name": name,
                "parent": parent["id"] if parent else None,
                "parent_name": parent["name"] if parent else None, "child_s": 0.0}
        stack.append(span)
        span["start"] = _clock()
        try:
            yield span
        finally:
            span["end"] = _clock()
            stack.pop()
            if parent is not None:
                parent["child_s"] += span["end"] - span["start"]
            spans.append(span)

    # -- installation -------------------------------------------------

    def install(self, hooks):
        """Apply every hook; ``hooks`` is a list of Hook."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sl1" or n.startswith("sl1.")) and m is not None]
        for hook in hooks:
            owner, attr, original = _resolve(hook.target)
            if original is None:
                if hook.name not in self.absent:
                    self.absent.append(hook.name)
                continue
            if hook.kind == "span":
                wrapper = self._span_wrapper(hook.name, original, hook.info)
            else:
                wrapper = self._agg_wrapper(hook.name, original, hook.kind == "rng")
            if isinstance(owner, type):
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- queries ------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name):
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_seconds(self, name):
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.named(name))

    def agg(self, name):
        count, seconds = 0, 0.0
        for (_, prim), (c, s) in self.aggs.items():
            if prim == name:
                count += c
                seconds += s
        return count, seconds

    def fired(self):
        """Names of the hooks that recorded at least one call (the
        benchmark's own ``bench.*`` regions left out)."""
        names = {s["name"] for s in self.spans} | {n for _, n in self.aggs}
        return sorted(n for n in names if not n.startswith("bench."))

    def dump(self):
        """JSON-ready record: spans plus the aggregates keyed by parent."""
        return {
            "spans": self.spans,
            "aggregates": [{"parent": p, "name": n, "count": c, "seconds": s}
                           for (p, n), (c, s) in sorted(self.aggs.items(),
                                                        key=lambda kv: str(kv[0]))],
            "absent": list(self.absent),
        }


class Hook(NamedTuple):
    """One traced boundary: ``target`` is "module:attr" or "module:Class.attr".

    ``kind`` is "span", "agg" (aggregated) or "rng" (aggregated, outermost
    call only); ``info(args, kwargs, result)`` adds fields to a span.
    """

    name: str
    target: str
    kind: str = "span"
    info: Callable | None = None


def _resolve(target):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    attr = parts[-1]
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None, None, None
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr, None)
