"""Outside-in tracing: spans recorded by wrapping the program's module attributes.

Nothing under ``src/`` knows about this module. ``Tracer.install`` replaces
each public function at every module that binds it (``from x import f``
creates one binding per importing module, and each must be wrapped) and
``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper:

- *span* wrappers (bounds, ImproveLB, CoreDecomp, Spark fan-outs) record one
  span each: name, start, end, parent, and the visits / BFS calls charged to
  the cell's ``Counter`` while it was open;
- *leaf* wrappers (the h-BFS kernel and bucket operations) run hundreds of
  thousands of times per pass, so they only add their call count, visits and
  duration to the innermost open span.

A span's self time is its duration minus the time its child spans and leaf
calls cover. Spans live in memory until ``dump`` writes them out.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import repro.core.bounds as bounds_mod
import repro.core.decomp as decomp_mod
import repro.core.hbz as hbz_mod
import repro.core.hlb as hlb_mod
import repro.core.hlbub as hlbub_mod
import repro.core.kernels as kernels_mod
import repro.pregel.hdegree as hdegree_mod
import repro.pregel.peeling as peeling_mod
from repro.core.buckets import Buckets

# (module, attribute, span name). The pregel.hdegree binding of
# bounded_reach is deliberately absent: it runs inside Spark tasks, which
# import the program afresh and never see a driver-side wrapper.
LEAVES = [
    (kernels_mod, "bounded_reach", "kernels"),
    (decomp_mod, "bounded_reach", "kernels"),
    (bounds_mod, "bounded_reach", "kernels"),
    (hbz_mod, "bounded_reach", "kernels"),
    (hlbub_mod, "bounded_reach", "kernels"),
    (Buckets, "add", "buckets"),
    (Buckets, "move", "buckets"),
    (Buckets, "pop", "buckets"),
]
SPANS = [
    (bounds_mod, "batch_h_degrees", "bounds.batch_hdeg"),
    (hbz_mod, "batch_h_degrees", "bounds.batch_hdeg"),
    (hlb_mod, "batch_h_degrees", "bounds.batch_hdeg"),
    (hlbub_mod, "batch_h_degrees", "bounds.batch_hdeg"),
    (peeling_mod, "all_h_degrees", "bounds.batch_hdeg"),
    (hlb_mod, "lower_bounds", "bounds.lower_bounds"),
    (hlbub_mod, "lower_bounds", "bounds.lower_bounds"),
    (hlbub_mod, "upper_bound", "bounds.upper_bound"),
    (hlbub_mod, "improve_lb", "hlbub.improve_lb"),
    (hlb_mod, "core_decomp", "decomp.hlb"),
    (hlbub_mod, "core_decomp", "decomp.hlbub"),
    (hdegree_mod, "h_degrees_spark", "pregel.fanout"),
    (hlbub_mod, "_run_intervals_spark", "pregel.intervals"),
]


@dataclass
class Span:
    """One traced call. Counts are deltas of the cell's Counter."""

    name: str
    parent: int
    start: float
    end: float = 0.0
    visits: int = 0
    calls: int = 0
    child_s: float = 0.0
    leaf: dict = field(default_factory=dict)  # name -> [calls, visits, seconds]
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Collects spans for the cells run between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counter = None
        self._saved: list[tuple[object, str, object]] = []

    # -- cell roots -------------------------------------------------------
    def open(self, name: str, counter, **attrs) -> None:
        """Open the root span of one cell, charging counts to ``counter``."""
        self.counter = counter
        self._push(name, attrs)

    def close(self) -> Span:
        span = self._pop()
        self.counter = None
        return span

    def _push(self, name: str, attrs: dict | None = None) -> Span:
        c = self.counter
        span = Span(name, self.stack[-1] if self.stack else -1, 0.0,
                    visits=-c.visits if c is not None else 0,
                    calls=-c.bfs_calls if c is not None else 0,
                    attrs=attrs or {})
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _pop(self) -> Span:
        end = time.perf_counter()
        span = self.spans[self.stack.pop()]
        span.end = end
        c = self.counter
        if c is not None:
            span.visits += c.visits
            span.calls += c.bfs_calls
        if self.stack:
            self.spans[self.stack[-1]].child_s += end - span.start
        return span

    # -- wrappers ---------------------------------------------------------
    def _leaf(self, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            c = tracer.counter
            v0 = c.visits if c is not None else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if tracer.stack:
                    top = tracer.spans[tracer.stack[-1]]
                    agg = top.leaf.setdefault(name, [0, 0, 0.0])
                    agg[0] += 1
                    agg[1] += (c.visits - v0) if c is not None else 0
                    agg[2] += dt
                    top.child_s += dt

        return wrapped

    def _span(self, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            span = tracer._push(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._pop()
            _annotate(span, fn.__name__, args, kwargs, out)
            return out

        return wrapped

    def install(self) -> None:
        for table, make in ((LEAVES, self._leaf), (SPANS, self._span)):
            for owner, attr, name in table:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, make(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "visits": s.visits, "bfs_calls": s.calls,
                    "leaf": s.leaf, "attrs": s.attrs,
                }, default=str) + "\n")


def _annotate(span: Span, fn_name: str, args, kwargs, out) -> None:
    """Record the per-call facts a layer metric needs beyond time and counts."""
    if fn_name == "improve_lb":
        vk = args[2] if len(args) > 2 else kwargs["vk"]
        span.attrs["vk_in"] = int(vk.sum())
        span.attrs["vk_out"] = int(out[0].sum())
    elif fn_name == "h_degrees_spark":
        A = args[1] if len(args) > 1 else kwargs["A"]
        n = A.shape[0]
        # pack_adjacency's rows of ceil(n/8) bytes, plus the packed alive mask.
        span.attrs["broadcast_bytes"] = n * ((n + 7) // 8) + (n + 7) // 8
        span.attrs["task_visits"] = int(out[1])
        span.attrs["task_calls"] = int(out[2])
    elif fn_name == "_run_intervals_spark":
        g = args[1] if len(args) > 1 else kwargs["g"]
        n = g.n
        span.attrs["broadcast_bytes"] = n * ((n + 7) // 8)
        span.attrs["tasks"] = int(out[1])
