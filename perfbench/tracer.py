"""In-memory span recorder for the benchmark's traced runs (stdlib only).

A span is (id, name, start, end, parent, run).  The layer of a span is the
part of its name before the first dot, so ``spectral.separate`` belongs to
the ``spectral`` layer.  Spans stay in memory until the run writes its
record; nothing is written while timing.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = {"id": None, "name": name, "parent": None,
                       "run": tracer.run_id, "start": 0.0, "end": 0.0}

    def __enter__(self):
        stack = self.tracer._stack
        self.record["id"] = len(self.tracer.spans)
        self.record["parent"] = stack[-1] if stack else None
        self.tracer.spans.append(self.record)
        stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans; ``span(name)`` is a context manager."""

    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False
    spans: tuple = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def units(spans: list[dict], root: str) -> list[dict]:
    """Break the spans under each root span named ``root`` into per-unit sums.

    For every such root this returns its duration, the summed duration of
    each span name beneath it (``calls``), and the self time of each layer
    beneath it and including it (``self``): a span's self time is its
    duration minus the time its child spans cover, so the self times of one
    unit add up to the unit's duration.
    """
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for r in spans:
        if r["name"] != root:
            continue
        calls: Counter = Counter()
        self_by_layer: Counter = Counter()
        stack = [r]
        while stack:
            s = stack.pop()
            kids = children[s["id"]]
            duration = s["end"] - s["start"]
            self_by_layer[layer(s["name"])] += duration - sum(k["end"] - k["start"] for k in kids)
            if s is not r:
                calls[s["name"]] += duration
            stack.extend(kids)
        out.append({"total": r["end"] - r["start"], "calls": dict(calls),
                    "self": dict(self_by_layer)})
    return out
