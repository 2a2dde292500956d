"""In-memory spans around the calls into each ndftsim layer.

The tracer replaces module-level names with wrappers while it is installed
and restores them when it is removed, so the untraced passes run the
program's own functions.  Spans stay in memory and are exported at the end
as Chrome Trace Event JSON (loadable in chrome://tracing or Perfetto).
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass

# analyzer is only counted (estimate_time is too hot for spans) and machine
# is reached only through analyzer and scheduler, so neither has self time.
LAYERS = ("cli", "workload", "scheduler", "simulator", "runtime")


@dataclass
class Span:
    name: str          # layer.function, e.g. "scheduler.plan"
    tag: str           # policy or pseudo mode, "" when not meaningful
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a root
    op: str            # operation id shared by every span of one operation

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, tag=None, on_result=None):
        """Wrap fn so each call records one span; on_result(counts, args, out)
        adds the counts that only the call's arguments or result carry."""
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = tag(args, kwargs) if tag else ""
                self.spans[idx] = Span(name, label, start, end, parent, self.op)
            if on_result is not None:
                on_result(self.counts, args, out)
            return out
        return traced

    def counter(self, key: str, fn):
        """Wrap fn so each call bumps a count; no span, for hot functions."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        selfs = {}
        for i, s in enumerate(self.spans):
            if s is not None:
                selfs[i] = selfs.get(i, 0.0) + (s.end - s.start)
                if s.parent >= 0:
                    selfs[s.parent] = selfs.get(s.parent, 0.0) - (s.end - s.start)
        return selfs

    def layer_table(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self seconds, span count)."""
        table = {layer: [0.0, 0] for layer in LAYERS}
        for i, t in self.self_times().items():
            row = table.setdefault(self.spans[i].layer, [0.0, 0])
            row[0] += t
            row[1] += 1
        return {k: (v[0], v[1]) for k, v in table.items()}

    def total(self, name: str, tag: str | None = None, self_only=False) -> float:
        selfs = self.self_times() if self_only else None
        out = 0.0
        for i, s in enumerate(self.spans):
            if s is not None and s.name == name and (tag is None or s.tag == tag):
                out += selfs[i] if self_only else s.end - s.start
        return out

    def write_chrome(self, path) -> None:
        """Chrome Trace Event JSON: one complete ("X") event per span."""
        spans = self.closed()
        t0 = min((s.start for s in spans), default=0.0)
        events = []
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            events.append({
                "name": s.name + (f"[{s.tag}]" if s.tag else ""),
                "cat": s.layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((s.start - t0) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {"id": i, "parent": s.parent, "op": s.op}})
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": {"counts": dict(self.counts)}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
