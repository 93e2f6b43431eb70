"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around its calls into each layer of the
library (nothing inside ``src/`` is instrumented).  Each span holds its name,
start, end, parent span and request id; they stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a root span
    request: int
    name: str
    start_s: float
    end_s: float


class _Open:
    """One open span; kept lean because its cost lands between child spans."""

    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        spans, stack = tracer.raw, tracer.stack
        self.id = len(spans)
        self.parent = stack[-1]
        spans.append(None)  # reserves the id; filled in on exit
        stack.append(self.id)
        self.start = perf_counter()

    def __exit__(self, *exc: object) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.raw[self.id] = (self.id, self.parent, tracer.request, self.name,
                               self.start, end)


class Tracer:
    def __init__(self) -> None:
        self.raw: List[Optional[tuple]] = []
        self.stack: List[int] = [-1]
        self.request = -1

    def span(self, name: str, request: Optional[int] = None) -> _Open:
        """Context manager timing one call; ``request`` starts a new request id."""
        if request is not None:
            self.request = request
        return _Open(self, name)

    @property
    def spans(self) -> List[Span]:
        return [Span(*raw) for raw in self.raw]

    def by_request(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.request].append(span)
        return grouped

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def coverage(spans: List[Span], root: str = "request") -> float:
    """Share of the ``root`` span's wall time covered by its direct children."""
    (top,) = [span for span in spans if span.name == root]
    covered = sum(s.end_s - s.start_s for s in spans if s.parent == top.id)
    return covered / (top.end_s - top.start_s)


def duration(spans: List[Span], name: str) -> float:
    """Total wall seconds of every span called ``name``."""
    return sum(span.end_s - span.start_s for span in spans if span.name == name)


def self_time(spans: List[Span], name: str) -> float:
    """Wall seconds inside spans called ``name`` not covered by their children."""
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end_s - span.start_s
    return sum(span.end_s - span.start_s - child_time[span.id]
               for span in spans if span.name == name)
