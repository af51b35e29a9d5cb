"""Timing of calls into lshauth: a plain stopwatch, and a tracer for spans.

The untraced run times through `Stopwatch`, which records nothing. The
traced run uses `Tracer`, which keeps one span per call in memory (name,
start, end, parent span, operation id, optional record count) and can wrap
lshauth functions so the calls a CLI command makes become child spans.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple, Optional


class Stopwatch:
    """Times a call on the monotonic clock and records nothing."""

    def new_op(self) -> None:
        """Operations are not told apart when nothing is recorded."""

    def run(self, name: str, fn: Callable, *args, count: Optional[int] = None,
            **kwargs):
        """(result, elapsed seconds) of fn(*args, **kwargs)."""
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        return out, (time.perf_counter_ns() - t0) / 1e9


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at top level
    op: int  # shared by the spans of one operation
    count: Optional[int] = None  # records the call handled, where it says

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records a span around each call it runs, nested by call depth."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def new_op(self) -> int:
        self.op += 1
        return self.op

    def run(self, name: str, fn: Callable, *args, count: Optional[int] = None,
            **kwargs):
        parent = self._stack[-1] if self._stack else -1
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append(slot)
        t0 = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[slot] = Span(name, t0, t1, parent, self.op, count)
        return out, (t1 - t0) / 1e9

    def wrap(self, name: str, fn: Callable,
             count_of: Optional[Callable] = None) -> Callable:
        """fn with a span recorded around every call."""
        def traced(*args, **kwargs):
            count = count_of(*args) if count_of else None
            return self.run(name, fn, *args, count=count, **kwargs)[0]
        return traced

    def durations(self, name: str) -> list[int]:
        return [s.duration_ns for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "op": s.op, "count": s.count}
                for s in self.spans]


def covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the intervals."""
    total = 0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return [s.duration_ns - covered_ns(s.start_ns, s.end_ns, children.get(i, []))
            for i, s in enumerate(spans)]
