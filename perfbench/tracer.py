"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent index, op id).  Spans are recorded only
around calls the benchmark itself makes into the package; a layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, op])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def self_times_ms(spans: list[list]) -> dict[str, float]:
    """Total self time per span name, in milliseconds."""
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1000
    totals: dict[str, float] = {}
    for (name, start, end, _, _), covered in zip(spans, child_ms):
        totals[name] = totals.get(name, 0.0) + (end - start) * 1000 - covered
    return totals
