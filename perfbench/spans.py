"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent).  Spans are kept in a list while the
pass runs and written out once at the end, so recording costs two clock
reads and a list append per call.  A layer's self time is the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]


class NullTracer:
    """Stands in for Tracer in untraced runs: every span is a no-op."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
