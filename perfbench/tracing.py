"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``[id, name, start, end, parent, batch]``: ``parent`` is the id
of the span open around it (or None) and ``batch`` ties the spans of one
submit frame together.  Spans stay in memory until the run writes them
out.  A disabled tracer records nothing, but its spans still enter and
leave a context manager, so traced and untraced runs execute the same
code and ``trace.overhead_pct`` measures only the recording.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, List, Optional


class Tracer:
    def __init__(self, *, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, batch: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        row = [span_id, name, time.perf_counter(), 0.0, parent, batch]
        self.spans.append(row)
        self._open.append(span_id)
        try:
            yield
        finally:
            self._open.pop()
            row[3] = time.perf_counter()

    def record(self, name: str, start: float, end: float, batch: Optional[int] = None) -> None:
        """A span timed by the caller (e.g. a send and its later ack)."""
        if self.enabled:
            parent = self._open[-1] if self._open else None
            self.spans.append([len(self.spans), name, start, end, parent, batch])


def durations(spans: List[list], name: str) -> List[float]:
    """Durations of every span called ``name``, in record order."""
    return [row[3] - row[2] for row in spans if row[1] == name]

