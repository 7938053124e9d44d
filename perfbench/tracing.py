"""In-memory spans around the benchmark driver's calls into specwalk modules.

A span has a name ``<layer>.<operation>``, start and end times
(``time.perf_counter`` seconds), the id of its parent span and the id of the
run it belongs to. Spans are kept in memory and written out once, after the
measurement, so that writing them costs nothing inside a timed region.

Each pipeline iteration runs inside a root span ``driver.pipeline``, so the
root's self time is the driver's own work between module calls. With tracing
off, :meth:`Tracer.call` only counts the call and forwards it, so the
untraced pipeline runs the same code path minus the clock reads.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per driver call when enabled; always counts calls."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.calls = 0
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        self.calls += 1
        if not self.enabled:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), name,
                    self._open[-1] if self._open else None, self.run_id,
                    time.perf_counter())
        self.spans.append(span)
        self._open.append(span.span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer spent in that layer's spans minus their child spans.

    Spans come from one thread, so children of a span never overlap and the
    part of its interval they cover is the sum of their durations.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        own = s.duration - child_time.get(s.span_id, 0.0)
        out[s.layer] = out.get(s.layer, 0.0) + own
    return out


def write_spans(spans: list[Span], path: str) -> None:
    """One JSON object per span, in the order the spans were opened."""
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            f.write(json.dumps(asdict(s), sort_keys=True) + "\n")
