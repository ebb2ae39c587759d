"""In-memory span recorder for the traced run.

Standard library only: the traced run opens its first span around
``import pact.cli``, so nothing here may pull in numpy or pact.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One call into a layer: name, start and end (perf_counter seconds), parent index."""

    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans of one workload; spans stay in memory until `to_json`."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.workload, dict(counts))
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def to_json(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp.start
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.duration - covered)
    return out


def per_span_cost(samples: int = 2000) -> float:
    """Measured seconds one nested span adds, for the tracing-overhead estimate."""
    rec = SpanRecorder("calibration")
    t0 = time.perf_counter()
    with rec.span("outer"):
        for _ in range(samples):
            with rec.span("inner"):
                pass
    return (time.perf_counter() - t0) / (samples + 1)
