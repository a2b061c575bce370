"""In-memory spans recorded by the benchmark around each public call.

A span has a name, a start and end on the monotonic clock, the span
that encloses it and the job it belongs to.  Spans stay in memory while
the benchmark runs and are written out as one JSON file when it ends.
A span's *self time* is its duration minus the part of that interval
its child spans cover; the layer of a span is its name up to the first
dot (``obs.write_perfetto`` belongs to ``obs``), except that the
analysis and export halves of ``obs`` are told apart by
:data:`EXPORT_SPANS`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional

#: The ``obs`` spans that write artifacts; every other ``obs`` span
#: analyses the run.
EXPORT_SPANS = frozenset(
    {"obs.write_metrics", "obs.write_perfetto", "obs.ledger_append"}
)


@dataclass
class Span:
    name: str
    job: int
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans; one recorder per benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, job: int) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, job, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self, job: int) -> Dict[str, float]:
        """Self time of every span of *job*, summed by span name."""
        indexed = [(i, s) for i, s in enumerate(self.spans) if s.job == job]
        child_time: Dict[int, float] = {}
        for _, s in indexed:
            if s.parent is not None:
                covered = child_time.get(s.parent, 0.0)
                child_time[s.parent] = covered + s.duration
        out: Dict[str, float] = {}
        for i, s in indexed:
            own = s.duration - child_time.get(i, 0.0)
            out[s.name] = out.get(s.name, 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def layer_of(name: str) -> str:
    """``core``, ``sim``, ``obs.analyze``, ``obs.export`` or ``bench``."""
    head = name.split(".", 1)[0]
    if head == "obs":
        return "obs.export" if name in EXPORT_SPANS else "obs.analyze"
    return head
