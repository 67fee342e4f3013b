"""Lightweight per-stage tracing: spans, a collector and a JSON-lines export.

The adaptive-filter literature (Kipf et al., "Adaptive Geospatial Joins for
Modern Hardware") makes per-stage cost *visibility* the prerequisite for
tuning filter parameters at run time.  This module provides that
observability layer for the query pipelines:

* :class:`Span` - one timed operation (a pipeline stage, or a hardware
  batch inside a stage), with a parent link so traces form a tree;
* :class:`Tracer` - collects spans; nested ``tracer.span(...)`` context
  managers parent automatically, :meth:`Tracer.record` admits spans
  timed elsewhere (e.g. a serve request's queue wait), and
  :meth:`Tracer.export` writes them as one JSON object per line through
  :func:`repro.obs.records.write_jsonl`.

Instrumentation finds the tracer of the run it belongs to in the ambient
:class:`~repro.obs.scope.ObsScope` (``current_scope().tracer``), which is
how :meth:`repro.query.costs.CostBreakdown.time_stage` emits spans with
zero call-site changes in the pipelines.

The module imports nothing from :mod:`repro` but :mod:`repro.obs.records`
(standard library only), so any layer (queries, engines, benchmarks) may
depend on it without cycles.

Span JSON schema (one line per span)::

    {"span_id": 3, "parent_id": 2, "name": "geometry.hw_batch",
     "start_unix_s": 1754400000.123, "duration_s": 0.0421,
     "attributes": {"op": "intersect", "pairs": 512}}
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterator, List, Optional, Union

from .records import write_jsonl


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (collision-safe per process lifetime)."""
    return uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished timed operation."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_unix_s: float
    duration_s: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Request correlation id (set when the owning tracer has one); spans
    #: of different requests never share a trace id, which is what lets a
    #: flat multi-request span file be regrouped per request.
    trace_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        # ``attributes`` is copied: exporting by reference would let a
        # caller that mutates the dict after export retroactively alter
        # already-collected (but not yet serialized) spans.
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix_s": self.start_unix_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


class Tracer:
    """Collects spans in memory; :meth:`export` writes them out.

    Not thread-safe by design: one tracer belongs to one control flow.
    """

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.spans: List[Span] = []
        #: When set (the per-request tracers of :mod:`repro.serve`), every
        #: span this tracer finishes is stamped with it.
        self.trace_id = trace_id
        self._stack: List[int] = []
        self._next_id = 1
        # One consistent clock pair, captured once: every span timestamp is
        # derived as wall-anchor + monotonic-elapsed, so start_unix_s and
        # duration_s always come from the same (monotonic) clock.  Mixing
        # time.time() into individual spans would skew them against their
        # durations whenever the wall clock is adjusted (NTP step, DST).
        self._wall_anchor = time.time()
        self._perf_anchor = time.perf_counter()

    def _now_unix_s(self) -> float:
        """Wall-clock 'now' derived from the monotonic clock."""
        return self._wall_anchor + (time.perf_counter() - self._perf_anchor)

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Time a block as a span, parented to the enclosing span."""
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_unix_s=self._now_unix_s(),
            duration_s=0.0,
            attributes=dict(attributes),
            trace_id=self.trace_id,
        )
        self._next_id += 1
        self._stack.append(span.span_id)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_s = time.perf_counter() - start
            self._stack.pop()
            self.spans.append(span)

    def record(
        self,
        name: str,
        duration_s: float,
        start_unix_s: Optional[float] = None,
        **attributes: Any,
    ) -> Span:
        """Record a span timed externally (e.g. a hardware batch).

        The span parents to the currently open span of *this* tracer, which
        is how externally timed child spans land under their pipeline stage.

        When no ``start_unix_s`` is given, the span is assumed to have just
        ended, so its start is *now minus the duration* - recording the end
        time as the start would shift externally-timed spans forward by
        their own length and break start+duration interval math against
        sibling spans.  "Now" is derived from the tracer's single
        wall+monotonic clock pair, never a fresh ``time.time()`` read:
        ``duration_s`` was measured on the monotonic clock, and
        backdating a monotonic duration from an adjustable wall reading
        would skew the span against its siblings whenever the system
        clock steps.
        """
        span = Span(
            span_id=self._next_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_unix_s=(
                self._now_unix_s() - duration_s
                if start_unix_s is None
                else start_unix_s
            ),
            duration_s=duration_s,
            attributes=dict(attributes),
            trace_id=self.trace_id,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    # -- inspection -------------------------------------------------------

    def export(self, target: Union[str, IO[str]]) -> int:
        """Write all collected spans as JSON lines to a path (truncated) or
        an open text file; returns the count."""
        return write_jsonl(target, (span.to_dict() for span in self.spans))

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name."""
        return [s for s in self.spans if s.name == name]
