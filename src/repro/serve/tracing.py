"""Per-request tracing for the serving layer: config and the trace store.

:class:`~repro.obs.trace.Tracer` is single-control-flow by design - one
tracer belongs to one request.  Sharing one across the serve thread pool
would interleave concurrent requests' spans through one shared parent
stack (request B's stage spans parenting under request A's open span).
The serving layer therefore gives **every request its own tracer**, in the
:func:`~repro.obs.scope.use_scope` around the whole submit path, and
collects the finished span trees here:

* :class:`TracingConfig` - whether tracing is on and how many finished
  request traces to retain;
* :class:`TraceStore` - a thread-safe bounded ring of finished per-request
  span lists.  Bounded because a serving process is long-lived: retaining
  every span of millions of requests is a slow OOM.  Evictions are
  counted, never silent.

The store's :meth:`TraceStore.export` writes one flat span JSONL (every
span already stamped with its request's ``trace_id``), the format both
``python -m repro.obs report`` and ``python -m repro.obs timeline``
consume.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import IO, Any, Deque, Dict, List, Union

from ..obs.trace import Span


@dataclass(frozen=True)
class TracingConfig:
    """Tracing posture of one service, resolved at construction."""

    #: Trace every request (one tracer per request, trace_id echoed on the
    #: response).  Off by default: the no-tracer fast path stays the
    #: zero-overhead default the batch layers rely on.
    enabled: bool = False
    #: Finished request traces retained in memory (oldest evicted first).
    max_requests: int = 10_000

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )

    @classmethod
    def disabled(cls) -> "TracingConfig":
        return cls(enabled=False)


class TraceStore:
    """Thread-safe bounded ring of finished per-request span trees."""

    def __init__(self, max_requests: int = 10_000) -> None:
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.max_requests = max_requests
        self._traces: Deque[List[Span]] = deque(maxlen=max_requests)
        self._lock = threading.Lock()
        self.added = 0
        self.evicted = 0

    def add(self, spans: List[Span]) -> None:
        """Retain one finished request's spans (oldest trace evicted)."""
        if not spans:
            return
        with self._lock:
            if len(self._traces) == self.max_requests:
                self.evicted += 1
            self._traces.append(list(spans))
            self.added += 1

    def traces(self) -> List[List[Span]]:
        """Snapshot of the retained per-request span lists (oldest first)."""
        with self._lock:
            return [list(t) for t in self._traces]

    def spans(self) -> List[Span]:
        """All retained spans, flattened in request-completion order."""
        return [span for trace in self.traces() for span in trace]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def export(self, target: Union[str, IO[str]]) -> int:
        """Write every retained span as JSON lines; returns the span count.

        Every request's tracer numbered its spans from 1, so a flat export
        namespaces ids per trace (``"<trace_id>:<span_id>"``): parent
        links still resolve within each request, but two requests' spans
        can never alias each other in downstream tree rebuilds
        (:mod:`repro.obs.report`, :mod:`repro.obs.timeline`).
        """
        count = 0

        def write_all(f: IO[str]) -> None:
            nonlocal count
            for idx, trace in enumerate(self.traces()):
                for span in trace:
                    doc = span.to_dict()
                    prefix = doc.get("trace_id") or f"t{idx}"
                    doc["span_id"] = f"{prefix}:{doc['span_id']}"
                    if doc.get("parent_id") is not None:
                        doc["parent_id"] = f"{prefix}:{doc['parent_id']}"
                    f.write(json.dumps(doc, sort_keys=True) + "\n")
                    count += 1

        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as f:
                write_all(f)
        else:
            write_all(target)
        return count

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "retained": len(self._traces),
                "added": self.added,
                "evicted": self.evicted,
                "max_requests": self.max_requests,
            }


__all__ = ["TraceStore", "TracingConfig"]
