"""Per-request context: a trace id, attributes, and an optional deadline.

The serving layer handles many requests concurrently, but the cost signals
the adaptive-routing work needs (ROADMAP item 4, after Kipf et al.'s
"Adaptive Geospatial Joins for Modern Hardware") are *per request*: which
stages this query paid for, on which engine worker, against which
deadline.  A :class:`RequestContext` is the identity that survives the
whole journey - TCP front-end -> :meth:`QueryService.submit` -> engine
checkout -> pipeline stages - so every span and slow-query record can be
joined back to the request that caused it.

The active context is the ``request`` field of the ambient
:class:`~repro.obs.scope.ObsScope` (``use_scope(request=ctx)`` /
``current_scope().request``), token-restored per thread / asyncio task,
so concurrent requests can never observe each other's context.

The module deliberately imports nothing from the rest of :mod:`repro`, so
any layer may depend on it without cycles.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (collision-safe per process lifetime)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class RequestContext:
    """The identity of one in-flight request.

    Frozen: a context is created once at admission and shared read-only by
    every layer the request touches (mutating it mid-flight would make the
    attribution ambiguous).  ``attributes`` is exported by copy wherever it
    leaves the process (spans, slow-query records), so holding a reference
    here is safe.
    """

    trace_id: str
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Absolute wall-clock deadline (``time.time()`` scale), or ``None``.
    #: Propagated as metadata: pipelines do not preempt themselves, but
    #: spans and slow-query records mark work finishing past it.
    deadline_unix_s: Optional[float] = None

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline (negative = past it); None if unset."""
        if self.deadline_unix_s is None:
            return None
        return self.deadline_unix_s - time.time()

    def expired(self) -> bool:
        """True when a deadline is set and already past."""
        remaining = self.remaining_s()
        return remaining is not None and remaining < 0.0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "attributes": dict(self.attributes),
        }
        if self.deadline_unix_s is not None:
            out["deadline_unix_s"] = self.deadline_unix_s
        return out


__all__ = ["RequestContext", "new_trace_id"]
