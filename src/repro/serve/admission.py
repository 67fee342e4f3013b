"""Admission control: bounded queueing with explicit shed and timeout.

An open-loop arrival process does not slow down when the server falls
behind - unbounded queues just convert overload into unbounded latency and
memory.  The controller enforces two limits, both resolved **before** any
expensive work happens:

* **shed** - at most ``max_queue`` requests may be waiting for an engine;
  request ``max_queue + 1`` is refused immediately with a ``shed``
  response (the client sees backpressure instead of a stall);
* **timeout** - a request that cannot check out an engine within
  ``timeout_s`` of arriving gets a ``timeout`` response and never
  executes.  Execution itself is never preempted: once an engine is
  checked out the request runs to completion (partial pipeline state is
  worse than a late answer).

Every admitted or refused request is accounted somewhere - shed + timeout
+ ok + error always equals arrivals.  The load generator asserts exactly
that ("zero dropped-then-unreported requests").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from ..obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class AdmissionConfig:
    """Queue bound and deadline of one service."""

    #: Requests allowed to wait for an engine (beyond the ones executing).
    max_queue: int = 64
    #: Seconds a request may wait for an engine before timing out
    #: (``None`` = wait forever; fine for closed-loop clients).
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be positive (or None), got {self.timeout_s}"
            )


class AdmissionController:
    """Thread-safe arrival gate in front of the engine pool.

    When a registry is attached, the ``serve_queue_depth`` and
    ``serve_inflight`` gauges are updated **inside** the locked state
    transitions: gauge writes then land in the same order as the state
    changes, so the final published values after a drained run are
    exactly 0 - a property the CI regression baseline relies on.
    """

    def __init__(
        self,
        config: AdmissionConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self._lock = threading.Lock()
        self._queued = 0
        self._inflight = 0
        self._depth_gauge = (
            registry.gauge("serve_queue_depth") if registry is not None else None
        )
        self._inflight_gauge = (
            registry.gauge("serve_inflight") if registry is not None else None
        )

    def _publish(self) -> None:
        if self._depth_gauge is not None:
            self._depth_gauge.set(self._queued)
        if self._inflight_gauge is not None:
            self._inflight_gauge.set(self._inflight)

    # -- gates -----------------------------------------------------------

    def try_admit(self) -> bool:
        """Admit one arrival into the wait queue, or refuse (shed)."""
        with self._lock:
            if self._queued >= self.config.max_queue:
                return False
            self._queued += 1
            self._publish()
            return True

    def start_execution(self) -> None:
        """An admitted request checked out an engine: queued -> inflight."""
        with self._lock:
            self._queued -= 1
            self._inflight += 1
            self._publish()

    def finish_execution(self) -> None:
        with self._lock:
            self._inflight -= 1
            self._publish()

    def abandon_queue(self) -> None:
        """An admitted request left without executing (timeout/error)."""
        with self._lock:
            self._queued -= 1
            self._publish()

    # -- introspection ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._queued

    @property
    def inflight(self) -> int:
        return self._inflight


__all__ = ["AdmissionConfig", "AdmissionController"]
