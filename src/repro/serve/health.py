"""Service health: windowed telemetry, SLO burn rates, and the verdict.

The cumulative registry answers "what has this process done since it
started"; this module answers the operator's question - "is the service
healthy *right now*" - and packages the answer as the versioned
``health`` envelope (:data:`~repro.serve.schema.HEALTH_SCHEMA`) the TCP
front-end serves and ``python -m repro.serve top`` renders:

* :class:`HealthConfig` - the opt-in: windowed per-op latency/outcome
  families (:mod:`repro.obs.window`), the SLO objectives and burn-rate
  windows (:mod:`repro.obs.slo`), and the **injected clock** everything
  runs off.  The default service carries no monitor at all - the submit
  hot path pays one ``None`` check, and the registry snapshot (the
  CI-gated serving baseline) is bit-identical to a pre-health build;
* :class:`ServiceHealth` - the per-service monitor
  :meth:`~repro.serve.service.QueryService.submit` reports every outcome
  into, committing each request whole under the
  :class:`~repro.obs.slo.SLOTracker`'s lock: the outcome count and
  duration (``serve_window_requests{op,status}`` /
  ``serve_window_request_duration_s{op}``) in one
  :class:`~repro.obs.window.Ring`, each objective's good/bad in the
  tracker's rings, and the worker's heartbeat.  It publishes nothing into
  the service registry, so the CI-gated snapshot is unchanged;
* :func:`build_health` - the envelope itself: a ``ready``/``degraded``
  verdict (degraded while any SLO alert fires or admission is at the
  shed point), queue depth / inflight, per-op windowed p50/p95/p99 and
  rates, burn rates, firing alerts, and engine-pool worker heartbeats.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import metric_key
from ..obs.slo import SLOConfig, SLObjective, SLOTracker, default_objectives
from ..obs.window import Ring, WindowConfig
from .schema import HEALTH_SCHEMA

#: Health verdicts, from best to worst.
VERDICTS = ("ready", "degraded")


@dataclass(frozen=True)
class HealthConfig:
    """Windowed-telemetry posture of one service (presence = enabled)."""

    #: Rolling window of the per-op latency/outcome families.
    window_width_s: float = 10.0
    window_buckets: int = 6
    #: Burn-rate windows (production shape: 1 m fast / 1 h slow).
    slo_fast_s: float = 60.0
    slo_slow_s: float = 3600.0
    burn_threshold: float = 2.0
    #: Fast-window events required before an objective may fire.
    min_events: int = 1
    #: The objectives to track (default: stock availability + latency).
    objectives: Tuple[SLObjective, ...] = field(
        default_factory=default_objectives
    )
    #: The seconds source every window reads (injectable for tests).
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def __post_init__(self) -> None:
        for name in ("window_width_s", "slo_fast_s", "slo_slow_s", "burn_threshold"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.window_buckets < 1:
            raise ValueError(
                f"window_buckets must be >= 1, got {self.window_buckets}"
            )
        if not self.objectives:
            raise ValueError("health tracking needs at least one objective")


class ServiceHealth:
    """The per-service monitor every submit outcome reports into."""

    def __init__(self, config: HealthConfig) -> None:
        self.config = config
        self.window = Ring(
            WindowConfig(
                width_s=config.window_width_s,
                buckets=config.window_buckets,
                clock=config.clock,
            )
        )
        self.slo = SLOTracker(
            config.objectives,
            SLOConfig.scaled(
                config.slo_fast_s,
                config.slo_slow_s,
                clock=config.clock,
                burn_threshold=config.burn_threshold,
                min_events=config.min_events,
            ),
        )
        #: worker id -> clock() of the last outcome that worker served.
        self._heartbeats: Dict[int, float] = {}

    # -- the submit-path hook ---------------------------------------------

    def record(
        self,
        op: str,
        status: str,
        total_s: float,
        worker: Optional[int] = None,
    ) -> None:
        """Commit one finished request whole, then advance the alerts."""
        with self.slo.lock:
            bucket = self.window.bucket()
            bucket.add(metric_key("serve_window_requests", op=op, status=status))
            if status == "ok":
                bucket.observe(metric_key("serve_window_request_duration_s", op=op), total_s)
            self.slo.count(op, status, total_s)
            if worker is not None:
                self._heartbeats[worker] = self.config.clock()
        self.slo.evaluate()

    # -- views -------------------------------------------------------------

    def heartbeats(self) -> Dict[int, Dict[str, float]]:
        """Per-worker last-served timestamps, as ages against the clock."""
        now = self.config.clock()
        with self.slo.lock:
            beats = sorted(self._heartbeats.items())
        return {
            worker: {"last_seen_s_ago": max(0.0, now - at), "last_seen_at": at}
            for worker, at in beats
        }


def build_health(
    monitor: Optional[ServiceHealth],
    queue_depth: int,
    inflight: int,
    max_queue: int,
    workers: Sequence[Dict[str, Any]],
    closed: bool = False,
) -> Dict[str, Any]:
    """The versioned ``health`` envelope body.

    Works with or without a monitor: an un-windowed service still
    reports the verdict, queue depth, inflight, and worker roster -
    the windowed/SLO sections are simply absent (``windowed: false``).
    """
    firing: List[str] = []
    degraded: List[str] = []
    if closed:
        degraded.append("service is closed")
    if max_queue > 0 and queue_depth >= max_queue:
        degraded.append(f"admission queue full ({queue_depth}/{max_queue})")
    doc: Dict[str, Any] = {
        "schema": HEALTH_SCHEMA,
        "queue_depth": queue_depth,
        "inflight": inflight,
        "max_queue": max_queue,
        "workers": list(workers),
        "windowed": monitor is not None,
    }
    if monitor is not None:
        # Evaluate first so an alert whose window has drained resolves on
        # the poll even when no request has arrived since.
        monitor.slo.evaluate()
        firing = monitor.slo.firing()
        for name in firing:
            degraded.append(f"SLO burn-rate alert firing: {name}")
        heartbeats = monitor.heartbeats()
        for entry in doc["workers"]:
            beat = heartbeats.get(entry.get("worker"))
            if beat is not None:
                entry.update(beat)
        with monitor.slo.lock:
            doc["window"] = monitor.window.summary()
        doc["slo"] = monitor.slo.burn_rates()
        doc["firing_alerts"] = firing
        doc["alert_log"] = {
            "events": len(monitor.slo.alert_log),
            "added": monitor.slo.alert_log.added,
            "evicted": monitor.slo.alert_log.evicted,
        }
    doc["verdict"] = "degraded" if degraded else "ready"
    doc["ready"] = not degraded
    doc["degraded_reasons"] = degraded
    return doc


__all__ = [
    "HealthConfig",
    "ServiceHealth",
    "VERDICTS",
    "build_health",
]
