"""Persistent serving engines: warm pipelines, one engine per worker.

Everything before this layer was batch: build datasets, build an engine,
run one experiment, throw it all away.  A serving process inverts that -
the expensive substrate must be built **once** and reused for millions of
queries:

* datasets are loaded once per process (:class:`ServingWorkload`) and
  shared read-only by every worker;
* each worker owns one :class:`ServingEngine`: a private refinement
  engine (one simulated GL context per worker, the
  one-context-per-thread rule real drivers impose), the
  STR-packed R-tree of the selection pipeline pre-built at startup, and
  the :mod:`repro.cache` layers resolved from the workload's
  :class:`~repro.cache.CacheConfig` - warm across requests instead of
  rebuilt per query;
* :class:`EnginePool` hands engines to requests one-at-a-time (engines
  accumulate stats and own mutable pipeline state, so an engine serves
  exactly one request at a time).

The three resident pipelines mirror the paper's query classes on the same
layers the benchmarks use: selection of STATES50 boundaries against the
LANDC selection layer, the LANDC |><| LANDO intersection join, and the
LANDC |><| LANDO within-distance join (distance chosen per request,
scaled by :func:`~repro.datasets.base_distance`).

Results are **bit-identical to direct engine calls** by construction: the
serving layer adds no execution path of its own - it calls the exact
pipeline objects (:class:`~repro.query.selection.IntersectionSelection`,
:class:`~repro.query.join.IntersectionJoin`,
:class:`~repro.query.within_distance.WithinDistanceJoin`) a batch caller
would.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..bench.scales import get_scale
from ..cache import CacheConfig
from ..core.config import HardwareConfig
from ..core.engine import HardwareEngine, RefinementEngine, SoftwareEngine
from ..datasets import base_distance
from ..filters.intervals import DEFAULT_INTERVAL_LEVEL, check_interval_level
from ..query.costs import CostBreakdown
from ..query.join import IntersectionJoin
from ..query.selection import IntersectionSelection
from ..query.within_distance import WithinDistanceJoin
from .schema import QueryRequest


@dataclass(frozen=True)
class WorkloadConfig:
    """What one serving process hosts, resolved once at startup."""

    scale: str = "tiny"
    #: Refinement engine kind: "hardware" or "software".
    engine: str = "hardware"
    #: Hardware window resolution (ignored for the software engine).
    resolution: int = 8
    #: Memoization layers, resolved here - never from the process default -
    #: so every pool engine is built with the same pinned behavior.
    cache: CacheConfig = CacheConfig.disabled()
    #: Selection intermediate filter level (None = off, the default).
    interior_level: Optional[int] = None
    #: Raster-interval second filter on the intersection selection/join
    #: pipelines (off by default; results are bit-identical either way).
    use_intervals: bool = False
    #: Grid refinement of the interval filter (2^level cells per side).
    interval_level: int = DEFAULT_INTERVAL_LEVEL

    def __post_init__(self) -> None:
        if self.engine not in ("hardware", "software"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected hardware|software"
            )
        check_interval_level(self.interval_level, "interval_level")

    def build_engine(self) -> RefinementEngine:
        if self.engine == "software":
            return SoftwareEngine(cache=self.cache)
        return HardwareEngine(
            HardwareConfig(resolution=self.resolution, cache=self.cache)
        )


class ServingWorkload:
    """The shared, read-only data substrate of one serving process."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        scale = get_scale(config.scale)
        #: Selection data layer and resident query set (paper section 4.2).
        self.selection_data = scale.load("LANDC", role="selection")
        self.queries = list(scale.load("STATES50", role="selection").polygons)
        #: Join partners (paper sections 4.3-4.4).
        self.join_a = scale.load("LANDC", role="join")
        self.join_b = scale.load("LANDO", role="join")
        #: The distance the within-distance pipeline considers "1.0x"
        #: (clients send absolute distances; this is published so they can
        #: scale sensibly).
        self.base_distance = base_distance(self.join_a, self.join_b)

    def describe(self) -> dict:
        return {
            "scale": self.config.scale,
            "engine": self.config.engine,
            "use_intervals": self.config.use_intervals,
            "selection_objects": len(self.selection_data.polygons),
            "query_set": len(self.queries),
            "join_a_objects": len(self.join_a.polygons),
            "join_b_objects": len(self.join_b.polygons),
            "base_distance": self.base_distance,
        }


class ServingEngine:
    """One worker's private engine plus its three warm pipelines."""

    def __init__(self, worker_id: int, workload: ServingWorkload) -> None:
        config = workload.config
        self.worker_id = worker_id
        self.workload = workload
        self.engine = config.build_engine()
        #: Requests this engine has started executing (deterministic in
        #: total across the pool; the health envelope's worker roster
        #: reports it as a liveness signal alongside the heartbeats).
        self.requests_served = 0
        # Pipelines are built once: the selection R-tree packs here, at
        # startup, and is reused by every request this engine serves.
        self.selection = IntersectionSelection(
            workload.selection_data,
            self.engine,
            interior_level=config.interior_level,
            use_intervals=config.use_intervals,
            interval_level=config.interval_level,
        )
        self.join = IntersectionJoin(
            workload.join_a,
            workload.join_b,
            self.engine,
            use_intervals=config.use_intervals,
            interval_level=config.interval_level,
        )
        self.within = WithinDistanceJoin(workload.join_a, workload.join_b, self.engine)

    def execute(self, request: QueryRequest) -> Tuple[List[Any], CostBreakdown]:
        """Run one validated request; returns (results, cost breakdown).

        The result payload is exactly what the underlying pipeline
        returns - the serving layer never re-orders or re-encodes it -
        so responses stay bit-identical to direct engine calls.
        """
        self.requests_served += 1
        if request.op == "selection":
            assert request.query_index is not None
            if request.query_index >= len(self.workload.queries):
                raise IndexError(
                    f"query_index {request.query_index} out of range "
                    f"(resident query set has {len(self.workload.queries)})"
                )
            res = self.selection.run(self.workload.queries[request.query_index])
            return res.ids, res.cost
        if request.op == "join":
            res = self.join.run()
            return res.pairs, res.cost
        if request.op == "within_distance":
            assert request.distance is not None
            res = self.within.run(request.distance)
            return res.pairs, res.cost
        raise ValueError(f"unknown op {request.op!r}")

    def execute_forensic(
        self, request: QueryRequest
    ) -> Tuple[List[Any], CostBreakdown, Any, Dict[str, Dict[str, int]]]:
        """Run one request with per-request EXPLAIN and cache attribution.

        Returns ``(results, cost, funnel, cache_delta)``.  The funnel is
        the engine's RefinementStats *delta* across this request and the
        cache delta the hit/miss/eviction movement of each enabled cache
        layer - both safe to attribute to this request alone because the
        pool checks an engine out to exactly one request at a time.
        Results are the same object :meth:`execute` would return: the
        forensic path only reads counters around the call.
        """
        from ..obs.explain import explain_run

        cache_before = {
            label: (s.hits, s.misses, s.evictions)
            for label, s in self.engine.caches.stats().items()
        }
        captured: Dict[str, Any] = {}

        def run() -> Any:
            results, cost = self.execute(request)
            captured["results"] = results
            # explain_run reads ``result.cost``; hand it a shim since
            # execute() returns a tuple, not a pipeline result object.
            return type("_Run", (), {"cost": cost})()

        shim, funnel = explain_run(request.op, self.engine, run)
        cache_delta = {
            label: {
                "hits": s.hits - cache_before.get(label, (0, 0, 0))[0],
                "misses": s.misses - cache_before.get(label, (0, 0, 0))[1],
                "evictions": s.evictions - cache_before.get(label, (0, 0, 0))[2],
            }
            for label, s in self.engine.caches.stats().items()
        }
        return captured["results"], shim.cost, funnel, cache_delta

    def warm(self) -> None:
        """Prime the caches/pipelines with one cheap request per op."""
        if self.workload.queries:
            self.execute(QueryRequest(op="selection", query_index=0))


class EnginePool:
    """A fixed set of :class:`ServingEngine` workers, checked out per request."""

    def __init__(
        self,
        workload: ServingWorkload,
        size: int,
        warm: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.workload = workload
        self.size = size
        self.engines = [ServingEngine(i, workload) for i in range(size)]
        self._free: "queue.Queue[ServingEngine]" = queue.Queue()
        for engine in self.engines:
            if warm:
                engine.warm()
            self._free.put(engine)
        self._closed = threading.Event()

    def acquire(self, timeout: Optional[float]) -> Optional[ServingEngine]:
        """Check out an engine, waiting up to ``timeout`` seconds.

        Returns ``None`` on timeout or after :meth:`close`.
        """
        if self._closed.is_set():
            return None
        try:
            if timeout is not None and timeout <= 0:
                return self._free.get_nowait()
            return self._free.get(timeout=timeout)
        except queue.Empty:
            return None

    def release(self, engine: ServingEngine) -> None:
        self._free.put(engine)

    def worker_stats(self) -> List[Dict[str, Any]]:
        """One roster row per pool engine (the health envelope's base)."""
        return [
            {"worker": e.worker_id, "requests_served": e.requests_served}
            for e in self.engines
        ]

    def close(self) -> None:
        """Stop handing out engines."""
        self._closed.set()


__all__ = [
    "EnginePool",
    "ServingEngine",
    "ServingWorkload",
    "WorkloadConfig",
]
