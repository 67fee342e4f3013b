"""Persistent serving engines: warm pipelines, one engine per worker.

Everything before this layer was batch: build datasets, build an engine,
run one experiment, throw it all away.  A serving process inverts that -
the expensive substrate must be built **once** and reused for millions of
queries:

* datasets are loaded once per process (:class:`ServingWorkload`) and
  shared read-only by every worker;
* each worker owns one :class:`ServingEngine`: a private refinement
  engine (one simulated GL context per worker, the
  one-context-per-thread rule real drivers impose) and the STR-packed
  R-tree of the selection pipeline pre-built at startup - warm across
  requests instead of rebuilt per query;
* the pool owns one :class:`~repro.cache.CacheBundle`, the process's
  ``verdict`` and ``predicate`` memo tables, and every engine memoizes
  through its own share of it: a resident query or join repeated on any
  engine replays its verdicts and sweeps instead of redoing them, and the
  served counters do not depend on which engine a request lands on;
* :class:`EnginePool` is the service's one admission gate: it decides at
  arrival whether each request runs on a free engine, queues or is shed,
  times a queued one out, and hands engines out one request at a time
  (engines accumulate stats and own mutable pipeline state).

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

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..bench.scales import get_scale
from ..cache import CacheBundle, CacheConfig
from ..core.engine import HardwareEngine
from ..datasets import base_distance
from ..obs.instrument import PipelineObserver
from ..obs.metrics import MetricKey, MetricsRegistry, metric_key
from ..query.costs import CostBreakdown
from ..query.join import IntersectionJoin
from ..query.selection import IntersectionSelection
from ..query.within_distance import WithinDistanceJoin
from .schema import QueryRequest


@dataclass(frozen=True)
class AdmissionConfig:
    """Queue bound and deadline of one service (``--max-queue``/``--timeout``)."""

    #: Requests allowed to wait for an engine (beyond the ones executing);
    #: 0 = a request runs only on a free engine and never waits.
    max_queue: int = 64
    #: Seconds after arrival a request may still get an engine before it
    #: times out (``None`` = wait forever; fine for closed-loop clients).
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(
                f"timeout_s must be positive (or None), got {self.timeout_s}"
            )


class Execution(NamedTuple):
    """One executed request: its answer and its measurement."""

    results: List[Any]
    cost: CostBreakdown
    #: The pipeline's finished observer: the run's committed record, whose
    #: ``funnel`` is built on first access.
    run: Optional[PipelineObserver]
    #: This request's own hits/misses/evictions per memo table (label keyed).
    cache_delta: Dict[str, Dict[str, int]]


@dataclass(frozen=True)
class WorkloadConfig:
    """What one serving process hosts, resolved once at startup.

    Every engine is the default hardware engine (8 x 8 window), every
    pool memoizes through one shared bundle, and the interval filter, when
    on, runs at ``DEFAULT_INTERVAL_LEVEL``.
    """

    scale: str = "tiny"
    #: Raster-interval second filter on the intersection selection/join
    #: pipelines (off by default; results are bit-identical either way).
    use_intervals: bool = False


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
            "engine": "hardware",
            "use_intervals": self.config.use_intervals,
            "selection_objects": len(self.selection_data.polygons),
            "query_set": len(self.queries),
            "join_a_objects": len(self.join_a.polygons),
            "join_b_objects": len(self.join_b.polygons),
            "base_distance": self.base_distance,
        }


class ServingEngine:
    """One worker's private engine plus its three warm pipelines.

    ``caches`` is the engine's share of its pool's memo tables; without
    one the engine memoizes nothing, as a direct engine does.
    """

    def __init__(
        self,
        worker_id: int,
        workload: ServingWorkload,
        caches: Optional[CacheBundle] = None,
    ) -> None:
        config = workload.config
        self.worker_id = worker_id
        self.workload = workload
        self.engine = HardwareEngine(caches=caches)
        #: Requests this engine has started executing (deterministic in
        #: total across the pool; the health envelope's worker roster
        #: reports it as a liveness signal alongside the heartbeats).
        self.requests_served = 0
        # Pipelines are built once: the selection R-tree packs here, at
        # startup, and is reused by every request this engine serves.
        self.selection = IntersectionSelection(
            workload.selection_data,
            self.engine,
            use_intervals=config.use_intervals,
        )
        self.join = IntersectionJoin(
            workload.join_a,
            workload.join_b,
            self.engine,
            use_intervals=config.use_intervals,
        )
        self.within = WithinDistanceJoin(workload.join_a, workload.join_b, self.engine)
        #: The engine's memo handles, whose tallies give each request's deltas.
        bundle = self.engine.caches
        self._memo = tuple(t for t in (bundle.verdict, bundle.predicate) if t is not None)

    def execute(self, request: QueryRequest) -> Execution:
        """Run one validated request: its results and its measurement.

        The result payload is exactly what the underlying pipeline
        returns - the serving layer never re-orders or re-encodes it -
        so responses stay bit-identical to direct engine calls.  The run
        is the record the pipeline's observer committed (the service's
        registry is in scope); the cache deltas count the lookups made
        through this engine's own handles, which are this request's
        alone because the pool checks an engine out to exactly one
        request at a time.
        """
        self.requests_served += 1
        memo = self._memo
        before = [(t.hits, t.misses, t.evictions) for t in memo]
        res: Any
        if request.op == "selection":
            assert request.query_index is not None
            res = self.selection.run(self.workload.queries[request.query_index])
            results = res.ids
        elif request.op == "join":
            res = self.join.run()
            results = res.pairs
        elif request.op == "within_distance":
            assert request.distance is not None
            res = self.within.run(request.distance)
            results = res.pairs
        else:
            raise ValueError(f"unknown op {request.op!r}")
        cache_delta = {
            t.label: {"hits": t.hits - h, "misses": t.misses - m, "evictions": t.evictions - e}
            for t, (h, m, e) in zip(memo, before)
        }
        return Execution(results, res.cost, res.run, cache_delta)

    def warm(self) -> None:
        """Prime the pipelines with one cheap request."""
        if self.workload.queries:
            self.execute(QueryRequest(op="selection", query_index=0))


_POOL_GAUGES = [
    metric_key(name)
    for name in ("serve_queue_depth", "serve_inflight", "serve_workers", "serve_queue_capacity")
]


class EnginePool:
    """The pool's engines and the one gate in front of them.

    Every request gets one decision at its arrival, from :meth:`admit`,
    taken under one condition variable that sees the whole state and
    never blocking:

    * **run** - an engine is free and no queued request is owed it: the
      request checks it out at once;
    * **queued** - fewer than ``max_queue`` others are waiting: it takes a
      queue slot, then waits in :meth:`wait` for a :meth:`release`;
    * **shed** - otherwise it is refused at once;

    and a queued request that has no engine by ``arrival + timeout_s``
    gets a **timeout** from :meth:`wait`.  Splitting the decision from the
    wait lets an event loop decide at arrival and park only queued
    requests on a thread.

    A released engine goes to a queued request before any later arrival:
    :meth:`admit` hands out an engine only while free engines outnumber
    the queued requests.  Without that, an arrival decided on an event
    loop could take the engine a woken waiter was about to get, then sit
    behind parked waiters in a bounded thread pool with no thread ever
    free to run it - and so never release the engine they wait for.

    Execution itself is never preempted: a checked-out engine serves its
    one request to completion (engines accumulate stats and own mutable
    pipeline state).  The pool writes no metric per request: the
    ``serve_queue_depth``, ``serve_inflight``, ``serve_workers`` and
    ``serve_queue_capacity`` gauges are read from its state, under its
    lock, whenever the registry is read - so they always describe one
    moment, and read exactly 0 after a drained run (the CI regression
    baseline relies on it).  The memo tables' ``cache_occupancy`` gauges
    are read the same way, so the last store of a concurrent run cannot
    be overwritten by an earlier one's.
    """

    def __init__(
        self,
        workload: ServingWorkload,
        size: int,
        admission: AdmissionConfig,
        registry: MetricsRegistry,
        warm: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.workload = workload
        self.size = size
        self.admission = admission
        #: The process's memo tables; each engine memoizes through its own
        #: share (:meth:`~repro.cache.CacheBundle.share`).
        self.caches = CacheBundle(CacheConfig())
        self.engines = [
            ServingEngine(i, workload, self.caches.share()) for i in range(size)
        ]
        if warm:
            for engine in self.engines:
                engine.warm()
        self._free: Deque[ServingEngine] = deque(self.engines)
        self._waiting = 0
        self._closed = False
        self._cond = threading.Condition()
        registry.add_source(self._gauges)

    def _gauges(self) -> Iterable[Tuple[MetricKey, int]]:
        with self._cond:
            values = (self._waiting, self.inflight, self.size, self.admission.max_queue)
        caches = self.caches
        tables = (caches.verdict.occupancy_gauge(), caches.predicate.occupancy_gauge())
        return [*zip(_POOL_GAUGES, values), *tables]

    def admit(self) -> Tuple[Optional[ServingEngine], Optional[str]]:
        """Decide one request at its arrival, without blocking.

        Returns ``(engine, None)`` - run on it, then :meth:`release` it -
        ``(None, "queued")`` - it holds a queue slot: call :meth:`wait` -
        or ``(None, refusal)`` with refusal ``"shed"`` or ``"closed"``.
        """
        with self._cond:
            if self._closed:
                return None, "closed"
            if len(self._free) > self._waiting:
                return self._free.popleft(), None
            if self._waiting >= self.admission.max_queue:
                return None, "shed"
            self._waiting += 1
        return None, "queued"

    def wait(
        self, arrival: float
    ) -> Tuple[Optional[ServingEngine], Optional[str]]:
        """Wait for an engine for a request :meth:`admit` queued at
        ``arrival`` (``time.perf_counter()``); gives up its queue slot.

        Returns ``(engine, None)`` or ``(None, refusal)`` with refusal
        ``"timeout"`` (no engine by ``arrival + timeout_s``) or
        ``"closed"``.
        """
        timeout_s = self.admission.timeout_s
        with self._cond:
            self._cond.wait_for(
                lambda: self._free or self._closed,
                None
                if timeout_s is None
                else max(0.0, arrival + timeout_s - time.perf_counter()),
            )
            self._waiting -= 1
            if self._closed:
                engine, refusal = None, "closed"
            elif self._free:
                engine, refusal = self._free.popleft(), None
            else:
                engine, refusal = None, "timeout"
        return engine, refusal

    def release(self, engine: ServingEngine) -> None:
        with self._cond:
            self._free.append(engine)
            self._cond.notify()

    @property
    def queue_depth(self) -> int:
        """Requests waiting for an engine."""
        return self._waiting

    @property
    def inflight(self) -> int:
        """Engines checked out."""
        return self.size - len(self._free)

    @property
    def closed(self) -> bool:
        """Refusing every request (after :meth:`close`)."""
        return self._closed

    def worker_stats(self) -> List[Dict[str, Any]]:
        """One roster row per pool engine (the health envelope's base)."""
        return [
            {"worker": e.worker_id, "requests_served": e.requests_served}
            for e in self.engines
        ]

    def close(self) -> None:
        """Refuse every request from now on, waiting ones included."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


__all__ = [
    "AdmissionConfig",
    "EnginePool",
    "Execution",
    "ServingEngine",
    "ServingWorkload",
    "WorkloadConfig",
]
