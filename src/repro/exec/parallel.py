"""Parallel batch refinement: shard candidate pairs across a worker pool.

The refinement stage of every query pipeline is an embarrassingly parallel
loop: each surviving candidate pair is decided independently by a
:class:`~repro.core.engine.RefinementEngine`.  This module partitions the
candidate list (:mod:`repro.exec.partition`) and refines the shards on a
``multiprocessing`` pool where **each worker owns its own engine** - for the
hardware engine that means one simulated
:class:`~repro.gpu.pipeline.GraphicsPipeline` per worker, mirroring the
one-GL-context-per-thread rule real drivers impose.

Merge semantics: results and statistics fold back into the *caller's*
engine and result objects so a parallel run is indistinguishable from a
serial one -

* matched keys concatenate in shard order (shards are contiguous slices,
  so this reproduces the serial visiting order exactly);
* :class:`~repro.core.stats.RefinementStats`, the sweep/minDist work
  counters, and the per-primitive GPU
  :class:`~repro.gpu.costmodel.CostCounters` fields are additive per pair,
  so summing per-shard deltas reproduces the serial totals bit for bit.
  (Submission-side counters - draw calls, clears, accumulation/Minmax
  ops, tile batches - count fixed per-submission overhead; under the
  batched hardware path their totals depend on where shard boundaries cut
  the candidate list, exactly as they would across multiple real GPUs.);
* per-shard wall-clock timings surface as child trace spans
  (:mod:`repro.obs.trace`) under the enclosing pipeline stage;
* when the coordinator has a :mod:`repro.obs.metrics` registry in scope,
  each worker runs its shard under a fresh shard-local registry and ships
  the snapshot back in :attr:`ShardResult.metrics`; the coordinator merges
  the snapshots in.  Histogram merging is exact (Shewchuk partial sums),
  so per-pair metric families (``hw_verdicts``, ``hw_test_edges``,
  ``refinement``, ...) come out bit-identical to a serial run, in any
  merge order.  Batch-shape families (``tiles_per_batch``,
  ``atlas_occupancy``) depend on where shard boundaries cut the candidate
  list, exactly like the submission-side cost counters above;
* when the coordinator has a :mod:`repro.obs.capture` recorder in scope,
  each worker records its shard's GPU command stream into a fresh
  shard-local recorder and ships the events back in
  :attr:`ShardResult.capture`; the coordinator folds them in shard order
  with :meth:`~repro.obs.capture.CommandRecorder.merge`, which remaps
  pipeline ids deterministically - each shard's stream stays contiguous
  and self-contained, so the merged capture replays shard by shard.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cache import CacheConfig
from ..core.config import HardwareConfig
from ..core.engine import HardwareEngine, RefinementEngine, SoftwareEngine
from ..core.refine import OPS, WorkItem
from ..core.stats import RefinementStats
from ..geometry.min_dist import MinDistStats
from ..geometry.sweep import SweepStats
from ..gpu.costmodel import CostCounters
from ..obs.capture import CommandRecorder
from ..obs.context import RequestContext
from ..obs.metrics import MetricsRegistry
from ..obs.scope import current_scope, use_scope
from .partition import partition_items, shard_count_for


@dataclass(frozen=True)
class EngineSpec:
    """A picklable recipe for rebuilding an engine inside a worker.

    Carries the engine's cache configuration (inside the hardware
    engine's :class:`HardwareConfig`; in :attr:`cache` for the software
    engine), so coordinator and workers cannot disagree about memoization.
    """

    kind: str  # "software" | "hardware"
    restrict_search_space: bool = True
    config: Optional[HardwareConfig] = None
    cache: CacheConfig = CacheConfig.disabled()

    @classmethod
    def for_engine(cls, engine: RefinementEngine) -> "EngineSpec":
        if isinstance(engine, SoftwareEngine):
            return cls(
                kind="software",
                restrict_search_space=engine.restrict_search_space,
                cache=engine.cache_config,
            )
        if isinstance(engine, HardwareEngine):
            return cls(kind="hardware", config=engine.config)
        raise TypeError(
            f"cannot derive a worker spec from engine {type(engine).__name__};"
            " expected SoftwareEngine or HardwareEngine"
        )

    def build(self) -> RefinementEngine:
        if self.kind == "software":
            return SoftwareEngine(
                restrict_search_space=self.restrict_search_space,
                cache=self.cache,
            )
        if self.kind == "hardware":
            return HardwareEngine(self.config)
        raise ValueError(f"unknown engine kind {self.kind!r}")


@dataclass
class ShardResult:
    """What one worker reports back for one shard."""

    matches: List[Any]
    pairs: int
    elapsed_s: float
    stats: RefinementStats
    sweep_stats: SweepStats
    mindist_stats: MinDistStats
    gpu_counters: Optional[CostCounters] = None
    #: Shard-local metrics snapshot (when the coordinator collects metrics).
    metrics: Optional[Dict[str, Any]] = None
    #: Shard-local capture events (when the coordinator has a recorder).
    capture: Optional[List[Dict[str, Any]]] = None
    #: The request trace id this shard ran under (round-tripped through the
    #: worker, proving the context crossed the pool boundary).
    trace_id: Optional[str] = None


@dataclass
class BatchReport:
    """Aggregate outcome of one :meth:`ParallelExecutor.refine_pairs` call."""

    matches: List[Any] = field(default_factory=list)
    pairs: int = 0
    shards: int = 0
    #: Sum of worker-measured shard seconds (CPU-side refinement work).
    worker_seconds: float = 0.0


# -- worker-side machinery ---------------------------------------------------

_WORKER_ENGINE: Optional[RefinementEngine] = None
_WORKER_INIT_ERROR: Optional[BaseException] = None


def _init_worker(spec: EngineSpec) -> None:
    """Pool initializer: build this worker's private engine once.

    Never raises: a ``multiprocessing.Pool`` whose initializer throws
    respawns the worker in a loop and ``map`` hangs forever waiting for a
    worker that will never come up.  The error is stashed instead, and the
    first task raises it - which *does* propagate to the coordinator.
    """
    global _WORKER_ENGINE, _WORKER_INIT_ERROR
    try:
        _WORKER_ENGINE = spec.build()
    except BaseException as exc:  # noqa: BLE001 - re-raised per task
        _WORKER_ENGINE = None
        _WORKER_INIT_ERROR = exc


def _refine_shard(
    task: Tuple[str, Optional[float], Sequence[WorkItem], bool, bool, Optional[str]],
) -> ShardResult:
    op, distance, items, collect_metrics, collect_capture, trace_id = task
    engine = _WORKER_ENGINE
    if engine is None:
        raise RuntimeError(
            "worker engine unavailable"
            + (
                f": initializer failed with {_WORKER_INIT_ERROR!r}"
                if _WORKER_INIT_ERROR is not None
                else " (pool not initialized)"
            )
        ) from _WORKER_INIT_ERROR
    engine.reset_stats()
    # Caches reset per task, like stats: each shard starts cold, so merged
    # hit/miss tallies (and every downstream number) depend only on shard
    # boundaries, never on which worker process a task happened to land on.
    engine.reset_caches()
    # A fresh shard-local registry per task (not per worker) so every
    # snapshot contains exactly one shard's observations - the coordinator
    # merges them and the totals cannot depend on task->worker assignment.
    # Likewise a fresh shard-local recorder: its pipeline ids restart at p0
    # each shard, and CommandRecorder.merge remaps them deterministically
    # in shard order on the coordinator.
    shard_registry = MetricsRegistry() if collect_metrics else None
    shard_recorder = CommandRecorder() if collect_capture else None
    # Context crosses the pool boundary explicitly (ContextVars do not
    # survive pickling): the worker re-enters a context built from the
    # coordinator's trace id so context-aware instrumentation inside the
    # shard attributes its work to the originating request.
    shard_context = (
        RequestContext(trace_id=trace_id) if trace_id is not None else None
    )
    start = time.perf_counter()
    # Blank, not inherited: a fork-started worker holds a copy of the
    # coordinator's scope, and must not record spans into that tracer (or
    # stream them into its exporter's file), nor into a registry/recorder
    # the shard was not asked to collect.
    with use_scope(
        blank=True,
        registry=shard_registry,
        recorder=shard_recorder,
        request=shard_context,
    ):
        matches = engine.refine(op, items, distance=distance)
    elapsed = time.perf_counter() - start
    counters = (
        engine.gpu_counters.snapshot()
        if isinstance(engine, HardwareEngine)
        else None
    )
    return ShardResult(
        matches=matches,
        pairs=len(items),
        elapsed_s=elapsed,
        stats=engine.stats,
        sweep_stats=engine.sweep_stats,
        mindist_stats=engine.mindist_stats,
        gpu_counters=counters,
        metrics=shard_registry.snapshot() if shard_registry is not None else None,
        capture=shard_recorder.events if shard_recorder is not None else None,
        trace_id=trace_id,
    )


# -- the executor ------------------------------------------------------------


class ParallelExecutor:
    """Refines candidate batches across a pool of engine-owning workers.

    One executor may serve many queries and both engine kinds: the pool is
    (re)built lazily whenever the caller's engine spec changes.  With
    ``workers <= 1`` (or a batch smaller than one shard's worth of work)
    the batch runs inline on the caller's own engine - the exact serial
    code path - so an executor is always safe to pass.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        shards_per_worker: int = 4,
        min_inline_items: int = 32,
        start_method: Optional[str] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.shards_per_worker = shards_per_worker
        self.min_inline_items = min_inline_items
        self.start_method = start_method
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_spec: Optional[EngineSpec] = None
        #: Reports of past refine_pairs calls (most recent last).
        self.reports: List[BatchReport] = []

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Gracefully shut down the worker pool (idempotent).

        Uses ``Pool.close()`` + ``join()``: workers finish the tasks
        already submitted before exiting, so a normal shutdown can never
        kill an in-flight shard and lose or truncate its results.
        ``terminate()`` - which kills workers mid-task - is reserved for
        the error path (:meth:`terminate`, or a failed batch).
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._pool_spec = None

    def terminate(self) -> None:
        """Forcefully kill the worker pool (error path; idempotent).

        In-flight shards are abandoned.  Only for unwinding after a
        failure - normal shutdown is :meth:`close`.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_spec = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        # Graceful drain on the normal path; don't wait for queued work
        # when unwinding an exception.
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            # terminate, not close: a graceful drain from a finalizer
            # could block the interpreter on queued work nobody will read.
            self.terminate()
        except Exception:
            pass

    def _pool_for(self, spec: EngineSpec) -> multiprocessing.pool.Pool:
        if self._pool is None or self._pool_spec != spec:
            self.close()
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(spec,),
            )
            self._pool_spec = spec
        return self._pool

    # -- execution -------------------------------------------------------

    def refine_pairs(
        self,
        engine: RefinementEngine,
        op: str,
        items: Sequence[WorkItem],
        distance: Optional[float] = None,
        stage: str = "geometry",
    ) -> List[Any]:
        """Refine ``items`` and return the keys of the matching ones.

        Statistics accumulate into ``engine`` exactly as a serial loop
        would have; per-shard spans are recorded on the current tracer
        (named ``"<stage>.shard"``).
        """
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}; expected one of {OPS}")
        if op == "within_distance" and distance is None:
            raise ValueError("op 'within_distance' requires a distance")
        report = BatchReport(pairs=len(items))
        self.reports.append(report)
        if not items:
            return report.matches

        scope = current_scope()
        tracer, registry, context = scope.tracer, scope.registry, scope.request
        # Spans from a per-request tracer are stamped already; otherwise an
        # active request context rides along as a span attribute so shard
        # records stay attributable under a shared (e.g. benchmark) tracer.
        trace_attrs: Dict[str, Any] = (
            {"trace_id": context.trace_id}
            if context is not None
            and (tracer is None or tracer.trace_id != context.trace_id)
            else {}
        )
        shards = shard_count_for(
            len(items), self.workers, self.shards_per_worker
        )
        run_inline = (
            self.workers <= 1
            or shards <= 1
            or len(items) < self.min_inline_items
        )
        if run_inline:
            # Inline work reports straight into the caller's registry via
            # the instrumented layers; only the shard-shape histograms need
            # recording here.
            start = time.perf_counter()
            matches = engine.refine(op, items, distance=distance)
            elapsed = time.perf_counter() - start
            report.matches.extend(matches)
            report.shards = 1
            report.worker_seconds = elapsed
            if tracer is not None:
                tracer.record(
                    f"{stage}.shard",
                    elapsed,
                    shard=0,
                    pairs=len(items),
                    inline=True,
                    **trace_attrs,
                )
            if registry is not None:
                self._observe_shard(registry, stage, elapsed, len(items))
            return report.matches

        spec = EngineSpec.for_engine(engine)
        pool = self._pool_for(spec)
        recorder = scope.recorder
        collect_metrics = registry is not None
        collect_capture = recorder is not None
        trace_id = context.trace_id if context is not None else None
        tasks = [
            (op, distance, shard, collect_metrics, collect_capture, trace_id)
            for shard in partition_items(items, shards)
        ]
        try:
            results: List[ShardResult] = pool.map(_refine_shard, tasks)
        except Exception:
            # A worker raised (bad spec, shard failure): the batch is lost
            # either way, so tear the pool down hard and propagate - the
            # next refine_pairs call rebuilds a fresh pool.
            self.terminate()
            raise
        for k, res in enumerate(results):
            report.matches.extend(res.matches)
            report.worker_seconds += res.elapsed_s
            self._merge_shard(engine, res)
            if recorder is not None and res.capture is not None:
                recorder.merge(res.capture, origin=f"shard{k}")
            if tracer is not None:
                tracer.record(
                    f"{stage}.shard",
                    res.elapsed_s,
                    shard=k,
                    pairs=res.pairs,
                    matches=len(res.matches),
                    **trace_attrs,
                )
            if registry is not None:
                if res.metrics is not None:
                    registry.merge(res.metrics)
                self._observe_shard(registry, stage, res.elapsed_s, res.pairs)
        report.shards = len(results)
        return report.matches

    @staticmethod
    def _observe_shard(
        registry: MetricsRegistry, stage: str, elapsed_s: float, pairs: int
    ) -> None:
        registry.histogram("shard_duration_s", stage=stage).observe(elapsed_s)
        registry.histogram("shard_pairs", stage=stage).observe(pairs)

    @staticmethod
    def _merge_shard(engine: RefinementEngine, res: ShardResult) -> None:
        engine.stats.merge(res.stats)
        engine.sweep_stats.merge(res.sweep_stats)  # type: ignore[attr-defined]
        engine.mindist_stats.merge(res.mindist_stats)  # type: ignore[attr-defined]
        if res.gpu_counters is not None and isinstance(engine, HardwareEngine):
            engine.gpu_counters.merge(res.gpu_counters)

    # -- introspection ---------------------------------------------------

    @property
    def last_report(self) -> Optional[BatchReport]:
        return self.reports[-1] if self.reports else None

    def describe(self) -> Dict[str, Any]:
        return {
            "workers": self.workers,
            "shards_per_worker": self.shards_per_worker,
            "start_method": self.start_method or "default",
            "batches": len(self.reports),
        }
