"""The query service: the pool's decision, execution, accounting.

:class:`QueryService` is the thread-safe core both front-ends share - the
asyncio TCP server (:mod:`repro.serve.server`) and the in-process load
generators (:mod:`repro.serve.loadgen`).  One :meth:`submit` call - or
one :meth:`dispatch` on an event loop - is one request's whole life:

1. **decision** - at arrival a selection of a query that is not resident
   is an error, before the pool; otherwise the
   :class:`~repro.serve.engine.EnginePool` runs the request on a free
   engine, queues it or sheds it (the wait queue is full); a queued
   request times out with no engine by its deadline.  :meth:`dispatch`
   takes this decision on the loop thread and states the one rule that
   picks the thread a request executes on;
2. **execution** - the checked-out :class:`~repro.serve.engine.ServingEngine`
   runs the exact batch-path pipeline, the same way for every request;
   results are bit-identical to a direct engine call;
3. **accounting** - commit one record, fold on read: every outcome
   commits its op, status and three durations to the thread's
   accumulator of the service's :class:`~repro.obs.metrics.MetricsRegistry`
   in one lock acquire; a read names them ``serve_requests{op,status}``
   and the per-op ``serve_wait_duration_s`` / ``serve_exec_duration_s`` /
   ``serve_request_duration_s`` histograms, and reads the queue depth and
   inflight gauges from the pool.  The registry is in every request's
   :func:`~repro.obs.scope.use_scope`, so the pipeline instrumentation
   (funnel, stage seconds, refinement stats) commits its run records the
   same way, from every thread at once.

Per-request observability rides the same submit path:

* with **tracing** on (``QueryService(trace=True)``),
  every request gets its *own* :class:`~repro.obs.trace.Tracer` - a
  ``request`` root span, a ``queue_wait`` span, an ``execute`` span under
  which the pipelines' :meth:`~repro.query.costs.CostBreakdown.time_stage`
  spans parent - and the response echoes the ``trace_id``
  (client-supplied or minted).  With an admission deadline, a stage span
  that finished past it carries ``over_deadline: True``, set here once the
  request is done.  Each finished trace is one record (its
  span dicts) of a bounded :class:`~repro.obs.records.RecordLog`,
  exportable as flat span JSONL via :meth:`QueryService.export_traces`.
* Tracer scoping is **unconditional**: a tracer is single-control-flow, so
  every submit's scope names ``tracer=per_request_or_None`` - an explicit
  ``None`` shields concurrent serving threads from a tracer their caller
  has in scope, which would interleave their spans.
* with a **slow-query log** (:class:`~repro.serve.slowlog.SlowLogConfig`),
  threshold-exceeding requests and every shed/timeout/error add a JSONL
  forensics record (span tree, EXPLAIN funnel, cost stages, cache deltas,
  queue-wait split) to a second :class:`~repro.obs.records.RecordLog`;
  the funnel and cache deltas are the ones every execution returns (the
  pipeline observer's funnel), so logging adds no execution path.
* with **windowed health** (:class:`~repro.serve.health.HealthConfig`),
  every outcome also lands in rolling per-op latency/outcome windows and
  the SLO burn-rate tracker, surfaced live through :meth:`QueryService.health`
  (the TCP ``health`` envelope and ``python -m repro.serve top``).
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext
from typing import IO, Any, Dict, Optional, Sequence, Tuple, Union

from ..obs.metrics import MetricKey, MetricsRegistry, metric_key
from ..obs.records import RecordLog, write_jsonl
from ..obs.scope import use_scope
from ..obs.trace import Tracer, new_trace_id
from .engine import (
    AdmissionConfig,
    EnginePool,
    Execution,
    ServingEngine,
    ServingWorkload,
    WorkloadConfig,
)
from .health import HealthConfig, ServiceHealth, build_health
from .schema import SERVE_OPS, STATUSES, QueryRequest, QueryResponse
from .slowlog import SlowLogConfig, build_record


#: ``(op, status)`` -> the keys its request record commits under: outcome
#: count, wait / exec / total seconds, slow-log count.
_REQUEST_KEYS: Dict[Tuple[str, str], Tuple[MetricKey, ...]] = {
    (op, status): (
        metric_key("serve_requests", op=op, status=status),
        *(metric_key(f"serve_{part}_duration_s", op=op) for part in ("wait", "exec", "request")),
        metric_key("serve_slow_requests", op=op, status=status),
    )
    for op in SERVE_OPS
    for status in STATUSES
}


class QueryService:
    """Thread-safe serving core over one engine pool."""

    def __init__(
        self,
        workload: Optional[WorkloadConfig] = None,
        workers: int = 2,
        admission: Optional[AdmissionConfig] = None,
        warm: bool = False,
        trace: bool = False,
        slowlog: Optional[SlowLogConfig] = None,
        health: Optional[HealthConfig] = None,
    ) -> None:
        self.workload_config = workload if workload is not None else WorkloadConfig()
        self.admission_config = (
            admission if admission is not None else AdmissionConfig()
        )
        self.registry = MetricsRegistry()
        #: Trace every request (one tracer per request, trace_id echoed on
        #: the response).  Off by default: the no-tracer fast path stays
        #: the zero-overhead default the batch layers rely on.
        self.trace = trace
        #: One record per finished request: its span dicts (tracing only).
        self.traces = RecordLog()
        self.slowlog_config = slowlog
        #: Slow-query records, appended to ``slowlog.path`` as they arrive.
        self.slowlog: Optional[RecordLog] = (
            RecordLog(slowlog.path) if slowlog is not None else None
        )
        #: Windowed telemetry + SLO burn-rate monitor (None = off, the
        #: default: the submit path then pays one None check).  On or off,
        #: it adds nothing to the registry snapshot.
        self.health_monitor: Optional[ServiceHealth] = (
            ServiceHealth(health) if health is not None else None
        )
        self.workload = ServingWorkload(self.workload_config)
        self.pool = EnginePool(
            self.workload, workers, self.admission_config, self.registry, warm=warm
        )
        #: The dispatch rule's input (:meth:`dispatch`): each resident
        #: query index whose last completed selection computed nothing,
        #: mapped to ``None`` when its MBR filter found no candidate, else
        #: to the pool tables' eviction tally read when that memo-served
        #: run started.  Written from every serving thread, read on the
        #: loop; each ``dict`` operation is atomic under the GIL.
        self._computes_nothing: Dict[int, Optional[int]] = {}

    # -- capacity (how many threads a front-end may need) -----------------

    @property
    def capacity(self) -> int:
        """Upper bound on requests usefully inside the service at once."""
        return self.pool.size + self.admission_config.max_queue

    # -- submission -------------------------------------------------------

    def submit(self, request: QueryRequest) -> QueryResponse:
        """Execute one request synchronously (blocking; thread-safe).

        Never raises for per-request problems: validation and execution
        failures come back as ``status="error"`` responses so one bad
        request cannot take down a serving thread.
        """
        start = time.perf_counter()
        return self._serve(request, start, self._admit(request))

    def dispatch(
        self,
        request: QueryRequest,
        executor: Any = None,
    ) -> Union[QueryResponse, "asyncio.Future[QueryResponse]"]:
        """Decide one request at its arrival, on the running event loop's
        thread: its response when the loop answers it, else the future of
        its run on ``executor``.

        The pool's decision (:meth:`~repro.serve.engine.EnginePool.admit`)
        is taken here, so shed, timeout, ``wait_s`` and ``total_s`` all
        count from arrival.  A request refused at arrival (unknown query,
        shed, closed) executes nothing and is answered here.

        The one dispatch rule: a request **executes on the loop thread**
        iff it is a ``selection``, the pool handed it a free engine at
        arrival, and the last completed run of the same resident
        ``query_index`` on this service computed nothing - either

        * its MBR filter found no candidate
          (``cost.candidates_after_mbr == 0``), or
        * it was memo-served: its ``Execution.cache_delta`` shows no miss
          in either pool table, and neither table has evicted an entry
          since that run started (the tables' table-wide ``evictions``
          tallies, read at each execution's start, have not moved).

        Joins and within-distance queries never run on the loop.  Every
        other admitted request runs on ``executor``: with its engine
        already checked out, or waiting for one in the pool.  Both
        placements serve through the same code as :meth:`submit`, so a
        request placed on the loop - like a refused one - also does its
        accounting there, including the slow-query log's append to its
        file (one short line, under a lock the executor threads take for
        theirs too).

        One race remains: after this check, an executor thread's store
        can evict a key the loop-placed run is about to look up.  The
        loop then computes that key itself (or waits for the thread that
        claimed it), and the run's miss sends that selection's next
        arrivals back to the executor.  So one eviction puts on the loop
        at most the evicted share of one selection's cold run - never a
        join's or a within-distance query's work.  On the resident sets
        the costliest cold selection (query 1) executes in about 13 ms at
        ``--scale small`` and 4.5 ms at ``tiny``, against 50 and 13 ms for
        the join (a 2-vCPU x86-64 guest, CPython 3.11).

        ``executor`` should be sized to the service's :attr:`capacity` so
        the offload pool is never the bottleneck (the TCP front-end does
        this, up to a cap).  A smaller one is slower, never stuck: the
        pool gives a released engine to a queued request before a later
        arrival, so a request that holds an engine is never queued behind
        threads parked waiting for one.
        """
        start = time.perf_counter()
        admitted = self._admit(request)
        engine, outcome = admitted
        refused = engine is None and outcome != "queued"
        if refused or (engine is not None and self._computes_nothing_now(request)):
            return self._serve(request, start, admitted)
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(executor, self._serve, request, start, admitted)

    async def asubmit(
        self,
        request: QueryRequest,
        executor: Any = None,
    ) -> QueryResponse:
        """Serve one request through :meth:`dispatch` and await its
        response on the event loop: the same decision and placement, for
        in-process callers (the TCP front-end dispatches directly)."""
        placed = self.dispatch(request, executor)
        if isinstance(placed, QueryResponse):
            return placed
        # Shielded: the request already holds an engine or a queue slot,
        # so a cancelled caller must not cancel it before a thread runs it.
        return await asyncio.shield(placed)

    def _computes_nothing_now(self, request: QueryRequest) -> bool:
        """The dispatch rule's condition on the request's own history."""
        if request.op != "selection":
            return False
        # -1: no run recorded (a tally is never negative).
        mark = self._computes_nothing.get(request.query_index, -1)
        return mark is None or mark == self._evictions()

    def _evictions(self) -> int:
        """Entries the pool's two tables have evicted so far."""
        caches = self.pool.caches
        return caches.verdict.table.evictions + caches.predicate.table.evictions

    def _admit(
        self, request: QueryRequest
    ) -> Tuple[Optional[ServingEngine], Optional[str]]:
        """The arrival decision: a selection of a query that is not
        resident is refused here (``"unknown_query"``), before the pool,
        so it is an error whatever the load; every other request is the
        pool's (:meth:`~repro.serve.engine.EnginePool.admit`)."""
        if request.op == "selection" and request.query_index >= len(self.workload.queries):
            return None, "unknown_query"
        return self.pool.admit()

    def _serve(
        self,
        request: QueryRequest,
        start: float,
        admitted: Tuple[Optional[ServingEngine], Optional[str]],
    ) -> QueryResponse:
        """One request's life after its arrival decision: scope,
        tracing, execution, accounting, slow-query log.

        A traced request's stage spans that finished past its deadline
        (arrival + ``timeout_s``) are marked ``over_deadline``; the
        slow-query record lists them.
        """
        forensics = self.trace or self.slowlog is not None
        trace_id = (request.trace_id or new_trace_id()) if forensics else None
        tracer = deadline_unix_s = None
        if self.trace:
            tracer = Tracer(trace_id=trace_id)
            timeout_s = self.admission_config.timeout_s
            if timeout_s is not None:
                # On the tracer's wall clock, read next to its anchors.
                deadline_unix_s = time.time() - (time.perf_counter() - start) + timeout_s
        # The tracer is named even when tracing is off: a Tracer is
        # single-control-flow, so concurrent serving threads must never
        # share one.  The per-request tracer - or an explicit None -
        # shields this request from a tracer the caller has in scope.
        with use_scope(tracer=tracer, registry=self.registry):
            if tracer is not None:
                with tracer.span("request", op=request.op) as root:
                    response, execution = self._submit_core(
                        request, start, tracer, admitted
                    )
                    root.attributes["status"] = response.status
                    if response.worker is not None:
                        root.attributes["worker"] = response.worker
            else:
                response, execution = self._submit_core(
                    request, start, tracer, admitted
                )
        if trace_id is not None:
            response.trace_id = trace_id
        spans: Sequence[Dict[str, Any]] = ()
        if tracer is not None:
            if deadline_unix_s is not None:
                for span in tracer.spans:
                    if (
                        span.attributes.get("kind") == "stage"
                        and span.start_unix_s + span.duration_s > deadline_unix_s
                    ):
                        span.attributes["over_deadline"] = True
            spans = [span.to_dict() for span in tracer.spans]
            self.traces.append(spans)
        if self._slow(response.status, response.total_s):
            self.slowlog.append(  # type: ignore[union-attr]
                build_record(
                    request,
                    response,
                    spans=spans,
                    execution=execution,
                    queue_depth=self.pool.queue_depth,
                )
            )
        return response

    def _submit_core(
        self,
        request: QueryRequest,
        start: float,
        tracer: Optional[Tracer],
        admitted: Tuple[Optional[ServingEngine], Optional[str]],
    ) -> Tuple[QueryResponse, Optional[Execution]]:
        """The arrival decision (a queued request waits here) ->
        execution -> accounting.

        Returns the response and, for a request that ran to completion,
        its :class:`~repro.serve.engine.Execution` (the slow-query log
        reads its cost, funnel and cache deltas).  A finished selection
        also updates the dispatch rule's input: whether its run computed
        nothing (:meth:`dispatch`).
        """
        engine, refusal = admitted
        with tracer.span("queue_wait") if tracer is not None else nullcontext():
            if refusal == "queued":
                engine, refusal = self.pool.wait(start)
        if refusal == "closed":
            return self._finish(request, "error", start, error="service is closed"), None
        if refusal == "unknown_query":
            error = (
                f"IndexError: query_index {request.query_index} out of range "
                f"(resident query set has {len(self.workload.queries)})"
            )
            return self._finish(request, "error", start, error=error), None
        if refusal == "shed":
            return self._finish(request, "shed", start), None
        wait_s = time.perf_counter() - start
        if engine is None:
            return self._finish(request, "timeout", start, wait_s), None
        try:
            exec_start = time.perf_counter()
            evictions = self._evictions()
            exec_span = (
                tracer.span("execute", worker=engine.worker_id)
                if tracer is not None
                else nullcontext()
            )
            with exec_span:
                execution = engine.execute(request)
            exec_s = time.perf_counter() - exec_start
        except KeyboardInterrupt:
            raise
        except BaseException as exc:
            # A worker that dies (SystemExit, say) fails its request, not
            # the server: only Ctrl-C stops it.
            error = f"{type(exc).__name__}: {exc}"
            return self._finish(request, "error", start, wait_s, engine=engine, error=error), None
        finally:
            self.pool.release(engine)
        if request.op == "selection":
            computes_nothing = self._computes_nothing
            if not execution.cost.candidates_after_mbr:
                computes_nothing[request.query_index] = None
            elif not any(delta["misses"] for delta in execution.cache_delta.values()):
                computes_nothing[request.query_index] = evictions
            else:
                computes_nothing.pop(request.query_index, None)
        return self._finish(request, "ok", start, wait_s, exec_s, engine, execution), execution

    def export_traces(self, target: Union[str, IO[str]]) -> int:
        """Write every retained request trace as span JSONL; returns count.

        The output is the flat span format ``python -m repro.obs report``
        and ``python -m repro.obs timeline`` consume.  Every request's
        tracer numbered its spans from 1, so ids are namespaced per trace
        (``"<trace_id>:<span_id>"``): parent links still resolve within
        each request, but two requests' spans never alias each other in
        downstream tree rebuilds.
        """

        def namespaced(span: Dict[str, Any]) -> Dict[str, Any]:
            doc = dict(span)
            prefix = doc["trace_id"]
            doc["span_id"] = f"{prefix}:{doc['span_id']}"
            if doc["parent_id"] is not None:
                doc["parent_id"] = f"{prefix}:{doc['parent_id']}"
            return doc

        return write_jsonl(
            target,
            (namespaced(span) for spans in self.traces.records() for span in spans),
        )

    # -- bookkeeping ------------------------------------------------------

    def _finish(
        self,
        request: QueryRequest,
        status: str,
        start: float,
        wait_s: float = 0.0,
        exec_s: float = 0.0,
        engine: Optional[ServingEngine] = None,
        execution: Optional[Execution] = None,
        error: Optional[str] = None,
    ) -> QueryResponse:
        """The response, after committing its record: the outcome, its
        durations and its slow-log count, in one lock acquire."""
        total_s = time.perf_counter() - start
        worker = None if engine is None else engine.worker_id
        requests, waited, executed, total, slow = _REQUEST_KEYS[request.op, status]
        acc = self.registry.accumulator()
        with acc.lock:
            acc.add(requests)
            if status == "ok":
                acc.observe(waited, wait_s)
                acc.observe(executed, exec_s)
                acc.observe(total, total_s)
            if self._slow(status, total_s):
                acc.add(slow)
        monitor = self.health_monitor
        if monitor is not None:
            monitor.record(request.op, status, total_s, worker=worker)
        return QueryResponse(
            status=status,
            op=request.op,
            results=None if execution is None else execution.results,
            request_id=request.request_id,
            worker=worker,
            wait_s=wait_s,
            exec_s=exec_s,
            total_s=total_s,
            error=error,
            attributes=(
                {} if execution is None
                else {"pairs_compared": execution.cost.pairs_compared}
            ),
        )

    def _slow(self, status: str, total_s: float) -> bool:
        """Whether the slow-query log takes this outcome (a pure function
        of it: the record's count and the log's append agree)."""
        slow = self.slowlog_config
        return slow is not None and slow.should_log(status, total_s)

    # -- introspection / lifecycle ----------------------------------------

    def describe(self) -> Dict[str, Any]:
        info = self.workload.describe()
        info.update(
            workers=self.pool.size,
            max_queue=self.admission_config.max_queue,
            timeout_s=self.admission_config.timeout_s,
            tracing=self.trace,
            slowlog=self.slowlog is not None,
            windowed=self.health_monitor is not None,
        )
        return info

    def metrics_snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    def health(self) -> Dict[str, Any]:
        """The versioned ``health`` envelope body (works with health off).

        Always cheap and safe to poll: it reads the admission gauges and
        the worker roster, and - when the windowed monitor is enabled -
        re-evaluates the SLO state machine so alerts resolve on the poll
        even when traffic has stopped.
        """
        return build_health(
            self.health_monitor,
            queue_depth=self.pool.queue_depth,
            inflight=self.pool.inflight,
            max_queue=self.admission_config.max_queue,
            workers=self.pool.worker_stats(),
            closed=self.pool.closed,
        )

    def export_alerts(self, target: Union[str, IO[str]]) -> int:
        """Write the SLO alert log as JSONL; returns the event count.

        Raises :class:`RuntimeError` when the service runs without the
        windowed monitor (there is no alert state machine to export).
        """
        if self.health_monitor is None:
            raise RuntimeError(
                "alert export requires the service to run with health"
                " tracking enabled (HealthConfig)"
            )
        return self.health_monitor.slo.alert_log.export(target)

    def close(self) -> None:
        """Refuse new and waiting work (idempotent)."""
        self.pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["QueryService"]
