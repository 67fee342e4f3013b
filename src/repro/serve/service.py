"""The query service: admission, engine checkout, execution, accounting.

:class:`QueryService` is the thread-safe core both front-ends share - the
asyncio TCP server (:mod:`repro.serve.server`) and the in-process load
generators (:mod:`repro.serve.loadgen`).  One :meth:`submit` call is one
request's whole life:

1. **admission** - refused immediately (``shed``) when the wait queue is
   full;
2. **engine checkout** - block until a pool engine frees up, bounded by
   the admission deadline (``timeout``);
3. **execution** - the checked-out :class:`~repro.serve.engine.ServingEngine`
   runs the exact batch-path pipeline; results are bit-identical to a
   direct engine call;
4. **accounting** - every outcome increments
   ``serve_requests{op,status}``; latency splits land in the
   ``serve_wait_duration_s`` / ``serve_exec_duration_s`` /
   ``serve_request_duration_s`` histograms (per op); queue depth and
   inflight ride the ``serve_queue_depth`` / ``serve_inflight`` gauges.

The service owns a :class:`~repro.obs.metrics.MetricsRegistry` and puts it
in every request's :func:`~repro.obs.scope.use_scope`, so the
existing pipeline instrumentation (funnel counters, stage seconds,
refinement stats) publishes into it from every worker thread concurrently -
which is exactly the load that required making the registry thread-safe
and the scope contextvar-held.

Per-request observability rides the same submit path:

* with **tracing** on (``QueryService(trace=True)``),
  every request gets its *own* :class:`~repro.obs.trace.Tracer` - a
  ``request`` root span, a ``queue_wait`` span, an ``execute`` span under
  which the pipelines' :meth:`~repro.query.costs.CostBreakdown.time_stage`
  spans parent - and the response echoes the ``trace_id``
  (client-supplied or minted).  Each finished trace is one record (its
  span dicts) of a bounded :class:`~repro.obs.records.RecordLog`,
  exportable as flat span JSONL via :meth:`QueryService.export_traces`.
* Tracer scoping is **unconditional**: a tracer is single-control-flow, so
  every submit's scope names ``tracer=per_request_or_None`` - an explicit
  ``None`` shields concurrent serving threads from a tracer their caller
  has in scope, which would interleave their spans.
* with a **slow-query log** (:class:`~repro.serve.slowlog.SlowLogConfig`),
  threshold-exceeding requests and every shed/timeout/error add a JSONL
  forensics record (span tree, EXPLAIN funnel, cost stages, cache deltas,
  queue-wait split) to a second :class:`~repro.obs.records.RecordLog`,
  gathered via the per-request
  :meth:`~repro.serve.engine.ServingEngine.execute_forensic` path.
* with **windowed health** (:class:`~repro.serve.health.HealthConfig`),
  every outcome also lands in rolling per-op latency/outcome windows and
  the SLO burn-rate tracker, surfaced live through :meth:`QueryService.health`
  (the TCP ``health`` envelope and ``python -m repro.serve top``).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from contextlib import nullcontext
from typing import IO, Any, Dict, Optional, Sequence, Tuple, Union

from ..obs.context import RequestContext, new_trace_id
from ..obs.metrics import MetricsRegistry
from ..obs.records import RecordLog
from ..obs.scope import use_scope
from ..obs.trace import Tracer
from .admission import AdmissionConfig, AdmissionController
from .engine import EnginePool, ServingWorkload, WorkloadConfig
from .health import HealthConfig, ServiceHealth, build_health
from .schema import QueryRequest, QueryResponse
from .slowlog import SlowLogConfig, build_record


class QueryService:
    """Thread-safe serving core over one engine pool."""

    def __init__(
        self,
        workload: Optional[WorkloadConfig] = None,
        workers: int = 2,
        admission: Optional[AdmissionConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        warm: bool = False,
        trace: bool = False,
        slowlog: Optional[SlowLogConfig] = None,
        health: Optional[HealthConfig] = None,
    ) -> None:
        self.workload_config = workload if workload is not None else WorkloadConfig()
        self.admission_config = (
            admission if admission is not None else AdmissionConfig()
        )
        self.registry = registry if registry is not None else MetricsRegistry()
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
        #: default: the submit path then pays one None check and the
        #: registry snapshot stays bit-identical to a health-free build).
        self.health_monitor: Optional[ServiceHealth] = (
            ServiceHealth(health, registry=self.registry)
            if health is not None
            else None
        )
        self.workload = ServingWorkload(self.workload_config)
        self.pool = EnginePool(self.workload, workers, warm=warm)
        self.admission = AdmissionController(
            self.admission_config, registry=self.registry
        )
        self._closed = threading.Event()
        reg = self.registry
        reg.gauge("serve_workers").set(workers)
        reg.gauge("serve_queue_capacity").set(self.admission_config.max_queue)

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
        tracing_on = self.trace
        forensics = tracing_on or self.slowlog is not None
        trace_id = (request.trace_id or new_trace_id()) if forensics else None
        tracer = Tracer(trace_id=trace_id) if tracing_on else None
        context = None
        if forensics:
            timeout_s = self.admission_config.timeout_s
            context = RequestContext(
                trace_id=trace_id,  # type: ignore[arg-type]
                attributes={"op": request.op},
                deadline_unix_s=(
                    time.time() + timeout_s if timeout_s is not None else None
                ),
            )
        # The tracer is named even when tracing is off: a Tracer is
        # single-control-flow, so concurrent serving threads must never
        # share one.  The per-request tracer - or an explicit None -
        # shields this request from a tracer the caller has in scope.
        with use_scope(tracer=tracer, registry=self.registry, request=context):
            if tracer is not None:
                with tracer.span("request", op=request.op) as root:
                    response, forensic = self._submit_core(
                        request, start, tracer
                    )
                    root.attributes["status"] = response.status
                    if response.worker is not None:
                        root.attributes["worker"] = response.worker
            else:
                response, forensic = self._submit_core(request, start, tracer)
        if trace_id is not None:
            response.trace_id = trace_id
        spans: Sequence[Dict[str, Any]] = ()
        if tracer is not None:
            spans = [span.to_dict() for span in tracer.spans]
            self.traces.append(spans)
        slow = self.slowlog_config
        if slow is not None and slow.should_log(response.status, response.total_s):
            self.slowlog.append(  # type: ignore[union-attr]
                build_record(
                    request,
                    response,
                    spans=spans,
                    funnel=forensic.get("funnel"),
                    cost=forensic.get("cost"),
                    cache_delta=forensic.get("cache_delta"),
                    queue_depth=self.admission.queue_depth,
                )
            )
            self.registry.counter(
                "serve_slow_requests", op=request.op, status=response.status
            ).inc()
        return response

    def _submit_core(
        self,
        request: QueryRequest,
        start: float,
        tracer: Optional[Tracer],
    ) -> Tuple[QueryResponse, Dict[str, Any]]:
        """Admission -> engine checkout -> execution -> accounting.

        Returns the response plus the forensic artifacts (funnel, cost,
        cache deltas) gathered for the slow-query log along the way.
        """
        forensic: Dict[str, Any] = {}
        if self._closed.is_set():
            return (
                self._finish(request, "error", start, error="service is closed"),
                forensic,
            )
        if not self.admission.try_admit():
            return self._finish(request, "shed", start), forensic

        engine = self.pool.acquire(self.admission_config.timeout_s)
        wait_s = time.perf_counter() - start
        if tracer is not None:
            tracer.record("queue_wait", wait_s)
        if engine is None:
            self.admission.abandon_queue()
            return (
                self._finish(request, "timeout", start, wait_s=wait_s),
                forensic,
            )

        self.admission.start_execution()
        try:
            exec_start = time.perf_counter()
            exec_span = (
                tracer.span("execute", worker=engine.worker_id)
                if tracer is not None
                else nullcontext()
            )
            with exec_span:
                if self.slowlog is not None:
                    results, cost, funnel, cache_delta = (
                        engine.execute_forensic(request)
                    )
                    forensic["funnel"] = funnel
                    forensic["cache_delta"] = cache_delta
                else:
                    results, cost = engine.execute(request)
            exec_s = time.perf_counter() - exec_start
        except Exception as exc:
            return (
                self._finish(
                    request,
                    "error",
                    start,
                    wait_s=wait_s,
                    worker=engine.worker_id,
                    error=f"{type(exc).__name__}: {exc}",
                ),
                forensic,
            )
        finally:
            self.admission.finish_execution()
            self.pool.release(engine)
        forensic["cost"] = cost
        return (
            self._finish(
                request,
                "ok",
                start,
                results=results,
                wait_s=wait_s,
                exec_s=exec_s,
                worker=engine.worker_id,
                attributes={"pairs_compared": cost.pairs_compared},
            ),
            forensic,
        )

    def export_traces(self, target: Union[str, IO[str]]) -> int:
        """Write every retained request trace as span JSONL; returns count.

        The output is the flat span format ``python -m repro.obs report``
        and ``python -m repro.obs timeline`` consume.  Every request's
        tracer numbered its spans from 1, so ids are namespaced per trace
        (``"<trace_id>:<span_id>"``): parent links still resolve within
        each request, but two requests' spans never alias each other in
        downstream tree rebuilds.
        """
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as f:
                return self.export_traces(f)
        count = 0
        for spans in self.traces.records():
            for span in spans:
                doc = dict(span)
                prefix = doc["trace_id"]
                doc["span_id"] = f"{prefix}:{doc['span_id']}"
                if doc["parent_id"] is not None:
                    doc["parent_id"] = f"{prefix}:{doc['parent_id']}"
                target.write(json.dumps(doc, sort_keys=True) + "\n")
                count += 1
        return count

    async def asubmit(
        self,
        request: QueryRequest,
        executor: Any = None,
    ) -> QueryResponse:
        """Asyncio facade: run :meth:`submit` on a thread-pool executor.

        ``executor`` should be sized to the service's :attr:`capacity` so
        the offload pool is never the bottleneck (the front-ends do this).
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(executor, self.submit, request)

    # -- bookkeeping ------------------------------------------------------

    def _finish(
        self,
        request: QueryRequest,
        status: str,
        start: float,
        results: Optional[list] = None,
        wait_s: float = 0.0,
        exec_s: float = 0.0,
        worker: Optional[int] = None,
        error: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> QueryResponse:
        total_s = time.perf_counter() - start
        reg = self.registry
        reg.counter("serve_requests", op=request.op, status=status).inc()
        if status == "ok":
            reg.histogram("serve_wait_duration_s", op=request.op).observe(wait_s)
            reg.histogram("serve_exec_duration_s", op=request.op).observe(exec_s)
            reg.histogram("serve_request_duration_s", op=request.op).observe(
                total_s
            )
        monitor = self.health_monitor
        if monitor is not None:
            monitor.record(request.op, status, total_s, worker=worker)
        return QueryResponse(
            status=status,
            op=request.op,
            results=results,
            request_id=request.request_id,
            worker=worker,
            wait_s=wait_s,
            exec_s=exec_s,
            total_s=total_s,
            error=error,
            attributes=dict(attributes) if attributes else {},
        )

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

    def metrics_text(self) -> str:
        """Prometheus-style exposition of the service registry."""
        return self.registry.prometheus_text()

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
            queue_depth=self.admission.queue_depth,
            inflight=self.admission.inflight,
            max_queue=self.admission_config.max_queue,
            workers=self.pool.worker_stats(),
            closed=self._closed.is_set(),
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
        """Refuse new work and release engine resources (idempotent)."""
        self._closed.set()
        self.pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["QueryService"]
