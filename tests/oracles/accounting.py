"""Per-request accounting as direct registry writes: the reference the
committed records are folded against.

Before records, a pipeline run and a served request each wrote straight
to the registry at the moment a value was known - one labelled key and
one ``add``, ``observe`` or ``set`` per value, the funnel one
stage at a time, the pool's gauges on every state change.  This module
keeps that accounting.  :func:`account_directly` replays a served mix
with it: it re-executes every ok request under :class:`DirectObserver`
and writes every response's outcome, and returns the snapshot those
writes leave.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Any, Dict, List, Tuple
from unittest import mock

from repro.cache import CacheBundle, CacheConfig
from repro.obs.explain import FUNNEL_STAGES, QueryFunnel, funnel_from_deltas
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.scope import use_scope
from repro.query import containment, join, selection, within_distance
from repro.serve import QueryRequest, QueryResponse, QueryService, ServingEngine


def _values(container: Any) -> Dict[str, Any]:
    return {name: getattr(container, name) for name in type(container).__dataclass_fields__}


class DirectObserver:
    """A pipeline run's accounting, written value by value at its end."""

    def __init__(self, registry: MetricsRegistry, pipeline: str, engine: Any) -> None:
        self.registry = registry
        self.pipeline = pipeline
        self.engine = engine
        self.stats_before = _values(engine.stats)
        gpu = getattr(engine, "gpu_counters", None)
        self.gpu_before = _values(gpu) if gpu is not None else None
        self.funnel: QueryFunnel

    def finish(self, cost: Any) -> "DirectObserver":
        acc = self.registry.accumulator()
        acc.observe(
            metric_key("candidates_after_mbr", pipeline=self.pipeline), cost.candidates_after_mbr
        )
        acc.observe(metric_key("pairs_compared", pipeline=self.pipeline), cost.pairs_compared)
        deltas = {
            name: getattr(self.engine.stats, name) - before
            for name, before in self.stats_before.items()
        }
        for name, delta in deltas.items():
            if delta:
                acc.add(metric_key("refinement", field=name), delta)
        self.funnel = funnel_from_deltas(
            self.pipeline, deltas, _values(cost), software=self.engine.hw is None
        )
        for stage in FUNNEL_STAGES:
            value = getattr(self.funnel, stage)
            if value:
                acc.add(metric_key("funnel", pipeline=self.pipeline, stage=stage), value)
        if self.gpu_before is not None:
            for name, before in self.gpu_before.items():
                delta = getattr(self.engine.gpu_counters, name) - before
                if delta:
                    acc.add(metric_key("gpu", counter=name), delta)
        return self


def account_directly(
    service: QueryService, outcomes: List[Tuple[QueryRequest, QueryResponse]]
) -> Dict[str, Any]:
    """The snapshot direct writes leave for ``outcomes`` served by
    ``service``: its gauges as a drained pool sets them, each ok request
    re-executed on a fresh engine over the same resident data - memoizing
    through fresh memo tables of its own, as the pool's engines do through
    their shared ones - and each response's outcome, durations and
    slow-log count."""
    registry = MetricsRegistry()
    acc = registry.accumulator()
    acc.set(metric_key("serve_workers"), service.pool.size)
    acc.set(metric_key("serve_queue_capacity"), service.admission_config.max_queue)
    acc.set(metric_key("serve_queue_depth"), 0)
    acc.set(metric_key("serve_inflight"), 0)
    engine = ServingEngine(0, service.workload, CacheBundle(CacheConfig()))

    def observe(pipeline: str, run_engine: Any) -> DirectObserver:
        return DirectObserver(registry, pipeline, run_engine)

    with ExitStack() as stack:
        for module in (selection, join, within_distance, containment):
            stack.enter_context(mock.patch.object(module, "observe_pipeline", observe))
        stack.enter_context(use_scope(registry=registry, tracer=None))
        for request, response in outcomes:
            if response.status == "ok":
                engine.execute(request)
    slow = service.slowlog_config
    for request, response in outcomes:
        op, status = request.op, response.status
        acc.add(metric_key("serve_requests", op=op, status=status))
        if status == "ok":
            acc.observe(metric_key("serve_wait_duration_s", op=op), response.wait_s)
            acc.observe(metric_key("serve_exec_duration_s", op=op), response.exec_s)
            acc.observe(metric_key("serve_request_duration_s", op=op), response.total_s)
        if slow is not None and slow.should_log(status, response.total_s):
            acc.add(metric_key("serve_slow_requests", op=op, status=status))
    return registry.snapshot()
