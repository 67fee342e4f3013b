"""Pipeline-level publication into the current metrics registry.

The query pipelines each produce a :class:`~repro.query.costs.CostBreakdown`
and drive a stats-accumulating engine; this module turns one pipeline run
into metric-family increments:

* ``candidates_after_mbr{pipeline=...}`` / ``pairs_compared{pipeline=...}``
  - per-run distributions of the breakdown's counts (a histogram's
  ``count`` is the pipeline's run count);
* ``refinement{field=...}`` - the engine's
  :class:`~repro.core.stats.RefinementStats` *delta* over the run;
* ``gpu{counter=...}`` - the hardware engine's
  :class:`~repro.gpu.counters.CostCounters` delta over the run;
* ``funnel{pipeline=..., stage=...}`` - the EXPLAIN ANALYZE funnel: how
  many candidates entered the run and which stage resolved each of them
  (see :mod:`repro.obs.explain` for the stage identities); it carries the
  breakdown's candidate counts (``candidates``, ``refined``, ``results``
  and the filter stages).

Deltas are computed from before/after field snapshots so a long-lived
engine shared by many runs (``run_query_set``) attributes each run's work
to that run.  Everything is gated on the ambient scope's registry
(:func:`~repro.obs.scope.current_scope`):
with none in scope, :func:`observe_pipeline` returns ``None`` and
the pipelines skip the accounting entirely - the zero-overhead default.

Stat containers are duck-typed through ``__dataclass_fields__`` so this
module (like the rest of :mod:`repro.obs`) imports nothing from the rest
of :mod:`repro` and stays cycle-free.
"""

from __future__ import annotations

from typing import Any, Optional

from .explain import FUNNEL_STAGES, QueryFunnel, dataclass_values, funnel_from_deltas
from .metrics import MetricsRegistry
from .scope import current_scope


class PipelineObserver:
    """Captures an engine's stat state at run start; publishes the delta."""

    __slots__ = ("registry", "pipeline", "engine", "_stats_before", "_gpu_before")

    def __init__(
        self, registry: MetricsRegistry, pipeline: str, engine: Any
    ) -> None:
        self.registry = registry
        self.pipeline = pipeline
        self.engine = engine
        self._stats_before = dataclass_values(engine.stats)
        gpu = getattr(engine, "gpu_counters", None)
        self._gpu_before = dataclass_values(gpu) if gpu is not None else None

    def finish(self, cost: Any) -> QueryFunnel:
        """Publish one finished run's cost breakdown and engine deltas;
        returns the run's funnel (the pipelines hand it to their caller)."""
        reg = self.registry
        reg.histogram("candidates_after_mbr", pipeline=self.pipeline).observe(
            cost.candidates_after_mbr
        )
        reg.histogram("pairs_compared", pipeline=self.pipeline).observe(
            cost.pairs_compared
        )
        deltas = {
            name: getattr(self.engine.stats, name) - before
            for name, before in self._stats_before.items()
        }
        for name, delta in deltas.items():
            if delta:
                reg.counter("refinement", field=name).inc(delta)
        # The EXPLAIN ANALYZE funnel: every candidate of this run is
        # attributed to exactly one resolving stage (repro.obs.explain
        # derives the stages and checks the identities).  Zero increments
        # are skipped like everywhere else; absent keys read as zero
        # downstream.
        funnel = funnel_from_deltas(self.pipeline, deltas, cost, self.engine)
        for stage in FUNNEL_STAGES:
            value = getattr(funnel, stage)
            if value:
                reg.counter(
                    "funnel", pipeline=self.pipeline, stage=stage
                ).inc(value)
        if self._gpu_before is not None:
            gpu = self.engine.gpu_counters
            for name, before in self._gpu_before.items():
                delta = getattr(gpu, name) - before
                if delta:
                    reg.counter("gpu", counter=name).inc(delta)
        return funnel


def observe_pipeline(pipeline: str, engine: Any) -> Optional[PipelineObserver]:
    """An observer for one run, or None when metrics are off (the default)."""
    registry = current_scope().registry
    if registry is None:
        return None
    return PipelineObserver(registry, pipeline, engine)


__all__ = ["PipelineObserver", "observe_pipeline"]
