"""Pipeline runs as committed records, named when the registry is read.

A run commits one fixed-shape record to its thread's
:class:`~repro.obs.metrics.Accumulator`: the engine's stats and GPU
counter deltas over the run (each read with one ``operator.attrgetter``)
and the :class:`~repro.query.costs.CostBreakdown` counts, summed
element-wise per pipeline and engine kind, plus the
``candidates_after_mbr`` / ``pairs_compared{pipeline}`` histograms.  A
read names the sums ``refinement{field}``, ``gpu{counter}`` and
``funnel{pipeline,stage}`` (:mod:`repro.obs.explain`; a funnel is linear
in its record, so the funnel of summed runs is the sum of their funnels),
skipping zero sums.  Before/after reads attribute each run's work to that
run on a shared engine.  With no registry in scope,
:func:`observe_pipeline` returns ``None``.  Like the rest of
:mod:`repro.obs`, this module imports nothing from the rest of
:mod:`repro`: stat containers are duck-typed through
``__dataclass_fields__``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .explain import FUNNEL_STAGES, QueryFunnel, funnel_from_deltas
from .metrics import MetricKey, MetricsRegistry, metric_key
from .scope import current_scope

#: The breakdown counts a run record ends with, in record order.
COST_FIELDS = ("candidates_after_mbr", "hull_drops", "filter_positives",
               "interval_hits", "interval_drops", "pairs_compared", "results")
_cost_of = operator.attrgetter(*COST_FIELDS)


class RunSite:
    """One pipeline on one engine kind: its record's shape and its names,
    built once and shared by every run."""

    def __init__(self, pipeline: str, engine: Any) -> None:
        self.pipeline = pipeline
        self.software = engine.hw is None
        self.stat_fields = tuple(type(engine.stats).__dataclass_fields__)
        gpu = getattr(engine, "gpu_counters", None)
        gpu_fields = tuple(type(gpu).__dataclass_fields__) if gpu is not None else ()
        self.stats_of = operator.attrgetter(*self.stat_fields)
        self.gpu_of = operator.attrgetter(*gpu_fields) if gpu_fields else None
        self.candidates_key = metric_key("candidates_after_mbr", pipeline=pipeline)
        self.pairs_key = metric_key("pairs_compared", pipeline=pipeline)
        self.counter_keys = (
            [metric_key("refinement", field=f) for f in self.stat_fields]
            + [metric_key("gpu", counter=f) for f in gpu_fields]
        )
        self.funnel_keys = [metric_key("funnel", pipeline=pipeline, stage=s) for s in FUNNEL_STAGES]

    def read(self, engine: Any) -> tuple:
        """The engine's stats, then its GPU counters, as one flat tuple."""
        if self.gpu_of is None:
            return self.stats_of(engine.stats)
        return self.stats_of(engine.stats) + self.gpu_of(engine.gpu_counters)

    def funnel(self, record: List[Any]) -> QueryFunnel:
        """The funnel of one record, or of a sum of records."""
        return funnel_from_deltas(
            self.pipeline,
            dict(zip(self.stat_fields, record)),
            dict(zip(COST_FIELDS, record[-len(COST_FIELDS):])),
            software=self.software,
        )

    def counters(self, sums: List[Any]) -> Iterator[Tuple[MetricKey, Any]]:
        """Name a sum of records: its non-zero ``refinement``, ``gpu`` and
        ``funnel`` counters (the registry's fold calls this)."""
        funnel = self.funnel(sums)
        yield from (kv for kv in zip(self.counter_keys, sums) if kv[1])
        for key, stage in zip(self.funnel_keys, FUNNEL_STAGES):
            if getattr(funnel, stage):
                yield key, getattr(funnel, stage)


_SITES: Dict[Tuple[str, type], RunSite] = {}


class PipelineObserver:
    """Reads an engine's stats at run start; commits the run's record."""

    def __init__(self, registry: MetricsRegistry, site: RunSite, engine: Any) -> None:
        self.registry = registry
        self.site = site
        self.engine = engine
        self._before = site.read(engine)

    def finish(self, cost: Any) -> "PipelineObserver":
        """Commit the finished run's record; the pipelines hand the
        observer to their caller, whose :attr:`funnel` reads it."""
        site = self.site
        self.record = list(map(operator.sub, site.read(self.engine), self._before))
        counts = _cost_of(cost)
        self.record += counts
        acc = self.registry.accumulator()
        with acc.lock:
            acc.add_vector(site, self.record)
            acc.observe(site.candidates_key, counts[0])
            acc.observe(site.pairs_key, counts[5])
        return self

    @functools.cached_property
    def funnel(self) -> QueryFunnel:
        """The finished run's funnel, built on first access."""
        return self.site.funnel(self.record)


@dataclass
class Observed:
    """What every pipeline result carries: the run's committed record."""

    #: The run's finished observer (None when no registry was in scope).
    run: Optional[PipelineObserver] = field(default=None, kw_only=True, repr=False, compare=False)

    @property
    def funnel(self) -> Optional[QueryFunnel]:
        """The run's EXPLAIN funnel (None when no registry was in scope)."""
        return None if self.run is None else self.run.funnel


def observe_pipeline(pipeline: str, engine: Any) -> Optional[PipelineObserver]:
    """An observer for one run, or None when metrics are off (the default)."""
    registry = current_scope().registry
    if registry is None:
        return None
    site = _SITES.get((pipeline, type(engine)))
    if site is None:
        site = _SITES[pipeline, type(engine)] = RunSite(pipeline, engine)
    return PipelineObserver(registry, site, engine)


__all__ = ["Observed", "PipelineObserver", "RunSite", "observe_pipeline"]
