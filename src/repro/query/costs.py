"""Per-stage cost accounting for query pipelines.

The paper's Figures 10-16 all report *computational cost per processing
stage* (Figure 8: MBR filtering, intermediate filtering, geometry
comparison) measured as wall-clock time.  :class:`CostBreakdown` captures
exactly those numbers plus the candidate counts flowing between stages, so
experiments can print the same rows the paper plots.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Tuple

from ..obs.metrics import metric_key
from ..obs.scope import current_scope


@dataclass
class CostBreakdown:
    """Stage timings (seconds) and stage-to-stage candidate counts."""

    mbr_filter_s: float = 0.0
    intermediate_filter_s: float = 0.0
    geometry_s: float = 0.0

    # Counts are ints for a single query; a :meth:`scaled` query-set mean
    # holds float averages in the same fields.
    candidates_after_mbr: float = 0
    #: Candidates the convex-hull geometric filter proved disjoint.
    hull_drops: float = 0
    filter_positives: float = 0
    #: Candidates the interval filter proved INTERSECTING (positives
    #: without refinement) / DISJOINT (dropped without refinement).
    interval_hits: float = 0
    interval_drops: float = 0
    pairs_compared: float = 0
    results: float = 0

    @property
    def total_s(self) -> float:
        """Total computational cost (the paper's "total query cost")."""
        return self.mbr_filter_s + self.intermediate_filter_s + self.geometry_s

    def merge(self, other: "CostBreakdown") -> None:
        """Accumulate another query's costs (for averaging query sets)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def scaled(self, factor: float) -> "CostBreakdown":
        """A copy with every field multiplied by ``factor``.

        Used to turn a merged query-set total into a per-query mean.  The
        count fields scale along with the timings (as float means) - a
        50-query average that kept the *summed* candidate counts next to
        *averaged* timings would overstate per-query filtering work 50x.
        """
        return CostBreakdown(
            **{f.name: getattr(self, f.name) * factor for f in fields(self)}
        )

    @classmethod
    def stage_names(cls) -> Tuple[str, ...]:
        """The timeable stage names, in pipeline order."""
        return tuple(
            name[: -len("_s")]
            for name in cls.__dataclass_fields__
            if name.endswith("_s")
        )

    def time_stage(self, stage: str) -> "_StageTimer":
        """A context manager that accumulates wall-clock time into
        ``<stage>_s``.

        When the ambient scope (:mod:`repro.obs.scope`) has a tracer, a
        span named after the stage is emitted as well, so every pipeline
        gets per-stage tracing with no call-site changes.  Likewise, when
        it has a metrics registry, the stage time is committed to the
        ``stage_duration_s{stage=...}`` histogram - and with neither, the
        block costs one scope read and nothing else.
        Only writable stage *fields* are accepted: read-only aggregates
        such as :attr:`total_s` are rejected up front with
        :class:`ValueError` rather than failing on ``setattr``.
        """
        attr = f"{stage}_s"
        if attr not in self.__dataclass_fields__:
            raise ValueError(
                f"unknown stage {stage!r}; expected one of {self.stage_names()}"
            )
        return _StageTimer(self, stage, attr)


class _StageTimer:
    """One :meth:`CostBreakdown.time_stage` block (a class, not a
    generator: it runs a few times per query on the serving path)."""

    __slots__ = ("cost", "stage", "attr", "registry", "span", "start")

    def __init__(self, cost: CostBreakdown, stage: str, attr: str) -> None:
        self.cost, self.stage, self.attr = cost, stage, attr

    def __enter__(self) -> None:
        scope = current_scope()
        self.registry = scope.registry
        self.span = (
            scope.tracer.span(self.stage, kind="stage")
            if scope.tracer is not None
            else None
        )
        if self.span is not None:
            self.span.__enter__()
        self.start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self.start
        setattr(self.cost, self.attr, getattr(self.cost, self.attr) + elapsed)
        if self.registry is not None:
            acc = self.registry.accumulator()
            with acc.lock:
                acc.observe(_STAGE_KEYS[self.stage], elapsed)
        if self.span is not None:
            self.span.__exit__(*exc_info)


_STAGE_KEYS = {
    stage: metric_key("stage_duration_s", stage=stage)
    for stage in CostBreakdown.stage_names()
}
