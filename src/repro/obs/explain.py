"""Per-query EXPLAIN ANALYZE: the filter/refine funnel, stated and checked.

The paper's whole argument is a funnel (section 4, Figure 13): the MBR
filter admits candidates, the interior filter resolves some outright, the
conservative hardware segment test proves others disjoint, and only the
survivors pay for the exact software sweep - with ``sw_threshold``
deciding when the hardware test is worth its fixed overhead.  This module
turns one query run (or a whole benchmark's merged metrics) into that
funnel, with every candidate attributed to exactly one resolving stage:

``candidates``
    pairs admitted by the MBR/index stage (``cost.candidates_after_mbr``);
``hull_proven_disjoint``
    dropped by the convex-hull geometric filter (``cost.hull_drops``);
``interior_filter_hits``
    resolved by the intermediate (interior) filter before refinement;
``interval_proven_intersecting``
    proved intersecting by the raster-interval second filter (a shared
    FULL cell on the pair-common grid) - positives without refinement;
``interval_proven_disjoint``
    proved disjoint by the interval filter (no shared non-EMPTY cell) -
    dropped without refinement;
``refined``
    pairs handed to the refinement loop (``cost.pairs_compared``);
``prefilter_drops``
    rejected by the refinement-local MBR/locate prefilter;
``pip_resolved``
    resolved positively by the point-in-polygon step (Algorithm 3.1.1);
``sw_direct``
    sent straight to software because the engine has no hardware stage
    (the software baseline); zero for a hardware engine;
``threshold_skipped``
    sent straight to software because ``n + m <= sw_threshold``;
``hw_proven_disjoint``
    resolved by a hardware DISJOINT verdict (for containment this
    *confirms* the pair; either way the pair is settled);
``hw_needs_sweep``
    hardware MAYBE verdicts - the exact test still had to run;
``hw_overflow_fallbacks``
    hardware skipped because Equation (1) demanded a line width beyond
    the device limit (section 4.4; counted live by the
    ``hw_line_width_overflow`` metric family);
``hw_false_positives``
    the MAYBE verdicts the exact test then answered the other way - the
    conservative filter's entire error budget;
``sw_exact``
    exact software tests executed (plane sweep + minDist);
``results``
    pairs answered positive overall.

Three identities tie the stages together, and :meth:`QueryFunnel.check`
enforces them (``python -m repro.obs explain`` exits non-zero on any
violation):

* ``candidates == hull_proven_disjoint + interior_filter_hits
  + interval_proven_intersecting + interval_proven_disjoint + refined``
* ``refined == prefilter_drops + pip_resolved + hw_proven_disjoint
  + sw_exact``
* ``sw_exact == sw_direct + threshold_skipped + hw_needs_sweep
  + hw_overflow_fallbacks``

A run's funnel has one builder, :func:`funnel_from_deltas`, over the
record the pipeline's :class:`~repro.obs.instrument.PipelineObserver`
committed whenever a metrics registry is in scope: the result's
``result.funnel`` builds it on first access, the registry's read builds
the ``funnel`` counters from the summed records.  A caller with no
registry in scope runs the query under a private one.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of :mod:`repro`; engines and costs are duck-typed through
``__dataclass_fields__``, so any layer may use it without import cycles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from .metrics import parse_key

#: Version tag of the explain JSON document.
EXPLAIN_SCHEMA = "repro.obs/explain@1"

#: The three identities: each stage is the sum of the stages it splits into.
_SPLITS = (
    ("candidates", ("hull_proven_disjoint", "interior_filter_hits",
                    "interval_proven_intersecting", "interval_proven_disjoint", "refined")),
    ("refined", ("prefilter_drops", "pip_resolved", "hw_proven_disjoint", "sw_exact")),
    ("sw_exact", ("sw_direct", "threshold_skipped", "hw_needs_sweep", "hw_overflow_fallbacks")),
)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@dataclass
class QueryFunnel:
    """One query pipeline's funnel: the stage counts."""

    pipeline: str
    # The stages, in report order (:data:`FUNNEL_STAGES`).
    candidates: float = 0
    hull_proven_disjoint: float = 0
    interior_filter_hits: float = 0
    interval_proven_intersecting: float = 0
    interval_proven_disjoint: float = 0
    refined: float = 0
    prefilter_drops: float = 0
    pip_resolved: float = 0
    hw_proven_disjoint: float = 0
    sw_exact: float = 0
    sw_direct: float = 0
    threshold_skipped: float = 0
    hw_needs_sweep: float = 0
    hw_overflow_fallbacks: float = 0
    hw_false_positives: float = 0
    results: float = 0

    @property
    def hw_tests(self) -> float:
        """Hardware tests attempted (incl. overflow short-circuits)."""
        return (
            self.hw_proven_disjoint
            + self.hw_needs_sweep
            + self.hw_overflow_fallbacks
        )

    @property
    def hw_false_positive_rate(self) -> float:
        """Fraction of hardware MAYBE verdicts the exact test overturned."""
        return (
            self.hw_false_positives / self.hw_needs_sweep
            if self.hw_needs_sweep
            else 0.0
        )

    def check(self) -> List[str]:
        """Violated funnel identities (empty when the funnel is exact)."""
        identities = [
            (f"{whole} == {' + '.join(parts)}", getattr(self, whole),
             sum(getattr(self, part) for part in parts))
            for whole, parts in _SPLITS
        ]
        identities.append((
            "hw_false_positives <= hw_needs_sweep",
            min(self.hw_false_positives, self.hw_needs_sweep),
            self.hw_false_positives,
        ))
        return [
            f"{self.pipeline}: {name} (lhs={lhs!r}, rhs={rhs!r})"
            for name, lhs, rhs in identities
            if not _close(lhs, rhs)
        ]

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"pipeline": self.pipeline}
        for stage in FUNNEL_STAGES:
            doc[stage] = getattr(self, stage)
        doc["hw_tests"] = self.hw_tests
        doc["hw_false_positive_rate"] = self.hw_false_positive_rate
        return doc


#: Funnel stage names, in report order.
FUNNEL_STAGES = tuple(QueryFunnel.__dataclass_fields__)[1:]


def funnel_from_deltas(
    pipeline: str,
    deltas: Mapping[str, float],
    cost: Optional[Mapping[str, float]] = None,
    software: bool = False,
) -> QueryFunnel:
    """Build a funnel from RefinementStats deltas (and optional cost counts).

    Without the :class:`~repro.query.costs.CostBreakdown` counts, the
    refinement loop *is* the whole funnel: candidates equal the pairs
    tested and no interior-filter stage exists.  ``software`` says the
    engine has no hardware stage, so its exact tests are ``sw_direct`` -
    read off the engine, never a residual, which keeps the third identity
    as strict as before for hardware runs.  Every stage is a sum of
    deltas and counts, so the funnel of summed runs is the sum of their
    funnels.
    """
    refined = deltas.get("pairs_tested", 0)
    sw_exact = deltas.get("sw_segment_tests", 0) + deltas.get("sw_distance_tests", 0)
    funnel = QueryFunnel(
        pipeline=pipeline,
        candidates=refined,
        refined=refined,
        prefilter_drops=deltas.get("prefilter_drops", 0),
        pip_resolved=deltas.get("pip_hits", 0),
        sw_direct=sw_exact if software else 0,
        threshold_skipped=deltas.get("threshold_bypasses", 0),
        hw_proven_disjoint=deltas.get("hw_rejects", 0),
        hw_needs_sweep=(
            deltas.get("hw_tests", 0)
            - deltas.get("hw_rejects", 0)
            - deltas.get("width_limit_fallbacks", 0)
        ),
        hw_overflow_fallbacks=deltas.get("width_limit_fallbacks", 0),
        hw_false_positives=deltas.get("hw_false_positives", 0),
        sw_exact=sw_exact,
        results=deltas.get("positives", 0),
    )
    if cost is not None:
        funnel.candidates = cost["candidates_after_mbr"]
        funnel.hull_proven_disjoint = cost["hull_drops"]
        funnel.interior_filter_hits = cost["filter_positives"]
        funnel.interval_proven_intersecting = cost["interval_hits"]
        funnel.interval_proven_disjoint = cost["interval_drops"]
        funnel.refined = cost["pairs_compared"]
        funnel.results = cost["results"]
    return funnel


# -- building funnels from recorded metric snapshots -------------------------


def funnels_from_snapshot(
    *snapshots: Mapping[str, Any],
) -> Dict[str, QueryFunnel]:
    """Reconstruct per-pipeline funnels from metrics snapshots.

    Reads the ``funnel{pipeline=...,stage=...}`` counter family a read
    names from the :class:`~repro.obs.instrument.PipelineObserver` records, summed over
    every snapshot given (a RunReport's entries merge this way); a snapshot
    without it yields no funnels.
    """
    funnels: Dict[str, QueryFunnel] = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            name, labels = parse_key(key)
            if name != "funnel":
                continue
            label_map = dict(labels)
            pipeline = label_map.get("pipeline", "(unknown)")
            stage = label_map.get("stage")
            if stage not in FUNNEL_STAGES:
                continue
            funnel = funnels.setdefault(pipeline, QueryFunnel(pipeline=pipeline))
            setattr(funnel, stage, getattr(funnel, stage) + value)
    return dict(sorted(funnels.items()))


# -- rendering ---------------------------------------------------------------


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole else "    -"


def render_funnel(funnel: QueryFunnel) -> str:
    """The text funnel report for one pipeline."""
    f = funnel
    lines = [f"EXPLAIN ANALYZE: {f.pipeline}"]

    def row(indent: str, label: str, value: float, of: float) -> None:
        shown = int(value) if float(value).is_integer() else round(value, 3)
        pad = "." * max(1, 34 - len(indent) - len(label))
        lines.append(f"{indent}{label} {pad} {shown:>10} {_pct(value, of)}")

    row("  ", "candidates after MBR/index", f.candidates, f.candidates)
    row("    ", "hull proven disjoint", f.hull_proven_disjoint, f.candidates)
    row("    ", "interior filter hits", f.interior_filter_hits, f.candidates)
    row(
        "    ",
        "interval proven intersecting",
        f.interval_proven_intersecting,
        f.candidates,
    )
    row(
        "    ",
        "interval proven disjoint",
        f.interval_proven_disjoint,
        f.candidates,
    )
    row("    ", "refined", f.refined, f.candidates)
    row("      ", "prefilter drops", f.prefilter_drops, f.refined)
    row("      ", "PIP resolved", f.pip_resolved, f.refined)
    row("      ", "hw proven disjoint", f.hw_proven_disjoint, f.refined)
    row("      ", "exact software tests", f.sw_exact, f.refined)
    row("        ", "no hardware stage", f.sw_direct, f.sw_exact)
    row("        ", "sw_threshold skipped", f.threshold_skipped, f.sw_exact)
    row("        ", "hw needs sweep", f.hw_needs_sweep, f.sw_exact)
    row(
        "        ",
        "line-width overflow",
        f.hw_overflow_fallbacks,
        f.sw_exact,
    )
    row("  ", "results", f.results, f.candidates)
    lines.append(
        f"  hw filter: {int(f.hw_tests)} test(s),"
        f" {int(f.hw_false_positives)} false positive(s)"
        f" ({100.0 * f.hw_false_positive_rate:.1f}% of MAYBE verdicts)"
    )
    violations = f.check()
    for violation in violations:
        lines.append(f"  IDENTITY VIOLATED: {violation}")
    if not violations:
        lines.append("  funnel identities: OK (stages sum to candidates)")
    return "\n".join(lines)


def render_funnels(funnels: Mapping[str, QueryFunnel]) -> str:
    if not funnels:
        return "no funnel metrics found (run with metrics collection on)"
    return "\n\n".join(render_funnel(f) for _, f in sorted(funnels.items()))


def explain_document(
    funnels: Mapping[str, QueryFunnel], source: Optional[str] = None
) -> Dict[str, Any]:
    """The versioned JSON artifact ``python -m repro.obs explain --json`` writes."""
    violations = [v for f in funnels.values() for v in f.check()]
    doc: Dict[str, Any] = {
        "schema": EXPLAIN_SCHEMA,
        "funnels": {name: f.to_dict() for name, f in sorted(funnels.items())},
        "violations": violations,
        "ok": not violations,
    }
    if source is not None:
        doc["source"] = source
    return doc


def write_explain(
    path: str, funnels: Mapping[str, QueryFunnel], source: Optional[str] = None
) -> Dict[str, Any]:
    doc = explain_document(funnels, source)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return doc


__all__ = [
    "EXPLAIN_SCHEMA",
    "FUNNEL_STAGES",
    "QueryFunnel",
    "explain_document",
    "funnel_from_deltas",
    "funnels_from_snapshot",
    "render_funnel",
    "render_funnels",
    "write_explain",
]
