"""Observability: unified metrics, trace-tree reports, run artifacts, gating.

The substrate the ROADMAP's "fast as the hardware allows" goal needs - you
cannot keep a hot path fast without machine-readable evidence of where
time goes and a gate that fails when it regresses.

* :mod:`repro.obs.scope` - the ambient :class:`ObsScope` (tracer, metrics
  registry, command recorder) behind one ``ContextVar``:
  every instrumented layer reads it with :func:`current_scope`, callers
  set it with :func:`use_scope` (zero overhead when a facility is off);
* :mod:`repro.obs.trace` - :class:`Tracer` / :class:`Span`, the
  per-stage span collector (``tracer.export(path)`` writes span JSONL),
  and :func:`new_trace_id`, the id one request's spans share;
* :mod:`repro.obs.metrics` - the one aggregate table (counter sums,
  last-set gauges, exactly-mergeable log-bucketed histograms) with its one
  merge, and the :class:`MetricsRegistry` that folds writers' tables on
  read;
* :mod:`repro.obs.report` - trace-tree analysis of
  :mod:`repro.obs.trace` spans: per-stage rollups (self vs child time)
  and the critical path;
* :mod:`repro.obs.runreport` - the versioned RunReport JSON artifact one
  benchmark run emits (``python -m repro.bench <exp> --report-out``);
* :mod:`repro.obs.compare` - the exact gate between two RunReports
  (``python -m repro.obs compare baseline.json current.json``);
* :mod:`repro.obs.capture` - the GPU command-stream flight recorder and
  its deterministic replayer (``python -m repro.obs replay cap.jsonl``);
* :mod:`repro.obs.explain` - per-query EXPLAIN ANALYZE funnels over the
  filter/refine pipeline (``python -m repro.obs explain report.json``);
* :mod:`repro.obs.timeline` - Chrome trace-event export of span files
  with one lane per engine worker (``python -m repro.obs timeline trace.jsonl``);
* :mod:`repro.obs.window` - the rolling window (one epoch-aligned ring of
  those tables, exact retirement, injectable clock) for "happening now"
  telemetry the cumulative registry cannot express;
* :mod:`repro.obs.slo` - SLO objectives, error-budget burn rates over
  a fast and a slow ring, and the firing/resolved alert state machine whose
  transitions (``repro.obs/alerts@1``) land in a record log;
* :mod:`repro.obs.records` - the one bounded, counted, JSONL-exportable
  :class:`RecordLog` every retained record lives in (serve traces, slow
  queries, alerts, the flight recorder's events), and the one writer and
  :func:`read_jsonl`, the one reader, of every JSONL artifact.
"""

from .capture import (
    CAPTURE_SCHEMA,
    CommandRecorder,
    ReplayResult,
    load_capture,
    replay_capture,
    replay_events,
)
from .compare import Comparison, Finding, compare_reports
from .explain import (
    EXPLAIN_SCHEMA,
    QueryFunnel,
    funnels_from_snapshot,
    render_funnel,
    render_funnels,
    write_explain,
)
from .metrics import Histogram, MetricsRegistry
from .records import RecordLog, read_jsonl
from .report import TraceReport, analyze, load_spans, render_report
from .scope import (
    ObsScope,
    current_scope,
    use_recorder,
    use_registry,
    use_scope,
    use_tracer,
)
from .slo import (
    ALERTS_SCHEMA,
    SLOConfig,
    SLObjective,
    SLOTracker,
    default_objectives,
    load_alert_log,
)
from .window import WindowConfig
from .timeline import (
    TIMELINE_SCHEMA,
    summarize_timeline,
    timeline_from_spans,
    write_timeline,
)
from .runreport import (
    RUN_REPORT_SCHEMA,
    build_run_report,
    environment_fingerprint,
    experiment_entry,
    load_run_report,
    write_run_report,
)
from .trace import Span, Tracer, new_trace_id

__all__ = [
    "ALERTS_SCHEMA",
    "CAPTURE_SCHEMA",
    "CommandRecorder",
    "Comparison",
    "EXPLAIN_SCHEMA",
    "Finding",
    "Histogram",
    "MetricsRegistry",
    "ObsScope",
    "QueryFunnel",
    "RUN_REPORT_SCHEMA",
    "ReplayResult",
    "RecordLog",
    "SLOConfig",
    "SLObjective",
    "SLOTracker",
    "Span",
    "TIMELINE_SCHEMA",
    "TraceReport",
    "Tracer",
    "WindowConfig",
    "analyze",
    "build_run_report",
    "compare_reports",
    "current_scope",
    "default_objectives",
    "environment_fingerprint",
    "experiment_entry",
    "funnels_from_snapshot",
    "load_alert_log",
    "load_capture",
    "load_run_report",
    "load_spans",
    "new_trace_id",
    "read_jsonl",
    "render_funnel",
    "render_funnels",
    "render_report",
    "replay_capture",
    "replay_events",
    "summarize_timeline",
    "timeline_from_spans",
    "use_recorder",
    "use_registry",
    "use_scope",
    "use_tracer",
    "write_explain",
    "write_run_report",
    "write_timeline",
]
