"""Chrome trace-event export: span files become ``chrome://tracing`` timelines.

The 3DPipe-style pipelining planned for the raster stages (ROADMAP item 2)
and the serve-layer concurrency work both need *stage-overlap* visibility:
which spans ran when, and on which engine worker.  Rollup tables
(:mod:`repro.obs.report`) answer "how much"; a timeline answers "when and
beside what".

This module converts the span JSONL written by :mod:`repro.obs.trace`
(one span object per line - benchmark ``--trace-out`` files and the
serving layer's per-request trace export alike) into the Chrome
trace-event ("catapult") JSON format, loadable by ``chrome://tracing`` or
https://ui.perfetto.dev:

* each **engine worker** becomes a process lane (``pid``), resolved from
  the root span's ``worker`` attribute (the serving layer stamps it on
  every request root); spans from traces without worker attribution share
  one ``main`` lane, so batch benchmark traces work too;
* within a worker, the request/stage spans ride one thread lane
  (``requests``), nested by their parent links;
* span attributes and the ``trace_id`` ride in ``args``, so clicking a
  bar shows the request it belonged to.

Timestamps are exported relative to the earliest span start (microseconds,
the unit the format requires); the absolute anchor is kept in the
document's ``metadata``.

Exposed on the command line as ``python -m repro.obs timeline trace.jsonl
--out timeline.json``.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Union

from .report import SpanNode, build_tree, load_spans

#: Version tag stored in the document metadata (the trace-event format
#: itself is fixed by Chrome; this tags our lane-mapping conventions).
TIMELINE_SCHEMA = "repro.obs/timeline@1"

#: Process lane used by spans without worker attribution.
DEFAULT_PROCESS = "main"


def _lane_label(root: SpanNode) -> str:
    """The process-lane label of one span tree (engine worker or main)."""
    attrs = root.span.get("attributes") or {}
    worker = attrs.get("worker")
    if worker is None:
        return DEFAULT_PROCESS
    return f"engine worker {worker}"


def _span_args(span: Dict[str, Any]) -> Dict[str, Any]:
    args: Dict[str, Any] = dict(span.get("attributes") or {})
    trace_id = span.get("trace_id")
    if trace_id is not None:
        args["trace_id"] = trace_id
    args["span_id"] = span.get("span_id")
    return args


def timeline_from_spans(spans: Iterable[Any]) -> Dict[str, Any]:
    """Convert spans (dicts or live Span objects) to a trace-event document.

    Returns the complete catapult JSON document (``traceEvents`` +
    ``displayTimeUnit`` + ``metadata``); :func:`write_timeline` serializes
    it.  Raises :class:`ValueError` when no spans are given (an empty
    timeline is always a caller bug).
    """
    report = build_tree(spans)
    if not report.roots:
        raise ValueError("no spans to export")

    t0 = min(
        float(node.span.get("start_unix_s", 0.0))
        for node in _walk_all(report.roots)
    )

    pids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []

    def pid_for(label: str) -> int:
        if label not in pids:
            pids[label] = len(pids) + 1
        return pids[label]

    def emit(node: SpanNode, pid: int) -> None:
        span = node.span
        attrs = span.get("attributes") or {}
        events.append(
            {
                "name": span.get("name", "(unnamed)"),
                "cat": str(attrs.get("kind", "span")),
                "ph": "X",
                "ts": (float(span.get("start_unix_s", t0)) - t0) * 1e6,
                "dur": float(span.get("duration_s", 0.0)) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": _span_args(span),
            }
        )
        for child in node.children:
            emit(child, pid)

    for root in report.roots:
        emit(root, pid_for(_lane_label(root)))

    meta_events: List[Dict[str, Any]] = []
    for label, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        meta_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
        )
        meta_events.append(
            {"name": "process_sort_index", "ph": "M", "pid": pid, "args": {"sort_index": pid}}
        )
    for pid in sorted(pids.values()):
        meta_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "requests"},
            }
        )
        meta_events.append(
            {"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": 0, "args": {"sort_index": 0}}
        )

    return {
        "traceEvents": meta_events + events,
        "displayTimeUnit": "ms",
        "metadata": {
            "schema": TIMELINE_SCHEMA,
            "start_unix_s": t0,
            "spans": len(events),
            "processes": len(pids),
            "orphans": report.orphans,
        },
    }


def _walk_all(roots: List[SpanNode]) -> Iterable[SpanNode]:
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def write_timeline(
    target: Union[str, IO[str]], spans: Iterable[Any]
) -> Dict[str, Any]:
    """Convert ``spans`` and write the catapult JSON to ``target``.

    ``spans`` may be a path to a span JSONL file, an iterable of span
    dicts, or live :class:`~repro.obs.trace.Span` objects.  Returns the
    document that was written.
    """
    if isinstance(spans, str):
        spans = load_spans(spans)
    doc = timeline_from_spans(spans)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    else:
        json.dump(doc, target, indent=1, sort_keys=True)
        target.write("\n")
    return doc


def summarize_timeline(doc: Dict[str, Any]) -> str:
    """One-line human summary of an exported timeline document."""
    meta = doc.get("metadata", {})
    complete = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    span_ms = sum(e.get("dur", 0.0) for e in complete) / 1e3
    return (
        f"timeline: {len(complete)} spans across {meta.get('processes', '?')} "
        f"process lane(s), {span_ms:.3f} ms of span time"
        + (f", {meta['orphans']} orphan(s)" if meta.get("orphans") else "")
    )


__all__ = [
    "DEFAULT_PROCESS",
    "TIMELINE_SCHEMA",
    "summarize_timeline",
    "timeline_from_spans",
    "write_timeline",
]
