"""Trace-tree analysis: per-stage rollups and the critical path.

:mod:`repro.obs.trace` collects spans as a flat list (live) or as JSON
lines (exported).  This module rebuilds the parent tree and answers the
questions the paper's per-stage cost figures ask of a run:

* **rollups** - per span name: call count, total time, *self* time (total
  minus direct children) and child time.  Self time is what the stage
  itself cost; a stage whose children carry nearly all its time is pure
  orchestration.  Self time is reported as measured, never clamped;
* **critical path** - from the heaviest root down through the heaviest
  child at each level: the chain of spans an optimizer must shorten to
  shorten the run.

Exposed on the command line as ``python -m repro.obs report trace.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Any, Dict, Iterable, List, Optional, Sequence, Union

from .records import read_jsonl

SpanDict = Dict[str, Any]

_REQUIRED_SPAN_KEYS = ("span_id", "name", "duration_s")


def _span_problem(span: Any) -> Optional[str]:
    if not isinstance(span, dict):
        return "span is not a JSON object"
    missing = [k for k in _REQUIRED_SPAN_KEYS if k not in span]
    return f"span missing keys {missing}" if missing else None


def load_spans(source: Union[str, IO[str]]) -> List[SpanDict]:
    """Read spans from a JSON-lines file (path or open text file)."""
    return read_jsonl(source, _span_problem)


def _as_dicts(spans: Iterable[Any]) -> List[SpanDict]:
    """Accept Span objects (live tracer) or plain dicts (JSONL)."""
    out: List[SpanDict] = []
    for span in spans:
        out.append(span if isinstance(span, dict) else span.to_dict())
    return out


@dataclass
class SpanNode:
    """One span with its resolved children."""

    span: SpanDict
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.span["name"]

    @property
    def duration_s(self) -> float:
        return float(self.span["duration_s"])

    @property
    def child_s(self) -> float:
        return sum(c.duration_s for c in self.children)

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


@dataclass
class NameRollup:
    """Aggregate of every span sharing one name."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    child_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, node: SpanNode) -> None:
        d = node.duration_s
        self.calls += 1
        self.total_s += d
        self.self_s += node.self_s
        self.child_s += node.child_s
        self.min_s = min(self.min_s, d)
        self.max_s = max(self.max_s, d)


@dataclass
class TraceReport:
    """The rebuilt tree plus its aggregates."""

    roots: List[SpanNode]
    rollups: List[NameRollup]
    critical_path: List[SpanNode]
    orphans: int = 0

    @property
    def total_s(self) -> float:
        return sum(r.duration_s for r in self.roots)


def build_tree(spans: Iterable[Any]) -> TraceReport:
    """Rebuild the span tree and compute rollups and the critical path.

    Spans whose ``parent_id`` never appears (e.g. a truncated export) are
    promoted to roots and counted in ``orphans``.
    """
    dicts = _as_dicts(spans)
    nodes: Dict[Any, SpanNode] = {s["span_id"]: SpanNode(s) for s in dicts}
    roots: List[SpanNode] = []
    orphans = 0
    for s in dicts:
        node = nodes[s["span_id"]]
        parent_id = s.get("parent_id")
        if parent_id is None:
            roots.append(node)
        elif parent_id in nodes:
            nodes[parent_id].children.append(node)
        else:
            orphans += 1
            roots.append(node)

    by_name: Dict[str, NameRollup] = {}
    for node in nodes.values():
        by_name.setdefault(node.name, NameRollup(node.name)).add(node)
    rollups = sorted(by_name.values(), key=lambda r: r.total_s, reverse=True)

    critical: List[SpanNode] = []
    if roots:
        cursor = max(roots, key=lambda n: n.duration_s)
        critical.append(cursor)
        while cursor.children:
            cursor = max(cursor.children, key=lambda n: n.duration_s)
            critical.append(cursor)
    return TraceReport(
        roots=roots, rollups=rollups, critical_path=critical, orphans=orphans
    )


def analyze(source: Union[str, IO[str], Iterable[Any]]) -> TraceReport:
    """Load (if needed) and analyze spans from a path, file, or span list."""
    if isinstance(source, str) or hasattr(source, "read"):
        return build_tree(load_spans(source))  # type: ignore[arg-type]
    return build_tree(source)


# -- rendering ---------------------------------------------------------------


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.3f}"


def render_rollups(report: TraceReport, limit: Optional[int] = None) -> str:
    """The per-stage rollup table, heaviest total first."""
    rows = [
        (
            r.name,
            str(r.calls),
            _ms(r.total_s),
            _ms(r.self_s),
            _ms(r.child_s),
            _ms(r.min_s if r.calls else 0.0),
            _ms(r.max_s),
        )
        for r in report.rollups[:limit]
    ]
    header = ("name", "calls", "total_ms", "self_ms", "child_ms", "min_ms", "max_ms")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


#: Children shown under each node of :func:`render_tree`; the rest are
#: summed on one line.
_TREE_CHILDREN = 8


def render_tree(report: TraceReport) -> str:
    """An indented tree of the heaviest spans (children sorted by time)."""
    lines: List[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        indent = "  " * depth
        attrs = node.span.get("attributes") or {}
        suffix = (
            " [" + ", ".join(f"{k}={v}" for k, v in attrs.items()) + "]"
            if attrs
            else ""
        )
        lines.append(
            f"{indent}{node.name}  {_ms(node.duration_s)} ms"
            f" (self {_ms(node.self_s)} ms){suffix}"
        )
        ordered = sorted(node.children, key=lambda n: n.duration_s, reverse=True)
        for child in ordered[:_TREE_CHILDREN]:
            walk(child, depth + 1)
        hidden = len(ordered) - _TREE_CHILDREN
        if hidden > 0:
            rest = sum(n.duration_s for n in ordered[_TREE_CHILDREN:])
            lines.append(
                f"{'  ' * (depth + 1)}... {hidden} more children"
                f" ({_ms(rest)} ms)"
            )

    for root in sorted(report.roots, key=lambda n: n.duration_s, reverse=True):
        walk(root, 0)
    return "\n".join(lines)


def render_top_self(report: TraceReport, n: int) -> str:
    """The ``n`` heaviest span names by **self** time (not total).

    Total time double-counts parents of expensive children; self time is
    where the run actually burned its cycles, which is what keeps rollups
    readable on serve-scale traces (thousands of request trees): the top
    table points straight at the stage to optimize.
    """
    if n < 1:
        raise ValueError(f"top must be >= 1, got {n}")
    ranked = sorted(report.rollups, key=lambda r: r.self_s, reverse=True)[:n]
    total_self = sum(r.self_s for r in report.rollups) or 1.0
    lines = []
    for rank, r in enumerate(ranked, start=1):
        lines.append(
            f"{rank}. {r.name}  self {_ms(r.self_s)} ms"
            f" ({r.self_s / total_self:.0%} of self time,"
            f" {r.calls} call(s), total {_ms(r.total_s)} ms)"
        )
    return "\n".join(lines) if lines else "(no spans)"


def render_critical_path(report: TraceReport) -> str:
    """The heaviest root-to-leaf chain, one hop per line."""
    lines = []
    for node in report.critical_path:
        share = (
            node.duration_s / report.critical_path[0].duration_s
            if report.critical_path[0].duration_s
            else 0.0
        )
        lines.append(
            f"{node.name}  {_ms(node.duration_s)} ms  ({share:.0%} of root)"
        )
    return " ->\n".join(lines) if lines else "(no spans)"


def render_report(
    report: TraceReport,
    tree: bool = False,
    limit: Optional[int] = None,
    top: Optional[int] = None,
) -> str:
    """The full text report (rollups + critical path, optionally the tree)."""
    sections: List[str] = []
    sections.append(
        f"spans: {sum(r.calls for r in report.rollups)}"
        f"  roots: {len(report.roots)}  root total: {_ms(report.total_s)} ms"
        + (f"  orphans: {report.orphans}" if report.orphans else "")
    )
    if top is not None:
        sections.append(f"== top {top} by self time ==")
        sections.append(render_top_self(report, top))
    sections.append("== per-stage rollup ==")
    sections.append(render_rollups(report, limit=limit))
    sections.append("== critical path ==")
    sections.append(render_critical_path(report))
    if tree:
        sections.append("== span tree ==")
        sections.append(render_tree(report))
    return "\n".join(sections)


__all__: Sequence[str] = (
    "NameRollup",
    "SpanNode",
    "TraceReport",
    "analyze",
    "build_tree",
    "load_spans",
    "render_critical_path",
    "render_report",
    "render_rollups",
    "render_top_self",
    "render_tree",
)
