"""Slow-query forensics: structured records for every request worth autopsy.

Service-wide histograms say *that* p99 regressed; they cannot say *why
this request* was slow.  The slow-query log captures, per offending
request, everything the per-stage cost analysis (paper Fig. 13) needs to
assign blame:

* the request and its terminal status (every ``shed``/``timeout``/``error``
  is logged regardless of latency - they are forensic events by
  definition; ``ok`` requests log when ``total_s`` exceeds the
  configured threshold);
* the latency split (queue wait vs execution vs total) and the admission
  queue depth observed at completion;
* the request's span tree (when tracing is on), its EXPLAIN funnel with
  the exact Fig-13 identities re-checked per record, the
  :class:`~repro.query.costs.CostBreakdown` stage seconds, and the
  request's own memo-table hits, misses and evictions.

Records are JSON lines (schema-tagged ``repro.serve/slowlog@1``) kept in
the service's :class:`~repro.obs.records.RecordLog`, which appends each
one to the ``--slowlog-out`` file as it arrives.
``python -m repro.serve slowlog FILE --top K`` summarizes a log offline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from ..obs.records import read_jsonl, schema_check

#: Version tag of one slowlog record (bump on incompatible change).
SLOWLOG_SCHEMA = "repro.serve/slowlog@1"


@dataclass(frozen=True)
class SlowLogConfig:
    """What the slow-query log captures and where it goes."""

    #: ``ok`` requests slower than this (seconds) are logged.  ``0.0``
    #: logs every request (useful for smoke runs); non-ok outcomes are
    #: always logged regardless.
    threshold_s: float = 0.25
    #: Append records to this JSONL path (``None`` = in-memory only).
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.threshold_s >= 0:
            raise ValueError(
                f"threshold_s must be >= 0, got {self.threshold_s}"
            )

    def should_log(self, status: str, total_s: float) -> bool:
        """Non-ok outcomes always; ok outcomes beyond the threshold."""
        return status != "ok" or total_s >= self.threshold_s


def build_record(
    request: Any,
    response: Any,
    *,
    spans: Sequence[Any] = (),
    execution: Optional[Any] = None,
    queue_depth: Optional[int] = None,
) -> Dict[str, Any]:
    """Assemble one slowlog record from the request's artifacts.

    ``request``/``response`` are the serve schema types; ``spans`` are
    the request's span dicts; ``execution`` is the request's
    :class:`~repro.serve.engine.Execution` (``None`` when it never ran):
    its :class:`~repro.query.costs.CostBreakdown`, its cache deltas and
    its run's :class:`~repro.obs.explain.QueryFunnel`, whose identity checks
    are re-run here and any violations stored - a slowlog whose funnels
    fail the Fig-13 identities is itself a bug report.
    """
    record: Dict[str, Any] = {
        "schema": SLOWLOG_SCHEMA,
        "logged_unix_s": time.time(),
        "trace_id": response.trace_id,
        "status": response.status,
        "op": response.op,
        "request": request.to_dict(),
        "wait_s": response.wait_s,
        "exec_s": response.exec_s,
        "total_s": response.total_s,
    }
    if response.worker is not None:
        record["worker"] = response.worker
    if response.error is not None:
        record["error"] = response.error
    if queue_depth is not None:
        record["queue_depth"] = queue_depth
    if spans:
        record["spans"] = list(spans)
        record["over_deadline_stages"] = sorted(
            {
                s["name"]
                for s in spans
                if (s.get("attributes") or {}).get("over_deadline")
            }
        )
    if execution is not None:
        if execution.run is not None:
            record["funnel"] = execution.run.funnel.to_dict()
            record["funnel_violations"] = execution.run.funnel.check()
        cost = execution.cost
        record["cost"] = {
            name: getattr(cost, name)
            for name in type(cost).__dataclass_fields__
        }
        record["cache_delta"] = execution.cache_delta
    return record


# -- offline analysis ---------------------------------------------------------


def load_slowlog(source: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Read slowlog records from a JSONL path or open text file."""
    return read_jsonl(source, schema_check("slowlog", SLOWLOG_SCHEMA))


def summarize_slowlog(
    records: Sequence[Dict[str, Any]], top: int = 5
) -> str:
    """Human summary: status/op breakdown plus the top-K slowest requests."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    if not records:
        return "slowlog: no records"
    by_status: Dict[str, int] = {}
    by_op: Dict[str, int] = {}
    violations = 0
    for r in records:
        by_status[r.get("status", "?")] = by_status.get(r.get("status", "?"), 0) + 1
        by_op[r.get("op", "?")] = by_op.get(r.get("op", "?"), 0) + 1
        if r.get("funnel_violations"):
            violations += 1
    lines = [
        f"slowlog: {len(records)} record(s)  "
        + "  ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
        + "  |  "
        + "  ".join(f"{k}={v}" for k, v in sorted(by_op.items()))
    ]
    if violations:
        lines.append(
            f"!! {violations} record(s) with funnel identity violations"
        )
    ranked = sorted(
        records, key=lambda r: r.get("total_s", 0.0), reverse=True
    )[:top]
    lines.append(f"== top {min(top, len(records))} by total_s ==")
    for rank, r in enumerate(ranked, start=1):
        wait = r.get("wait_s", 0.0)
        execute = r.get("exec_s", 0.0)
        total = r.get("total_s", 0.0)
        stages = ""
        cost = r.get("cost") or {}
        stage_parts = [
            f"{name[: -len('_s')]}={cost[name] * 1e3:.2f}ms"
            for name in ("mbr_filter_s", "intermediate_filter_s", "geometry_s")
            if cost.get(name)
        ]
        if stage_parts:
            stages = "  [" + " ".join(stage_parts) + "]"
        over = r.get("over_deadline_stages") or []
        lines.append(
            f"{rank}. trace={r.get('trace_id')} op={r.get('op')}"
            f" status={r.get('status')}"
            f" total={total * 1e3:.2f}ms"
            f" (wait {wait * 1e3:.2f}ms + exec {execute * 1e3:.2f}ms)"
            f" worker={r.get('worker', '-')}{stages}"
            + (f" over_deadline={','.join(over)}" if over else "")
            + (f" error={r.get('error')!r}" if r.get("error") else "")
        )
    return "\n".join(lines)


__all__ = [
    "SLOWLOG_SCHEMA",
    "SlowLogConfig",
    "build_record",
    "load_slowlog",
    "summarize_slowlog",
]
