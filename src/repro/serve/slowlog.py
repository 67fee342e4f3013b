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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

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


__all__ = [
    "SLOWLOG_SCHEMA",
    "SlowLogConfig",
    "build_record",
]
