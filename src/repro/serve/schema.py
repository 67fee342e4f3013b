"""Typed request/response schema of the query service.

The wire format is deliberately tiny and versioned: one JSON object per
request, one per response, schema-tagged so a client and a server that
disagree fail loudly instead of mis-parsing each other.  Three query kinds
map onto the paper's three query classes (the pipelines of
:mod:`repro.query`):

* ``selection`` - intersection selection of one query polygon (addressed
  by index into the server's resident query set, the STATES50 boundaries)
  against the resident data layer;
* ``join`` - the resident intersection join (dataset |><| dataset);
* ``within_distance`` - the resident within-distance join at a
  client-chosen distance ``D``.

Responses carry a ``status`` that is always explicit: ``ok`` (results
attached), ``shed`` (admission control refused the request - the queue was
full), ``timeout`` (the request waited longer than the admission deadline
and was never executed), or ``error`` (validation or execution failure,
with the message).  A loaded server never drops a request silently; that
property is what the sustained-load gate in CI asserts.

Result payloads are **canonical**: selection results are sorted dataset
indexes, join results are sorted ``[i, j]`` index lists - exactly what the
underlying pipelines return, so a response is bit-comparable to a direct
engine call (the serving determinism property test relies on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

#: Version tags of the wire schemas (bump on incompatible change).
REQUEST_SCHEMA = "repro.serve/request@1"
RESPONSE_SCHEMA = "repro.serve/response@1"
#: The ``health`` envelope body (built by :mod:`repro.serve.health`):
#: ready/degraded verdict, queue depth, inflight, per-op windowed
#: latency summaries, SLO burn rates, firing alerts, worker heartbeats.
HEALTH_SCHEMA = "repro.serve/health@1"

#: The query kinds the service executes.
SERVE_OPS = ("selection", "join", "within_distance")

#: Terminal request outcomes.
STATUSES = ("ok", "shed", "timeout", "error")


@dataclass(frozen=True)
class QueryRequest:
    """One client query against the resident serving workload."""

    op: str
    #: Selection only: index into the server's resident query set.
    query_index: Optional[int] = None
    #: Within-distance only: the join distance ``D`` (>= 0).
    distance: Optional[float] = None
    #: Optional client-chosen correlation id, echoed on the response.
    request_id: Optional[str] = None
    #: Optional client-supplied distributed-tracing id.  When the service
    #: runs with tracing enabled it adopts this id (or mints one when
    #: absent) and echoes it on the response, so a client can join its own
    #: spans with the server-side trace.
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.op not in SERVE_OPS:
            raise ValueError(
                f"unknown op {self.op!r}; expected one of {SERVE_OPS}"
            )
        if self.op == "selection":
            # type(), not isinstance(): JSON true would pass as index 1.
            if type(self.query_index) is not int or self.query_index < 0:
                raise ValueError(
                    "selection requires an integer query_index >= 0 "
                    f"(got {self.query_index!r})"
                )
        elif self.query_index is not None:
            raise ValueError(f"op {self.op!r} does not take query_index")
        if self.op == "within_distance":
            if type(self.distance) not in (int, float) or not self.distance >= 0.0:
                raise ValueError(
                    "within_distance requires a numeric distance >= 0 "
                    f"(got {self.distance!r})"
                )
        elif self.distance is not None:
            raise ValueError(f"op {self.op!r} does not take distance")
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise ValueError(
                f"trace_id must be a string, got {self.trace_id!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"schema": REQUEST_SCHEMA, "op": self.op}
        if self.query_index is not None:
            out["query_index"] = self.query_index
        if self.distance is not None:
            out["distance"] = self.distance
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryRequest":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"request must be a JSON object, got {type(data).__name__}"
            )
        schema = data.get("schema", REQUEST_SCHEMA)
        if schema != REQUEST_SCHEMA:
            raise ValueError(
                f"unsupported request schema {schema!r};"
                f" expected {REQUEST_SCHEMA!r}"
            )
        known = {"schema", "op", "query_index", "distance", "request_id", "trace_id"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request field(s) {sorted(unknown)}")
        if "op" not in data:
            raise ValueError("request is missing 'op'")
        return cls(
            op=data["op"],
            query_index=data.get("query_index"),
            distance=data.get("distance"),
            request_id=data.get("request_id"),
            trace_id=data.get("trace_id"),
        )


@dataclass
class QueryResponse:
    """The service's answer to one :class:`QueryRequest`."""

    status: str
    op: str
    #: Canonical result payload (``None`` unless ``status == "ok"``):
    #: sorted ids for selections, sorted ``[i, j]`` lists for joins.
    results: Optional[List[Any]] = None
    request_id: Optional[str] = None
    #: Which pool engine served the request (``None`` if never executed).
    worker: Optional[int] = None
    #: Seconds spent waiting for an engine (admission queue).
    wait_s: float = 0.0
    #: Seconds spent executing the query pipeline.
    exec_s: float = 0.0
    #: Total seconds in the system (wait + execute + bookkeeping).
    total_s: float = 0.0
    error: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Server-side trace id of this request (set whenever the service ran
    #: with tracing or slow-query forensics enabled): the key joining the
    #: response to its span tree, timeline lanes, and slowlog record.
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; expected one of {STATUSES}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def result_count(self) -> Optional[int]:
        return len(self.results) if self.results is not None else None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": RESPONSE_SCHEMA,
            "status": self.status,
            "op": self.op,
            "wait_s": self.wait_s,
            "exec_s": self.exec_s,
            "total_s": self.total_s,
        }
        if self.results is not None:
            out["results"] = canonical_results(self.results)
            out["result_count"] = len(self.results)
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.worker is not None:
            out["worker"] = self.worker
        if self.error is not None:
            out["error"] = self.error
        if self.attributes:
            out["attributes"] = self.attributes
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResponse":
        schema = data.get("schema", RESPONSE_SCHEMA)
        if schema != RESPONSE_SCHEMA:
            raise ValueError(
                f"unsupported response schema {schema!r};"
                f" expected {RESPONSE_SCHEMA!r}"
            )
        return cls(
            status=data["status"],
            op=data["op"],
            results=data.get("results"),
            request_id=data.get("request_id"),
            worker=data.get("worker"),
            wait_s=data.get("wait_s", 0.0),
            exec_s=data.get("exec_s", 0.0),
            total_s=data.get("total_s", 0.0),
            error=data.get("error"),
            attributes=dict(data.get("attributes", {})),
            trace_id=data.get("trace_id"),
        )


def canonical_results(results: List[Any]) -> List[Any]:
    """JSON-canonical form of a result payload.

    Join pipelines return ``(i, j)`` tuples; JSON has no tuples, so the
    canonical wire form is nested lists.  Selections (plain ints) pass
    through.  Comparing ``canonical_results(direct_run)`` against a
    response's ``results`` is the serving bit-identity check.
    """
    return [list(r) if isinstance(r, tuple) else r for r in results]


__all__ = [
    "HEALTH_SCHEMA",
    "QueryRequest",
    "QueryResponse",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "SERVE_OPS",
    "STATUSES",
    "canonical_results",
]
