"""repro.serve: a concurrent query service over the spatial engine.

The batch layers answer "how fast is one query"; this package answers
"how many concurrent clients can a process sustain, at what latency".
It is deliberately thin - persistent engines behind one admission gate +
accounting - because the serving determinism property requires that it
adds **no execution path of its own**: every response is bit-identical
to a direct engine call.

Layers (each its own module):

* :mod:`~repro.serve.schema` - versioned request/response wire types;
* :mod:`~repro.serve.engine` - the persistent per-worker engines, warm
  pipelines, and the pool that is the one admission gate (run on a free
  engine, wait in a bounded queue, or an explicit shed/timeout);
* :mod:`~repro.serve.service` - the thread-safe core gluing those
  together, accounting every request into the metrics registry and
  retaining per-request span trees when tracing is on;
* :mod:`~repro.serve.slowlog` - slow-query forensics records (span tree,
  EXPLAIN funnel, cost stages, cache deltas);
* :mod:`~repro.serve.health` - windowed per-op telemetry, SLO burn-rate
  alerting, worker heartbeats, and the ``health`` envelope verdict;
* :mod:`~repro.serve.server` - the asyncio TCP JSON-lines front-end;
* :mod:`~repro.serve.loadgen` - the open-loop load generator emitting
  RunReports for CI gating.
"""

from .engine import (
    AdmissionConfig,
    EnginePool,
    Execution,
    ServingEngine,
    ServingWorkload,
    WorkloadConfig,
)
from .loadgen import (
    DEFAULT_MIX,
    LoadAccountingError,
    LoadgenConfig,
    LoadResult,
    build_schedule,
    run_open_loop,
)
from .health import HealthConfig, ServiceHealth, build_health
from .schema import (
    HEALTH_SCHEMA,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    SERVE_OPS,
    STATUSES,
    QueryRequest,
    QueryResponse,
    canonical_results,
)
from .server import ServeFrontend, run_server, send_envelope
from .service import QueryService
from .slowlog import SLOWLOG_SCHEMA, SlowLogConfig, build_record

__all__ = [
    "AdmissionConfig",
    "DEFAULT_MIX",
    "EnginePool",
    "Execution",
    "HEALTH_SCHEMA",
    "HealthConfig",
    "LoadAccountingError",
    "LoadResult",
    "LoadgenConfig",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "SERVE_OPS",
    "SLOWLOG_SCHEMA",
    "STATUSES",
    "ServeFrontend",
    "ServiceHealth",
    "ServingEngine",
    "ServingWorkload",
    "SlowLogConfig",
    "WorkloadConfig",
    "build_health",
    "build_record",
    "build_schedule",
    "canonical_results",
    "run_open_loop",
    "run_server",
    "send_envelope",
]
