"""Load generator: the open-loop arrival process.

Requests arrive on a fixed schedule (``rate`` per second for
``duration_s``) regardless of how the server is doing, the way real
traffic does (:func:`run_open_loop`).  The schedule is built **before**
the run from a seeded RNG, so two runs with the same config issue the
byte-identical request sequence - which is what lets CI gate the
resulting RunReport's counters exactly.  The complementary closed loop
(each client keeps exactly one request outstanding, driven to
saturation) is not here: ``benchmarks/perf/served.py`` drives it from
outside the process, over the real socket, as the ``serve-sel`` workload.

The runner enforces the accounting invariant the service promises:
**every scheduled request yields exactly one terminal response** -
``ok + shed + timeout + error == scheduled``.  A violation raises
:class:`LoadAccountingError` instead of being quietly summarized; "zero
dropped-then-unreported requests" is an acceptance criterion, not a
best-effort stat.

Results are packaged the same way the benchmark drivers package theirs -
an :class:`~repro.bench.result.ExperimentResult` plus the service's
metrics snapshot, folded into a versioned RunReport - so
``python -m repro.obs compare`` gates a serving run's counts with the
machinery that already gates the batch benchmarks.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..bench.result import ExperimentResult
from ..obs.runreport import (
    build_run_report,
    environment_fingerprint,
    experiment_entry,
)
from .schema import QueryRequest, QueryResponse
from .service import QueryService

#: The op mix every schedule draws from: selections dominate (they are the
#: cheap, frequent query class), joins are occasional, within-distance is
#: rare and heavy.
DEFAULT_MIX: Mapping[str, float] = {
    "selection": 0.80,
    "join": 0.15,
    "within_distance": 0.05,
}

#: Distance multipliers (of the workload's base distance) a generated
#: within-distance request draws from.
DISTANCE_FACTORS: Tuple[float, ...] = (0.5, 1.0, 2.0)

#: Upper bound on the client threads (they are sized to the service's
#: capacity below it).
MAX_CLIENT_THREADS = 256


class LoadAccountingError(RuntimeError):
    """A scheduled request did not come back as exactly one response."""


@dataclass(frozen=True)
class LoadgenConfig:
    """One open-loop run: a fixed-rate arrival schedule."""

    #: Arrivals per second (fixed; the server's speed never changes it).
    rate: float = 8.0
    #: Schedule length in seconds; ``round(rate * duration_s)`` requests.
    duration_s: float = 10.0
    #: RNG seed for the op/parameter draw (same seed = same schedule).
    seed: int = 2003

    def __post_init__(self) -> None:
        for name in ("rate", "duration_s"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def request_count(self) -> int:
        return max(1, round(self.rate * self.duration_s))


@dataclass(frozen=True)
class ScheduledRequest:
    """One arrival: when (relative to run start) and what."""

    offset_s: float
    request: QueryRequest


def build_schedule(
    workload: Any, config: LoadgenConfig
) -> List[ScheduledRequest]:
    """The full arrival schedule, materialized before the run starts.

    ``workload`` is the service's :class:`~repro.serve.engine.ServingWorkload`
    (duck-typed on ``queries`` and ``base_distance``); request parameters
    are drawn from it so every generated request is valid against the
    resident data.
    """
    rng = random.Random(config.seed)
    ops = list(DEFAULT_MIX)
    weights = list(DEFAULT_MIX.values())
    n = config.request_count
    schedule: List[ScheduledRequest] = []
    for i in range(n):
        op = rng.choices(ops, weights=weights, k=1)[0]
        query_index = None
        distance = None
        if op == "selection":
            query_index = rng.randrange(len(workload.queries))
        elif op == "within_distance":
            distance = workload.base_distance * rng.choice(DISTANCE_FACTORS)
        schedule.append(
            ScheduledRequest(
                offset_s=i / config.rate,
                request=QueryRequest(
                    op=op,
                    query_index=query_index,
                    distance=distance,
                    request_id=f"r{i:06d}",
                ),
            )
        )
    return schedule


# -- aggregation -------------------------------------------------------------


def exact_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Exact q-quantile of an already-sorted sample (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class OpStats:
    """Per-op outcome counts and exact latency percentiles."""

    op: str
    scheduled: int = 0
    ok: int = 0
    shed: int = 0
    timeout: int = 0
    error: int = 0
    latencies_s: List[float] = field(default_factory=list)

    def row(self) -> Tuple[Any, ...]:
        lat = sorted(self.latencies_s)
        return (
            self.op,
            self.scheduled,
            self.ok,
            self.shed,
            self.timeout,
            self.error,
            exact_quantile(lat, 0.50) * 1e3,
            exact_quantile(lat, 0.95) * 1e3,
            exact_quantile(lat, 0.99) * 1e3,
            (sum(lat) / len(lat) * 1e3) if lat else 0.0,
        )


OP_COLUMNS = (
    "op",
    "scheduled",
    "ok",
    "shed",
    "timeout",
    "error",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_ms",
)


def _account(
    scheduled_ops: Sequence[str], responses: Sequence[QueryResponse]
) -> Dict[str, OpStats]:
    """Fold responses into per-op stats; enforce the accounting invariant."""
    if len(responses) != len(scheduled_ops):
        raise LoadAccountingError(
            f"{len(scheduled_ops)} request(s) scheduled but "
            f"{len(responses)} response(s) returned"
        )
    stats: Dict[str, OpStats] = {}
    for op in scheduled_ops:
        stats.setdefault(op, OpStats(op)).scheduled += 1
    for response in responses:
        entry = stats.get(response.op)
        if entry is None:
            raise LoadAccountingError(
                f"response for op {response.op!r} was never scheduled"
            )
        if response.status == "ok":
            entry.ok += 1
            entry.latencies_s.append(response.total_s)
        elif response.status == "shed":
            entry.shed += 1
        elif response.status == "timeout":
            entry.timeout += 1
        else:
            entry.error += 1
    for entry in stats.values():
        reported = entry.ok + entry.shed + entry.timeout + entry.error
        if reported != entry.scheduled:
            raise LoadAccountingError(
                f"op {entry.op!r}: {entry.scheduled} scheduled but only "
                f"{reported} reported (ok={entry.ok} shed={entry.shed} "
                f"timeout={entry.timeout} error={entry.error})"
            )
    return stats


@dataclass
class LoadResult:
    """Everything one load run produced."""

    result: ExperimentResult
    responses: List[QueryResponse]
    stats: Dict[str, OpStats]
    wall_s: float
    metrics_snapshot: Dict[str, Any]

    @property
    def status_counts(self) -> Dict[str, int]:
        out = {"ok": 0, "shed": 0, "timeout": 0, "error": 0}
        for entry in self.stats.values():
            out["ok"] += entry.ok
            out["shed"] += entry.shed
            out["timeout"] += entry.timeout
            out["error"] += entry.error
        return out

    def run_report(self, scale: Optional[str] = None) -> Dict[str, Any]:
        """The versioned RunReport artifact for ``repro.obs compare``."""
        entry = experiment_entry(self.result, self.metrics_snapshot, self.wall_s)
        return build_run_report(
            [entry],
            scale=scale,
            environment=environment_fingerprint(scale=scale),
        )


# -- open loop ---------------------------------------------------------------


def run_open_loop(
    service: QueryService,
    config: Optional[LoadgenConfig] = None,
) -> LoadResult:
    """Drive the service with a fixed-arrival-rate schedule.

    The pacing loop sleeps until each arrival's scheduled offset and
    dispatches it to a client thread; a slow server therefore accumulates
    in-flight requests (and eventually sheds) instead of slowing the
    arrival process down - the defining property of open-loop load.
    """
    config = config if config is not None else LoadgenConfig()
    schedule = build_schedule(service.workload, config)
    workers = max(1, min(len(schedule), service.capacity, MAX_CLIENT_THREADS))
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = []
        for item in schedule:
            delay = (start + item.offset_s) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(service.submit, item.request))
        responses = [f.result() for f in futures]
    wall_s = time.perf_counter() - start

    stats = _account([item.request.op for item in schedule], responses)
    rows = [stats[op].row() for op in sorted(stats)]
    attained = len(schedule) / wall_s if wall_s > 0 else 0.0
    result = ExperimentResult(
        experiment_id="serve-open-loop",
        title="Open-loop serving: fixed-rate arrivals against repro.serve",
        params={
            "scale": service.workload_config.scale,
            "engine": "hardware",
            "workers": service.pool.size,
            "max_queue": service.admission_config.max_queue,
            "timeout_s": service.admission_config.timeout_s,
            "rate_rps": config.rate,
            "duration_s": config.duration_s,
            "seed": config.seed,
            "requests": len(schedule),
            "attained_rps": attained,
        },
        columns=OP_COLUMNS,
        rows=rows,
        paper_expectation=(
            "the hardware filter keeps per-query latency low enough that a "
            "small engine pool sustains the offered rate with no sheds"
        ),
    )
    return LoadResult(
        result=result,
        responses=responses,
        stats=stats,
        wall_s=wall_s,
        metrics_snapshot=service.metrics_snapshot(),
    )


__all__ = [
    "DEFAULT_MIX",
    "DISTANCE_FACTORS",
    "LoadAccountingError",
    "LoadResult",
    "LoadgenConfig",
    "MAX_CLIENT_THREADS",
    "OpStats",
    "OP_COLUMNS",
    "ScheduledRequest",
    "build_schedule",
    "exact_quantile",
    "run_open_loop",
]
