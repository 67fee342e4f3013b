"""Windowed-health overhead budget: windowed-on <= 110% of windowed-off.

Not a paper figure: this benchmark gates the serving layer's "happening
now" telemetry cost.  The windowed per-op families and SLO burn-rate
tracker ride every submit; if they tax the hot path they defeat the
zero-overhead-when-off design, so CI enforces the budget - windowed
health may add at most 10% to the wall time of an identical request
sequence (plus a small absolute floor so micro-second-scale
tiny-workload noise cannot fail the gate spuriously).

Also asserts the stronger invariant the budget rides on: windowing must
be *observation only* - responses are bit-identical with health tracking
off and on.
"""

import time

from repro.serve import (
    HealthConfig,
    QueryRequest,
    QueryService,
    WorkloadConfig,
)

#: Relative overhead budget (0.10 = +10%).
OVERHEAD_BUDGET = 0.10
#: Absolute floor (seconds) absorbing scheduler noise on tiny passes.
OVERHEAD_FLOOR_S = 0.05

REQUESTS_PER_PASS = 24
ALTERNATING_REPEATS = 5


def _frozen_clock() -> float:
    """A clock that never moves: every request stays in the window."""
    return 0.0


def _build(windowed: bool) -> QueryService:
    return QueryService(
        workload=WorkloadConfig(scale="tiny"),
        workers=1,
        warm=True,
        health=HealthConfig(clock=_frozen_clock) if windowed else None,
    )


def _requests(service: QueryService):
    n = len(service.workload.queries)
    return [
        QueryRequest(op="selection", query_index=i % n)
        for i in range(REQUESTS_PER_PASS)
    ]


def _run_pass(service: QueryService, requests):
    start = time.perf_counter()
    responses = [service.submit(r) for r in requests]
    elapsed = time.perf_counter() - start
    assert all(r.status == "ok" for r in responses)
    return elapsed, [r.results for r in responses]


def _measure():
    off = _build(windowed=False)
    on = _build(windowed=True)
    try:
        requests = _requests(off)
        # One throwaway pass per service beyond construction-time warm, so
        # first-touch costs (cache fills, allocator growth) hit neither
        # measured side.
        _run_pass(off, requests)
        _run_pass(on, requests)
        off_times, on_times = [], []
        results_off = results_on = None
        # Alternate passes and take the min per config: host noise hits
        # both sides evenly and the minima are the comparable quantity.
        for _ in range(ALTERNATING_REPEATS):
            t, results_off = _run_pass(off, requests)
            off_times.append(t)
            t, results_on = _run_pass(on, requests)
            on_times.append(t)
        # The windowed layer must have observed every request (under the
        # frozen clock its counters' totals span the whole run)...
        windowed_seen = sum(
            v["total"]
            for k, v in on.health()["window"]["counters"].items()
            if k.startswith("serve_window_requests{")
        )
        served = sum(
            v
            for k, v in on.metrics_snapshot()["counters"].items()
            if k.startswith("serve_requests{")
        )
        assert windowed_seen == served
        # ...and the off side must carry no windowed families at all.
        assert not any(
            "window" in k for k in off.metrics_snapshot()["counters"]
        )
        return min(off_times), min(on_times), results_off, results_on
    finally:
        off.close()
        on.close()


def test_window_overhead_budget():
    off_s, on_s, results_off, results_on = _measure()
    assert results_on == results_off, (
        "windowed health must be observation-only: responses diverged"
    )
    limit = off_s * (1.0 + OVERHEAD_BUDGET) + OVERHEAD_FLOOR_S
    assert on_s <= limit, (
        f"windowed-health overhead budget exceeded: windowed-off {off_s:.4f}s,"
        f" windowed-on {on_s:.4f}s, limit {limit:.4f}s"
        f" (budget {OVERHEAD_BUDGET:.0%} + {OVERHEAD_FLOOR_S}s floor)"
    )
