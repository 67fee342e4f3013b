"""Per-request tracing overhead budget: tracing-on <= 110% of tracing-off.

Not a paper figure: this benchmark gates the serving layer's observability
cost.  Tracing exists to find slow requests; if it makes every request
slow it defeats itself, so CI enforces the budget the design promises -
per-request tracers plus slow-query forensics may add at most 10% to the
wall time of an identical request sequence (plus a small absolute floor so
micro-second-scale tiny-workload noise cannot fail the gate spuriously).

Also asserts the stronger invariant the budget rides on: tracing must be
*observation only* - responses are bit-identical with tracing off, on,
and on-with-slowlog.
"""

import time

from repro.serve import QueryRequest, QueryService, SlowLogConfig, WorkloadConfig

#: Relative overhead budget (0.10 = +10%).
OVERHEAD_BUDGET = 0.10
#: Absolute floor (seconds) absorbing scheduler noise on tiny passes.
OVERHEAD_FLOOR_S = 0.05

REQUESTS_PER_PASS = 24
ALTERNATING_REPEATS = 5


def _build(tracing: bool, slowlog: bool) -> QueryService:
    return QueryService(
        workload=WorkloadConfig(scale="tiny"),
        workers=1,
        warm=True,
        trace=tracing,
        slowlog=SlowLogConfig(threshold_s=1e9) if slowlog else None,
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
    off = _build(tracing=False, slowlog=False)
    on = _build(tracing=True, slowlog=True)
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
        return min(off_times), min(on_times), results_off, results_on
    finally:
        off.close()
        on.close()


def test_trace_overhead_budget():
    off_s, on_s, results_off, results_on = _measure()
    assert results_on == results_off, (
        "tracing must be observation-only: responses diverged"
    )
    limit = off_s * (1.0 + OVERHEAD_BUDGET) + OVERHEAD_FLOOR_S
    assert on_s <= limit, (
        f"tracing overhead budget exceeded: tracing-off {off_s:.4f}s,"
        f" tracing-on {on_s:.4f}s, limit {limit:.4f}s"
        f" (budget {OVERHEAD_BUDGET:.0%} + {OVERHEAD_FLOOR_S}s floor)"
    )
