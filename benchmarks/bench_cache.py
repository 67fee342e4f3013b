"""Memoization effectiveness: repeated queries and skewed joins.

Not a paper figure: this benchmark validates the repro.cache layer.  The
experiment runs each workload with caches off and on, the runner requiring
bit-identical answers and RefinementStats; here we additionally enforce the
throughput criterion the caches exist for - the abstract GPU cost (the
deterministic cost model over recorded operation counters, immune to host
noise) must drop substantially when work repeats.
"""


def test_cache_effectiveness(run_recorded):
    rows = run_recorded("cache").records()
    assert len(rows) == 4  # two workloads x {cache-off, cache-on}

    # Cache-off rows never consult a cache; every row answers identically
    # per workload (the runner checks the answers themselves match).
    assert all(r["cache_hits"] == 0 for r in rows if r["mode"] == "cache-off")
    for workload in {r["workload"] for r in rows}:
        assert len({r["results"] for r in rows if r["workload"] == workload}) == 1

    def row(workload_prefix, mode):
        return next(
            r
            for r in rows
            if r["workload"].startswith(workload_prefix) and r["mode"] == mode
        )

    # Acceptance: >= 30% abstract geometry-cost reduction on the repeated
    # query set (with repeats=2 the second pass should be nearly free).
    sel_off, sel_on = row("selection", "cache-off"), row("selection", "cache-on")
    assert sel_on["reduction_%"] >= 30.0, f"expected >=30% reduction: {sel_on}"
    assert sel_on["abstract_cost"] < sel_off["abstract_cost"]
    assert sel_on["cache_hits"] > 0, "repeated queries must register cache hits"

    # The skewed join saves too - proportional to the duplication ratio,
    # so just require a real, non-zero saving backed by hits.
    join_on = row("join", "cache-on")
    assert join_on["reduction_%"] > 0.0, f"skewed join must save cost: {join_on}"
    assert join_on["cache_hits"] > 0
