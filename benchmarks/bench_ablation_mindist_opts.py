"""Ablation: minDist pruning stages on/off (paper section 4.1.1)."""


def test_ablation_mindist_opts(run_recorded):
    rows = run_recorded("ablation-mindist").records()
    by_variant = {r["variant"]: r for r in rows}
    hits = {r["hits"] for r in rows}
    assert len(hits) == 1, "pruning must not change answers"
    # Paper: the optimizations cut the computational cost by 2-6x; here the
    # pruned edge-pair count is the stable indicator.
    assert (
        by_variant["frontier+extended-mbr"]["edge_pairs_tested"]
        <= by_variant["frontier-only"]["edge_pairs_tested"]
        <= by_variant["no-pruning"]["edge_pairs_tested"]
    )
    assert (
        by_variant["frontier+extended-mbr"]["model_ms"]
        < by_variant["no-pruning"]["model_ms"]
    )
