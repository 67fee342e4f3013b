"""Ablation: the five overlap-search buffer mechanisms (paper section 3)."""


def test_ablation_overlap_methods(run_recorded):
    rows = run_recorded("ablation-overlap-methods").records()
    rejects = {r["hw_rejects"] for r in rows}
    assert len(rejects) == 1, "all mechanisms filter identically"
    by_method = {r["method"]: r for r in rows}
    # Only the accumulation variant pays glAccum transfers.
    assert by_method["accum"]["accum_ops"] > 0
    for method in ("blend", "logic", "depth", "stencil"):
        assert by_method[method]["accum_ops"] == 0
