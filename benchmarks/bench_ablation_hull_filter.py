"""Ablation: the pre-processed convex-hull filter (paper Table 1)."""


def test_ablation_hull_filter(run_recorded):
    by_variant = {
        r["variant"]: r for r in run_recorded("ablation-hull-filter").records()
    }
    plain, hulls = by_variant["mbr-only"], by_variant["mbr+hulls"]
    # Hull filtering refines fewer pairs, at a pre-processing price.
    assert hulls["pairs_refined"] <= plain["pairs_refined"]
    assert hulls["preprocess_ms"] > plain["preprocess_ms"]
