"""Ablation: restricted search space on/off (paper section 4.1.1)."""


def test_ablation_restricted_sweep(run_recorded):
    by_variant = {
        r["variant"]: r
        for r in run_recorded("ablation-restricted-sweep").records()
    }
    restricted, full = by_variant["restricted"], by_variant["full"]
    assert restricted["hits"] == full["hits"], "restriction must not change answers"
    assert restricted["edges_swept"] < full["edges_swept"], (
        "restriction must sweep fewer edges"
    )
    # Paper: about 30-40% improvement in practice (modeled clock).
    assert restricted["model_ms"] < full["model_ms"]
