"""Ablation: MBR-intersection window vs full-scene window (paper fig 7)."""


def test_ablation_projection(run_recorded):
    by_variant = {
        r["variant"]: r for r in run_recorded("ablation-projection").records()
    }
    focused, naive = by_variant["intersection-window"], by_variant["union-window"]
    # Paper section 3.2: the focused window maximizes resolution
    # utilization, so it filters at least as many pairs.
    assert focused["reject_rate"] >= naive["reject_rate"], (
        "focused projection must filter more"
    )
