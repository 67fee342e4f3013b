"""Ablation: hardware Minmax vs glReadPixels readback (paper section 3.2)."""


def test_ablation_minmax(run_recorded):
    by_variant = {
        r["variant"]: r for r in run_recorded("ablation-minmax").records()
    }
    minmax, readback = by_variant["minmax"], by_variant["readback"]
    assert minmax["overlaps"] == readback["overlaps"], "both searches must agree"
    # Paper: avoiding the bus transfer is essential; on the modeled 2003
    # platform readback costs several times the on-card Minmax scan.
    assert readback["model_ms"] > 1.5 * minmax["model_ms"]
