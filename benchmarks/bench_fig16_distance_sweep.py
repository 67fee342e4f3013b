"""Figure 16: hardware within-distance join across query distances."""


def test_fig16_distance_sweep(run_recorded):
    rows = run_recorded("fig16").records()
    improvements = [
        r["improvement_%"] for r in rows if r["join"] == "WATER|><|PRISM"
    ]
    # Shape: the hardware margin narrows as D grows (paper: 83% -> 74% for
    # WATER|><|PRISM, 43% -> ~0 for LANDC|><|LANDO).
    assert improvements[0] > improvements[-1], "margin must narrow with D"
    assert improvements[0] > 20.0, "short distances must show a clear win"
