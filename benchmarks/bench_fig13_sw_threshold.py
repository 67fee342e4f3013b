"""Figure 13: the software-threshold sweep."""


def test_fig13_sw_threshold(run_recorded):
    rows = run_recorded("fig13").records()
    hw = [r for r in rows if r["engine"] == "hardware"]
    # Shape: bypasses grow with the threshold, and some positive threshold
    # is at least as good as threshold 0 (the paper's tuning claim).
    for res in {r["res"] for r in hw}:
        series = [r for r in hw if r["res"] == res]
        bypasses = [r["bypasses"] for r in series]
        assert bypasses == sorted(bypasses), "bypasses grow with threshold"
        model = [r["model_ms"] for r in series]
        assert min(model[1:]) <= model[0] * 1.05, (
            "a tuned threshold should not lose to threshold 0"
        )
