"""Figure 11: selection geometry comparison, software vs hardware."""


def test_fig11_selection_resolution(run_recorded):
    rows = run_recorded("fig11").records()
    # Shape: the hardware filter rate grows monotonically-ish with
    # resolution, and mid resolutions beat the 1x1 window (modeled clock).
    for dataset in {r["dataset"] for r in rows}:
        hw = [r for r in rows if r["dataset"] == dataset and r["engine"] == "hardware"]
        rates = [r["hw_filter_rate"] for r in hw]
        assert rates[-1] > rates[0], "finer windows must filter more pairs"
        model = {r["res"]: r["model_ms"] for r in hw}
        assert min(model[8], model[16]) <= model[1], (
            "mid resolutions should beat the 1x1 window"
        )
