"""Figure 11: selection geometry comparison, software vs hardware."""


def test_fig11_selection_resolution(run_recorded):
    rows = run_recorded("fig11").records()
    # Shape (modeled clock, so deterministic): finer windows filter strictly
    # more pairs, the per-pixel overhead makes 32x32 the most expensive
    # window, and the cheapest window is a coarse one - 2-4 px here, not the
    # paper's 16 (EXPERIMENTS.md, fig11).
    for dataset in {r["dataset"] for r in rows}:
        hw = [r for r in rows if r["dataset"] == dataset and r["engine"] == "hardware"]
        rates = [r["hw_filter_rate"] for r in hw]
        assert all(a < b for a, b in zip(rates, rates[1:])), (
            "finer windows must filter more pairs"
        )
        model = {r["res"]: r["model_ms"] for r in hw}
        assert max(model, key=model.get) == 32, "32x32 should cost the most"
        assert min(model, key=model.get) <= 8, "the best window is a coarse one"
        if dataset == "WATER":
            assert min(model[2], model[4]) <= model[1], (
                "2-4 px windows should beat the 1x1 window on WATER"
            )
