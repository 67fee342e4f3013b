"""Figure 12: intersection join geometry cost by window resolution."""


def test_fig12_join_resolution(run_recorded):
    rows = run_recorded("fig12").records()

    def model_by_engine(join):
        series = [r for r in rows if r["join"] == join]
        software = next(r for r in series if r["engine"] == "software")
        hardware = {r["res"]: r["model_ms"] for r in series if r["engine"] == "hardware"}
        return software["model_ms"], hardware

    # Shape: for the complex WATER|><|PRISM join the hardware beats
    # software at mid resolutions on the modeled clock (paper: 68-80% cut),
    # and 32x32 is worse than the best resolution (rising overhead).
    wp_sw, wp_hw = model_by_engine("WATER|><|PRISM")
    best = min(wp_hw.values())
    assert best < wp_sw, "hardware must win on the complex join"
    assert wp_hw[32] > best, "per-pixel overhead must show at 32x32"
    # LANDC|><|LANDO (simple polygons): hardware gains are marginal at
    # best; 32x32 must be worse than 8x8 (the paper's crossover).
    _, ll_hw = model_by_engine("LANDC|><|LANDO")
    assert ll_hw[32] > ll_hw[8] * 0.99
