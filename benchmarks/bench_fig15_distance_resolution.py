"""Figure 15: within-distance geometry comparison by resolution."""


def test_fig15_distance_resolution(run_recorded):
    rows = run_recorded("fig15").records()
    wp = [r for r in rows if r["join"] == "WATER|><|PRISM"]
    wp_hw = [r for r in wp if r["engine"] == "hardware"]
    wp_sw = next(r for r in wp if r["engine"] == "software")
    model = {r["res"]: r["model_ms"] for r in wp_hw}
    # Shape: hardware wins clearly on the complex within-distance join
    # (paper: 60-81% cut) at mid resolutions.
    assert min(model[4], model[8], model[16]) < wp_sw["model_ms"]
    rates = [r["hw_filter_rate"] for r in wp_hw]
    assert rates[-1] >= rates[0], "filter rate grows with resolution"
