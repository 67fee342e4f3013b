"""Extension: containment selection (paper Table 1, interior filter)."""


def test_ext_containment(run_recorded):
    rows = run_recorded("ext-containment").records()
    sw = next(r for r in rows if r["engine"] == "software")
    for r in rows:
        if r["engine"] != "hardware":
            continue
        # Hardware-confirmed positives must reduce software sweeps.
        assert r["sw_sweeps"] <= sw["sw_sweeps"]
        assert r["hw_confirmed"] >= 0
