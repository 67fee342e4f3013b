"""Figure 14: software within-distance join cost breakdown vs distance."""


def test_fig14_distance_software(run_recorded):
    rows = run_recorded("fig14").records()
    for join in {r["join"] for r in rows}:
        series = [r for r in rows if r["join"] == join]
        # Shape: results grow with D; geometry dominates the total cost
        # despite the 0/1-Object filters; the filters do find positives.
        results = [r["results"] for r in series]
        assert results == sorted(results), "results must grow with D"
        # Geometry comparison is the major cost at short-to-base distances
        # (at 4 x BaseD the 0/1-Object filters absorb most pairs, so their
        # own linear scans start to compete).
        for r in series:
            if r["D/BaseD"] <= 1.0:
                assert r["geometry_ms"] >= 0.3 * r["total_ms"], (
                    "geometry comparison dominates"
                )
        assert any(r["filter_pos"] > 0 for r in series), (
            "0/1-Object filters find positives"
        )
