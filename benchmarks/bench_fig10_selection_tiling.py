"""Figure 10: selection cost breakdown vs interior-filter tiling level."""


def test_fig10_selection_tiling(run_recorded):
    rows = run_recorded("fig10").records()
    # Shape: MBR filtering is negligible next to geometry comparison, and
    # the interior filter's improvement is limited (paper: <10%).
    for dataset in {r["dataset"] for r in rows}:
        series = [r for r in rows if r["dataset"] == dataset]
        geometry = [r["geometry_ms"] for r in series]
        mbr = [r["mbr_ms"] for r in series]
        assert max(mbr) < 0.25 * max(geometry), "MBR stage should be negligible"
        base = geometry[0]
        assert min(geometry) > 0.5 * base, (
            "interior filter should not slash geometry cost (paper: <10%)"
        )
