"""Extension: the distance-insensitive proximity filter (paper section 5)."""


def test_ext_distance_field(run_recorded):
    rows = run_recorded("ext-distance-field").records()
    for r in rows:
        assert r["field_fallbacks"] == 0, (
            "the field variant never hits the width limit"
        )
    # At large D the lines variant falls back (fallbacks > 0) while the
    # field variant keeps filtering.
    large_d = rows[-1]
    assert large_d["lines_fallbacks"] > 0, (
        "lines variant should hit the limit at 32x32"
    )
    assert large_d["field_filter_rate"] >= 0.0
