"""Raster-interval second filter: render-free resolution of join pairs.

Not a paper figure: this benchmark gates the interval filter of
repro.filters.intervals (Georgiadis et al.'s raster-interval object
approximations grafted onto the paper's funnel).  The experiment runs the
LANDC |><| LANDO intersection join with the filter off and on, requiring
bit-identical pairs and exact funnel identities as it goes; here we
additionally enforce the acceptance criterion the filter exists for: the
hardware test count must drop by at least 30%.  The table's
``pair_test_us`` is a wall cell, reported and not gated.
"""


def test_interval_filter(run_recorded):
    rows = run_recorded("intervals").records()
    assert len(rows) == 2  # {intervals-off, intervals-on}
    off, on = rows
    assert (off["mode"], on["mode"]) == ("intervals-off", "intervals-on")

    # Both modes see the same MBR-surviving candidate set and - the
    # runner checks the pair lists themselves match - the same results.
    assert on["candidates"] == off["candidates"]
    assert on["results"] == off["results"]

    # The off mode never consults the interval index.
    assert off["interval_hits"] == 0 and off["interval_drops"] == 0

    # Acceptance: >= 30% fewer hardware tests with the filter on.  Every
    # interval-resolved pair is one the renderer never sees.
    assert on["hw_reduction_%"] >= 30.0, f"expected >=30% hw_tests reduction: {on}"
    assert on["hw_tests"] < off["hw_tests"]
    assert on["interval_hits"] + on["interval_drops"] > 0, (
        "the filter must resolve some pairs"
    )
