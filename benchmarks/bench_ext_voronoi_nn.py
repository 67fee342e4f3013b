"""Extension: nearest neighbors via hardware Voronoi diagrams (paper sec. 5)."""


def test_ext_voronoi_nn(run_recorded):
    rows = run_recorded("ext-voronoi-nn").records()
    hw = next(r for r in rows if r["strategy"] == "hardware-voronoi")
    # The filter must prune: exact refinements < boundaries rendered.
    assert hw["exact_distance_calls"] < hw["boundaries_rendered"]
