"""Refinement is three stages, each timed as one span.

``refine_items`` runs the prefilter (``geometry.pip``), the one hardware
submission (``geometry.hw_batch``) and the software decision
(``geometry.sweep`` | ``geometry.mindist``) over the whole item list, each
under a span opened around its work.  So the atlas's ``gpu.tile_batch``
spans nest under ``geometry.hw_batch``, the ``geometry`` stage's children
are exactly those stage spans, and no span's self time is negative.  With
no tracer in scope a call reads the scope once and opens nothing.
"""

import itertools

import pytest

import repro.core.refine as refine
from repro import (
    HardwareConfig,
    HardwareEngine,
    IntersectionJoin,
    Tracer,
    WithinDistanceJoin,
    base_distance,
    datasets,
    use_tracer,
)
from repro.core import RefinementStats
from repro.geometry import Polygon
from repro.geometry.distance import either_contains
from repro.obs import current_scope, use_scope
from repro.obs.report import build_tree, load_spans
from repro.serve import QueryRequest, QueryService


@pytest.fixture(scope="module")
def water():
    return datasets.load("WATER", n_scale=0.0015, v_scale=0.4)


@pytest.fixture(scope="module")
def prism():
    return datasets.load("PRISM", n_scale=0.01, v_scale=0.4)


def engine():
    return HardwareEngine(HardwareConfig(resolution=8))


def assert_stage_tree(spans, decision):
    """The atlas under the hardware span, stages under ``geometry``, and
    every self time non-negative."""
    spans = [s if isinstance(s, dict) else s.to_dict() for s in spans]
    by_id = {s["span_id"]: s for s in spans}
    tiles = [s for s in spans if s["name"] == "gpu.tile_batch"]
    assert tiles
    assert {by_id[s["parent_id"]]["name"] for s in tiles} == {"geometry.hw_batch"}
    report = build_tree(spans)
    assert report.orphans == 0
    negative = [(r.name, r.self_s) for r in report.rollups if r.self_s < 0.0]
    assert not negative
    stage_ids = {s["span_id"] for s in spans if s["name"] == "geometry"}
    children = {s["name"] for s in spans if s["parent_id"] in stage_ids}
    assert children == {"geometry.pip", "geometry.hw_batch", decision}


class TestSpanTree:
    def test_intersection_join(self, water, prism):
        tracer = Tracer()
        with use_tracer(tracer):
            IntersectionJoin(water, prism, engine()).run()
        assert_stage_tree(tracer.spans, "geometry.sweep")

    def test_within_distance_join(self, water, prism):
        tracer = Tracer()
        with use_tracer(tracer):
            WithinDistanceJoin(water, prism, engine()).run(
                base_distance(water, prism) * 0.5
            )
        assert_stage_tree(tracer.spans, "geometry.mindist")

    def test_served_selection(self, tmp_path):
        svc = QueryService(workers=1, trace=True)
        try:
            for query_index in range(4):
                response = svc.submit(
                    QueryRequest(op="selection", query_index=query_index)
                )
                assert response.status == "ok"
            out = tmp_path / "spans.jsonl"
            svc.export_traces(str(out))
        finally:
            svc.close()
        assert_stage_tree(load_spans(str(out)), "geometry.sweep")


def candidate_items(water, prism, n):
    """``n`` items cycling over the MBR-overlapping pairs."""
    pairs = [
        (a, b)
        for a, b in itertools.product(water.polygons, prism.polygons)
        if a.mbr.intersects(b.mbr)
    ]
    return [(k, a, b) for k, (a, b) in zip(range(n), itertools.cycle(pairs))]


class TestCostWhenOff:
    @pytest.mark.parametrize("n", [1, 200])
    def test_one_scope_read_and_no_span(self, water, prism, monkeypatch, n):
        reads = []

        def counted():
            reads.append(current_scope())
            return reads[-1]

        opened = []
        monkeypatch.setattr(refine, "current_scope", counted)
        monkeypatch.setattr(Tracer, "span", lambda *a, **k: opened.append(a))
        items = candidate_items(water, prism, n)
        with use_scope(blank=True):
            engine().refine("intersect", items)
        assert len(reads) == 1 and reads[0].tracer is None
        assert opened == []

    @pytest.mark.parametrize("n", [1, 200])
    def test_one_span_per_stage_when_on(self, water, prism, n):
        items = candidate_items(water, prism, n)
        tracer = Tracer()
        hw = engine()
        with use_tracer(tracer):
            hw.refine("intersect", items)
        stages = [s.name for s in tracer.spans if s.name.startswith("geometry.")]
        assert sorted(stages) == sorted(
            ["geometry.pip"]
            + ["geometry.hw_batch"] * bool(hw.stats.hw_tests)
            + ["geometry.sweep"] * bool(hw.stats.sw_segment_tests)
        )
        (pip,) = tracer.find("geometry.pip")
        assert all(s.parent_id == pip.parent_id for s in tracer.find("geometry.sweep"))


def square(x0, y0, side):
    return Polygon([(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)])


def triangle(x0, y0, side):
    return Polygon([(x0, y0), (x0 + side, y0), (x0, y0 + side)])


class TestEitherContainsCharges:
    """``pip_edges`` counts the edges of each boundary scan actually run."""

    def charged(self, a, b):
        stats = RefinementStats()
        hit = either_contains(a, b, stats)
        assert hit == either_contains(a, b)
        return hit, stats.pip_edges

    def test_first_scan_hits(self):
        # a's first vertex is inside b: only b's boundary is scanned.
        assert self.charged(triangle(1, 1, 1), square(0, 0, 4)) == (True, 4)

    def test_both_scans_run(self):
        # a's first vertex is inside b's MBR but outside b; b's is inside a.
        a, b = square(0, 0, 4), Polygon([(1, 1), (-1, 1.5), (1.5, -1)])
        assert self.charged(a, b) == (True, 3 + 4)

    def test_mbr_guards_skip_both_scans(self):
        assert self.charged(square(0, 0, 1), square(5, 5, 1)) == (False, 0)
