"""Tests for cache-key material: window bytes and polygon content digests."""

import pickle
import struct

from hypothesis import given, settings

from repro.cache import window_key
from repro.geometry import Polygon, Rect
from tests.strategies import star_polygons


class TestWindowKey:
    def test_is_exact_little_endian_float64(self):
        key = window_key(Rect(1.0, 2.0, 3.0, 4.0))
        assert key == struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)

    def test_negative_zero_collapses_onto_positive_zero(self):
        # The projection subtracts xmin/ymin; x - (-0.0) == x - 0.0 for all
        # x, so the two zeros describe the same rasterization.
        assert window_key(Rect(-0.0, 0.0, 1.0, 1.0)) == window_key(
            Rect(0.0, -0.0, 1.0, 1.0)
        )
        assert window_key(Rect(-0.0, -0.0, 1.0, 1.0)) == window_key(
            Rect(0.0, 0.0, 1.0, 1.0)
        )

    def test_distinct_windows_key_separately(self):
        base = Rect(0.0, 0.0, 8.0, 8.0)
        assert window_key(base) != window_key(Rect(0.0, 0.0, 8.0, 8.5))
        assert window_key(base) != window_key(Rect(0.5, 0.0, 8.0, 8.0))

    def test_tiny_coordinate_differences_key_separately(self):
        # Exact, not approximate: any representable difference can change
        # the rasterization, so it must change the key.
        eps = 2.0**-40
        assert window_key(Rect(0.0, 0.0, 1.0, 1.0)) != window_key(
            Rect(0.0, 0.0, 1.0 + eps, 1.0)
        )


class TestPolygonDigest:
    def test_equal_content_equal_digest(self):
        coords = [(0, 0), (4, 0), (4, 4), (0, 4)]
        a = Polygon.from_coords(coords)
        b = Polygon.from_coords(coords)
        assert a is not b
        assert a.digest == b.digest

    def test_different_content_different_digest(self):
        a = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        b = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 5)])
        assert a.digest != b.digest

    def test_vertex_order_matters(self):
        # Reversed rings are geometrically equal but are distinct content;
        # keying them separately is conservative (never wrong, only less
        # sharing), so the digest stays a pure function of the vertex bytes.
        a = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        b = Polygon.from_coords([(0, 4), (4, 4), (4, 0), (0, 0)])
        assert a.digest != b.digest

    def test_digest_is_cached_per_object(self):
        p = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert p.digest is p.digest  # computed once, then reused

    def test_digest_survives_pickling(self):
        # A digest is a function of the vertex bytes alone, so a copy made
        # through __reduce__ (pickle, copy, deepcopy) keys the same entries.
        p = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
        digest = p.digest
        clone = pickle.loads(pickle.dumps(p))
        assert clone.digest == digest

    @settings(max_examples=40)
    @given(star_polygons())
    def test_digest_deterministic_for_arbitrary_polygons(self, poly):
        clone = Polygon.from_coords([(v.x, v.y) for v in poly.vertices])
        assert clone.digest == poly.digest
