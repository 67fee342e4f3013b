"""Tests for line rasterization: the conservative anti-aliased footprint.

The AA conservativeness property here is the correctness foundation of the
whole paper: *every pixel whose cell the segment touches is colored*, hence
two intersecting segments always share a colored pixel.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, segments_intersect
from repro.gpu import rasterize_line_aa_conservative

coords = st.floats(
    min_value=0.0, max_value=16.0, allow_nan=False, allow_infinity=False
)
widths = st.floats(min_value=0.25, max_value=4.0)


def buf(n=16):
    return np.zeros((n, n), dtype=np.float32)


class TestConservativeAA:
    def test_horizontal_segment_footprint(self):
        b = buf(8)
        rasterize_line_aa_conservative(b, 1.5, 3.5, 5.5, 3.5, width_px=1.0)
        # Rect [1.5, 5.5] x [3.0, 4.0]: touches rows 2..4 (closed cells),
        # columns 1..5.
        assert b[3, 1:6].all()
        assert not b[3, 0]
        assert not b[3, 6]

    def test_every_cell_crossed_is_colored(self):
        b = buf(8)
        rasterize_line_aa_conservative(b, 0.2, 0.2, 7.8, 6.9)
        # March along the segment: the containing cell must be colored.
        for t in np.linspace(0.0, 1.0, 200):
            x = 0.2 + t * (7.8 - 0.2)
            y = 0.2 + t * (6.9 - 0.2)
            assert b[int(y), int(x)] == 1.0

    def test_degenerate_segment_uses_point_footprint(self):
        b = buf(8)
        written = rasterize_line_aa_conservative(b, 3.5, 3.5, 3.5, 3.5, width_px=2.0)
        assert written == 9
        assert b[2:5, 2:5].all()

    def test_blending_disabled_full_color(self):
        """With blending off, partially covered pixels get the full color."""
        b = buf(8)
        rasterize_line_aa_conservative(b, 0.1, 0.1, 7.3, 5.2, color=0.5)
        values = set(np.unique(b))
        assert values == {np.float32(0.0), np.float32(0.5)}

    def test_width_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            rasterize_line_aa_conservative(buf(), 0, 0, 1, 1, width_px=0.0)

    def test_cap_points_extend_footprint(self):
        b_nocap, b_cap = buf(16), buf(16)
        rasterize_line_aa_conservative(b_nocap, 4.5, 8.5, 10.5, 8.5, width_px=4.0)
        rasterize_line_aa_conservative(
            b_cap, 4.5, 8.5, 10.5, 8.5, width_px=4.0, cap_points=True
        )
        # The cap square extends beyond the rect's perpendicular end edge.
        assert b_cap[8, 2] == 1.0
        assert b_nocap[8, 2] == 0.0

    @settings(max_examples=200)
    @given(coords, coords, coords, coords, coords, coords, coords, coords)
    def test_intersecting_segments_share_pixel(
        self, ax, ay, bx, by, cx, cy, dx, dy
    ):
        """THE paper invariant: crossing segments overlap in pixel space."""
        if not segments_intersect(Point(ax, ay), Point(bx, by), Point(cx, cy), Point(dx, dy)):
            return
        n = 20
        b1 = np.zeros((n, n), dtype=np.float32)
        b2 = np.zeros((n, n), dtype=np.float32)
        rasterize_line_aa_conservative(b1, ax, ay, bx, by)
        rasterize_line_aa_conservative(b2, cx, cy, dx, dy)
        assert ((b1 > 0) & (b2 > 0)).any()

    @settings(max_examples=100)
    @given(coords, coords, coords, coords, widths)
    def test_footprint_within_width_margin(self, x0, y0, x1, y1, w):
        """Colored cells stay near the segment.

        The footprint is the width-w rectangle (or, for degenerate segments,
        the w x w end-point square whose corners reach sqrt(2) * w/2), plus
        up to one cell diagonal of conservatism.
        """
        n = 24
        b = np.zeros((n, n), dtype=np.float32)
        rasterize_line_aa_conservative(b, x0, y0, x1, y1, width_px=w)
        js, is_ = np.nonzero(b)
        from repro.geometry import point_segment_distance

        reach = (w / 2.0) * math.sqrt(2.0) + math.sqrt(0.5) + 1e-9
        for j, i in zip(js, is_):
            center = Point(i + 0.5, j + 0.5)
            d = point_segment_distance(center, Point(x0, y0), Point(x1, y1))
            assert d <= reach

    @settings(max_examples=100)
    @given(coords, coords, coords, coords)
    def test_segment_samples_covered(self, x0, y0, x1, y1):
        n = 20
        b = np.zeros((n, n), dtype=np.float32)
        rasterize_line_aa_conservative(b, x0, y0, x1, y1)
        for t in np.linspace(0.0, 1.0, 50):
            x = x0 + t * (x1 - x0)
            y = y0 + t * (y1 - y0)
            i, j = int(x), int(y)
            if i < n and j < n:
                assert b[j, i] == 1.0


class TestCapCounting:
    """``pixels_written`` counts distinct pixels, caps included.

    Historically the capped path summed the rect footprint and each cap's
    rectangle separately, double-counting their overlap, so serial and
    bulk draws of the same edge disagreed on ``pixels_written``.
    """

    @settings(max_examples=200)
    @given(coords, coords, coords, coords, widths)
    def test_capped_count_equals_distinct_pixels(self, x0, y0, x1, y1, w):
        b = buf(20)
        written = rasterize_line_aa_conservative(
            b, x0, y0, x1, y1, width_px=w, cap_points=True
        )
        assert written == int(np.count_nonzero(b))

    @settings(max_examples=200)
    @given(coords, coords, coords, coords, widths)
    def test_serial_count_matches_bulk_mask(self, x0, y0, x1, y1, w):
        """Per edge, the serial count equals the bulk mask's population."""
        from repro.gpu.raster_bulk import edges_coverage_mask

        b = buf(20)
        written = rasterize_line_aa_conservative(
            b, x0, y0, x1, y1, width_px=w, cap_points=True
        )
        mask = edges_coverage_mask(
            (20, 20), np.array([[x0, y0, x1, y1]]), width_px=w, cap_points=True
        )
        assert written == int(np.count_nonzero(mask))

    def test_wide_short_segment_overlapping_caps(self):
        # Caps wider than the segment is long: rect and both caps overlap
        # heavily; the count must still be the distinct union.
        b = buf(16)
        written = rasterize_line_aa_conservative(
            b, 7.5, 7.5, 8.5, 7.5, width_px=6.0, cap_points=True
        )
        assert written == int(np.count_nonzero(b))
