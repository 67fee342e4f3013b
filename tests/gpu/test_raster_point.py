"""Tests for the wide end-point caps of the distance test (paper section 3.1, Figure 6)."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu import rasterize_point_conservative

coords = st.floats(
    min_value=-4.0, max_value=12.0, allow_nan=False, allow_infinity=False
)


def buf(n=8):
    return np.zeros((n, n), dtype=np.float32)


class TestConservativeRule:
    def test_size_one_at_center_single_pixel(self):
        b = buf(5)
        # Square [1.7, 2.7] x [1.7, 2.7] touches cells 1 and 2 in each axis.
        written = rasterize_point_conservative(b, 2.2, 2.2, 1.0)
        assert written == 4

    def test_size_two_centered_on_pixel_center(self):
        b = buf(5)
        written = rasterize_point_conservative(b, 2.5, 2.5, 2.0)
        # Square [1.5, 3.5]^2 touches cells 1..3 in each axis.
        assert written == 9
        assert b[1:4, 1:4].all()

    def test_zero_size_marks_containing_cell(self):
        b = buf(3)
        written = rasterize_point_conservative(b, 1.5, 1.5, 0.0)
        assert written == 1
        assert b[1, 1] == 1.0

    def test_clipped_at_border(self):
        b = buf(3)
        written = rasterize_point_conservative(b, 0.0, 0.0, 2.0)
        assert written == 4  # only the in-buffer quarter of the footprint
        assert b[0:2, 0:2].all()

    def test_fully_outside(self):
        b = buf(3)
        assert rasterize_point_conservative(b, -5.0, -5.0, 2.0) == 0

    @given(coords, coords, st.floats(min_value=0.0, max_value=5.0))
    def test_footprint_covers_square_samples(self, x, y, size):
        """Every sample point of the square lands in a colored cell."""
        n = 20
        b = np.zeros((n, n), dtype=np.float32)
        rasterize_point_conservative(b, x, y, size, 1.0)
        half = size / 2.0
        for sx in (-half, 0.0, half):
            for sy in (-half, 0.0, half):
                px, py = x + sx, y + sy
                i, j = int(np.floor(px)), int(np.floor(py))
                if 0 <= i < n and 0 <= j < n:
                    assert b[j, i] == 1.0

    @given(coords, coords, st.floats(min_value=0.0, max_value=4.0))
    def test_footprint_bounded(self, x, y, size):
        """No colored cell lies farther than the footprint can reach."""
        n = 20
        b = np.zeros((n, n), dtype=np.float32)
        rasterize_point_conservative(b, x, y, size, 1.0)
        js, is_ = np.nonzero(b)
        half = size / 2.0
        eps = 2e-7  # rasterizer coverage slack (see COVERAGE_EPS)
        for j, i in zip(js, is_):
            # Closed cell [i, i+1] x [j, j+1] must intersect the square
            # (within the conservative epsilon inflation).
            assert i <= x + half + eps and i + 1 >= x - half - eps
            assert j <= y + half + eps and j + 1 >= y - half - eps
