"""Equivalence tests: the bulk rasterizer vs. the per-edge rasterizer.

The bulk path exists purely for performance (one vectorized pass per draw
call); its footprint must match the scalar reference exactly, edge for edge.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import rasterize_line_aa_conservative
from repro.gpu.raster_bulk import edges_coverage_mask

coords = st.floats(
    min_value=-4.0, max_value=20.0, allow_nan=False, allow_infinity=False
)
edges_strategy = st.lists(
    st.tuples(coords, coords, coords, coords), min_size=1, max_size=12
).map(lambda rows: np.array(rows, dtype=np.float64))
widths = st.floats(min_value=0.25, max_value=6.0)


def reference(edges, shape, width, cap_points):
    b = np.zeros(shape, dtype=np.float32)
    for x0, y0, x1, y1 in edges:
        rasterize_line_aa_conservative(
            b, x0, y0, x1, y1, width_px=width, cap_points=cap_points
        )
    return b > 0


class TestValidation:
    def test_empty_edges(self):
        mask = edges_coverage_mask((4, 4), np.empty((0, 4)), 1.0)
        assert mask.shape == (4, 4) and not mask.any()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            edges_coverage_mask((4, 4), np.zeros((3, 3)), 1.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            edges_coverage_mask((4, 4), np.zeros((1, 4)), 0.0)


class TestEquivalence:
    def test_single_diagonal(self):
        edges = np.array([[0.5, 0.5, 6.5, 4.5]])
        got = edges_coverage_mask((8, 8), edges, 1.5)
        assert np.array_equal(got, reference(edges, (8, 8), 1.5, False))

    def test_degenerate_edge(self):
        edges = np.array([[3.0, 3.0, 3.0, 3.0]])
        got = edges_coverage_mask((8, 8), edges, 2.0)
        assert np.array_equal(got, reference(edges, (8, 8), 2.0, False))

    def test_mixed_degenerate_and_regular(self):
        edges = np.array(
            [[3.0, 3.0, 3.0, 3.0], [0.0, 0.0, 7.0, 7.0], [5.0, 1.0, 5.0, 1.0]]
        )
        got = edges_coverage_mask((8, 8), edges, 1.0)
        assert np.array_equal(got, reference(edges, (8, 8), 1.0, False))

    def test_written_counts_union_once(self):
        # Two identical edges: pixels counted once.
        edges = np.array([[1.0, 1.0, 6.0, 1.0], [1.0, 1.0, 6.0, 1.0]])
        written = np.count_nonzero(edges_coverage_mask((8, 8), edges, 1.0))
        assert written == int(reference(edges[:1], (8, 8), 1.0, False).sum())

    @settings(max_examples=150)
    @given(edges_strategy, widths, st.booleans())
    def test_matches_per_edge_reference(self, edges, width, caps):
        shape = (16, 16)
        got = edges_coverage_mask(shape, edges, width, cap_points=caps)
        expected = reference(edges, shape, width, caps)
        assert np.array_equal(got, expected)
        assert np.count_nonzero(got) == int(expected.sum())

    @settings(max_examples=30)
    @given(st.integers(1, 6), widths)
    def test_chunking_equivalent(self, n_dup, width):
        """Forcing tiny chunks must not change the result."""
        import repro.gpu.raster_bulk as rb

        rng = np.random.default_rng(42)
        edges = rng.uniform(0, 12, size=(n_dup * 7, 4))
        shape = (12, 12)
        a = edges_coverage_mask(shape, edges, width)
        old = rb._CHUNK_BUDGET
        try:
            rb._CHUNK_BUDGET = shape[0] * shape[1]  # chunk size 1 edge
            b = edges_coverage_mask(shape, edges, width)
        finally:
            rb._CHUNK_BUDGET = old
        assert np.array_equal(a, b)
