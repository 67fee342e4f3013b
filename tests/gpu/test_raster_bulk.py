"""Equivalence tests: the bulk rasterizer vs. its two oracles.

The bulk path exists purely for performance (one vectorized pass per draw
call).  Its footprint must match the per-edge rasterizer - the semantic
oracle - edge for edge, and the whole-draw dense ``(H, W, E)``
separating-axis cube - the differential oracle - bit for bit over a seeded
corpus of draws (both in ``tests/oracles/raster.py``).  Named mutants of
the kernel's source must each be told apart from the cube.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gpu.raster_bulk as raster_bulk
from repro.gpu.raster_bulk import COVERAGE_EPS, edges_coverage_mask, edges_coverage_masks_grouped
from tests.oracles.mutants import mutant
from tests.oracles.raster import cube_masks, draw_edges, rasterize_line_aa_conservative

coords = st.floats(
    min_value=-4.0, max_value=20.0, allow_nan=False, allow_infinity=False
)
edges_strategy = st.lists(
    st.tuples(coords, coords, coords, coords), min_size=1, max_size=12
).map(lambda rows: np.array(rows, dtype=np.float64))
widths = st.floats(min_value=0.25, max_value=6.0)


def corpus(n, seed=0):
    """Seeded random draws: ``(shape, edges, sizes, widths, cap_points)``.

    Heights 1-70; widths on and around byte boundaries; empty groups;
    scalar and per-group line widths; degenerate edges; half-integer
    coordinates (edges through cell corners); 1e9-scale edges.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        height = int(rng.integers(1, 71))
        width = int(rng.choice([1, 7, 8, 9, 17, 64, 65]))
        sizes = rng.integers(0, 6, size=int(rng.integers(1, 6)))
        e = rng.uniform(-3.0, max(height, width) + 3.0, size=(int(sizes.sum()), 4))
        if rng.random() < 0.3:
            e = np.round(e * 2.0) / 2.0
        if rng.random() < 0.05:
            e = e * 1e9
        if e.shape[0] and rng.random() < 0.3:
            i = rng.integers(0, e.shape[0])
            e[i, 2:] = e[i, :2]
        if rng.random() < 0.5:
            w = float(rng.uniform(0.1, 6.0))
        else:
            w = rng.uniform(0.1, 6.0, size=sizes.shape[0])
        yield (height, width), e, sizes, w, bool(rng.random() < 0.5)


def _tight_bound(width_px):
    """``((0 + hv) + 0.5) + eps``: the row bound of a horizontal edge, the
    column bound of a vertical one, and an end-point square's half side."""
    return ((0.0 + width_px * 0.5) + 0.5) + COVERAGE_EPS


def row_on_bound():
    """A horizontal edge whose row-0 centre sits exactly on the row bound."""
    b = _tight_bound(math.sqrt(2.0))
    y = 0.5 + b
    assert 0.5 - y == -b
    return (8, 8), np.array([[2.0, y, 5.0, y]]), [1], math.sqrt(2.0), False


def column_on_bound():
    """A vertical edge whose column-0 centre sits exactly on the column
    bound of the test's axis-aligned box."""
    b = _tight_bound(math.sqrt(2.0))
    x = 0.5 + b
    assert 0.5 - x == -b
    return (8, 8), np.array([[x, 2.0, x, 5.0]]), [1], math.sqrt(2.0), False


def cap_row_on_bound(cap_points):
    """An end-point square whose row-0 centre sits exactly on its edge,
    away from the rectangle: a cap of a vertical edge, or with
    ``cap_points`` off, a degenerate edge's square."""
    b = _tight_bound(math.sqrt(2.0))
    y = 0.5 + b
    assert 0.5 - y == -b
    edge = [4.0, y, 4.0, y + 5.0] if cap_points else [4.0, y, 4.0, y]
    return (8, 8), np.array([edge]), [1], math.sqrt(2.0), cap_points


#: Each literal draw, the pixels on its bound and how many of them it hits.
LITERALS = [
    (row_on_bound(), np.s_[0], 5),
    (column_on_bound(), np.s_[:, 0], 5),
    (cap_row_on_bound(True), np.s_[0], 2),
    (cap_row_on_bound(False), np.s_[0], 2),
]


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

    @pytest.mark.parametrize(
        "draw",
        [
            lambda e: edges_coverage_mask((4, 4), e, math.nan),
            lambda e: edges_coverage_masks_grouped((4, 4), e, [1], math.nan),
            lambda e: edges_coverage_masks_grouped(
                (4, 4), np.vstack([e, e]), [1, 1], np.array([1.0, math.nan])
            ),
            lambda e: rasterize_line_aa_conservative(
                np.zeros((4, 4), dtype=np.float32), *e[0], width_px=math.nan
            ),
        ],
        ids=["mask", "grouped-scalar", "grouped-per-group", "per-edge"],
    )
    def test_nan_width_rejected(self, draw):
        """A NaN width is refused, never an empty "no pixel" footprint."""
        with pytest.raises(ValueError, match="line width must be positive"):
            draw(np.array([[1.0, 1.0, 3.0, 2.0]]))


class TestEquivalence:
    def test_single_diagonal(self):
        edges = np.array([[0.5, 0.5, 6.5, 4.5]])
        got = edges_coverage_mask((8, 8), edges, 1.5)
        assert np.array_equal(got, draw_edges((8, 8), edges, 1.5, False))

    def test_degenerate_edge(self):
        edges = np.array([[3.0, 3.0, 3.0, 3.0]])
        got = edges_coverage_mask((8, 8), edges, 2.0)
        assert np.array_equal(got, draw_edges((8, 8), edges, 2.0, False))

    def test_mixed_degenerate_and_regular(self):
        edges = np.array(
            [[3.0, 3.0, 3.0, 3.0], [0.0, 0.0, 7.0, 7.0], [5.0, 1.0, 5.0, 1.0]]
        )
        got = edges_coverage_mask((8, 8), edges, 1.0)
        assert np.array_equal(got, draw_edges((8, 8), edges, 1.0, False))

    def test_written_counts_union_once(self):
        # Two identical edges: pixels counted once.
        edges = np.array([[1.0, 1.0, 6.0, 1.0], [1.0, 1.0, 6.0, 1.0]])
        written = np.count_nonzero(edges_coverage_mask((8, 8), edges, 1.0))
        assert written == int(draw_edges((8, 8), edges[:1], 1.0, False).sum())

    @settings(max_examples=150)
    @given(edges_strategy, widths, st.booleans())
    def test_matches_per_edge_reference(self, edges, width, caps):
        shape = (16, 16)
        got = edges_coverage_mask(shape, edges, width, cap_points=caps)
        expected = draw_edges(shape, edges, width, caps)
        assert np.array_equal(got, expected)
        assert np.count_nonzero(got) == int(expected.sum())

    @settings(max_examples=30)
    @given(st.integers(1, 6), widths, st.booleans())
    def test_chunking_equivalent(self, n_dup, width, caps):
        """Forcing the smallest chunk (one edge, one admitted entry per
        block) must not change any pixel."""
        rng = np.random.default_rng(42)
        edges = rng.uniform(0, 12, size=(n_dup * 7, 4))
        shape = (12, 12)
        a = edges_coverage_mask(shape, edges, width, cap_points=caps)
        with mock.patch.object(raster_bulk, "_CHUNK_BUDGET", 1):
            b = edges_coverage_mask(shape, edges, width, cap_points=caps)
        assert np.array_equal(a, b)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6), widths)
    def test_groups_or_to_the_one_group_draw(self, sizes, width):
        """One draw split into groups, its masks OR-ed, is the one-group
        draw."""
        rng = np.random.default_rng(sum(sizes))
        edges = rng.uniform(-2, 18, size=(sum(sizes), 4))
        grouped = edges_coverage_masks_grouped((16, 16), edges, sizes, width)
        whole = edges_coverage_mask((16, 16), edges, width)
        assert np.array_equal(grouped.any(axis=0), whole)


class TestAgainstTheCube:
    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_matches_cube(self, seed):
        """12 000 draws in all."""
        for shape, e, sizes, w, caps in corpus(2000, seed):
            expected = cube_masks(shape, e, sizes, w, caps)
            got = edges_coverage_masks_grouped(shape, e, sizes, w, caps)
            assert got.shape == expected.shape and got.dtype == bool
            assert np.array_equal(got, expected)
            if np.ndim(w) == 0:
                one = edges_coverage_mask(shape, e, w, cap_points=caps)
                assert np.array_equal(one, expected.any(axis=0))

    @pytest.mark.parametrize(
        "draw, on_bound, hits", LITERALS, ids=["row", "column", "cap", "degenerate"]
    )
    def test_bound_literals_match_cube(self, draw, on_bound, hits):
        shape, e, sizes, w, caps = draw
        got = edges_coverage_masks_grouped(shape, e, sizes, w, caps)
        assert np.array_equal(got, cube_masks(shape, e, sizes, w, caps))
        assert np.array_equal(got[0], draw_edges(shape, e, w, caps))
        assert np.count_nonzero(got[0][on_bound]) == hits


#: Named mutants of the kernel: (source text, replacement).
MUTANTS = {
    "cap_x0_only": (
        "            _or_square(plane, cx, cy, x1, y1, half, None)\n",
        "            pass\n",
    ),
    "row_strict": (
        "rows = np.abs(gy) <= hu * auy",
        "rows = np.abs(gy) < hu * auy",
    ),
    "col_strict": (
        "hit &= np.abs(gx, out=gx) <= bound_x_r",
        "hit &= np.abs(gx, out=gx) < bound_x_r",
    ),
    "cap_row_strict": (
        "rows = np.abs(cy[:, None] - y) <= half",
        "rows = np.abs(cy[:, None] - y) < half",
    ),
    "pack_msb_first": (
        "_BIT = (np.uint8(1) << np.arange(8, dtype=np.uint8))[:, None]",
        "_BIT = (np.uint8(128) >> np.arange(8, dtype=np.uint8))[:, None]",
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_named_mutant_is_killed(name):
    draw = mutant(raster_bulk, *MUTANTS[name]).edges_coverage_masks_grouped
    for shape, e, sizes, w, caps in [*(d for d, _, _ in LITERALS), *corpus(300)]:
        if not np.array_equal(
            draw(shape, e, sizes, w, caps), cube_masks(shape, e, sizes, w, caps)
        ):
            return
    pytest.fail(f"mutant {name} survived")
