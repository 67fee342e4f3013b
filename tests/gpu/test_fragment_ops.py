"""Unit tests for the per-fragment pipeline operations.

These are the GL mechanisms behind the five overlap-search variants:
additive blending, logical OR, color masking, stencil increment, and the
depth write/test pair.
"""

import numpy as np
import pytest

from repro.geometry import Polygon, Rect
from repro.gpu import GraphicsPipeline

SQUARE = [(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)]
OTHER = [(3.0, 3.0), (7.5, 3.0), (7.5, 7.5), (3.0, 7.5)]


def pipeline(n=8):
    pl = GraphicsPipeline(n)
    pl.set_data_window(Rect(0, 0, float(n), float(n)))
    return pl


class TestBlending:
    def test_additive_blend_accumulates_across_draws(self):
        pl = pipeline()
        pl.state.blend = True
        pl.state.color = 0.5
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        pl.draw_edges_array(Polygon(OTHER).edges_array)
        assert pl.fb.color.max() == pytest.approx(1.0)

    def test_single_draw_writes_once_despite_blend(self):
        """Within one draw call the coverage is a set: self-crossing edges
        must not double-add (the hardware test's correctness hinges on it)."""
        pl = pipeline()
        pl.state.blend = True
        pl.state.color = 0.5
        bowtie = [(1.0, 1.0), (6.0, 6.0), (6.0, 1.0), (1.0, 6.0)]
        pl.draw_edges_array(Polygon(bowtie).edges_array)
        assert pl.fb.color.max() == pytest.approx(0.5)

    def test_blend_off_overwrites(self):
        pl = pipeline()
        pl.state.color = 0.5
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        pl.draw_edges_array(Polygon(OTHER).edges_array)
        assert pl.fb.color.max() == pytest.approx(0.5)


class TestLogicOp:
    def test_or_combines_bits(self):
        pl = pipeline()
        pl.state.logic_op = "or"
        pl.state.color = 1.0
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        pl.state.color = 2.0
        pl.draw_edges_array(Polygon(OTHER).edges_array)
        values = set(np.unique(pl.fb.color))
        assert values <= {0.0, 1.0, 2.0, 3.0}
        assert 3.0 in values  # overlap pixels carry both bits

    def test_unsupported_op_raises(self):
        pl = pipeline()
        pl.state.logic_op = "xor"
        with pytest.raises(ValueError):
            pl.draw_edges_array(Polygon(SQUARE).edges_array)


class TestStencil:
    def test_incr_counts_draws(self):
        pl = pipeline()
        pl.state.color_write = False
        pl.state.stencil_op = "incr"
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        pl.draw_edges_array(Polygon(OTHER).edges_array)
        assert pl.fb.stencil.max() == 2
        assert pl.fb.color.max() == 0.0  # color mask honored

    def test_incr_saturates_at_255(self):
        pl = pipeline()
        pl.fb.stencil[:] = 255
        pl.state.stencil_op = "incr"
        pl.state.color_write = False
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        assert pl.fb.stencil.max() == 255

    def test_unsupported_op_raises(self):
        pl = pipeline()
        pl.state.stencil_op = "decr"
        with pytest.raises(ValueError):
            pl.draw_edges_array(Polygon(SQUARE).edges_array)


class TestDepth:
    def test_depth_write_marks_fragments(self):
        pl = pipeline()
        pl.state.color_write = False
        pl.state.depth_write = True
        pl.state.depth_value = 0.5
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        assert (pl.fb.depth == np.float32(0.5)).any()
        assert pl.fb.color.max() == 0.0

    def test_depth_test_equal_gates_color(self):
        pl = pipeline()
        # Pass 1: mark SQUARE's fragments at depth 0.5.
        pl.state.color_write = False
        pl.state.depth_write = True
        pl.state.depth_value = 0.5
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        # Pass 2: draw OTHER with GL_EQUAL - only overlap survives.
        pl.state.color_write = True
        pl.state.depth_write = False
        pl.state.depth_test = "equal"
        pl.state.color = 1.0
        pl.draw_edges_array(Polygon(OTHER).edges_array)
        assert pl.fb.color.max() == 1.0
        # Where OTHER did not cross SQUARE's fragments, nothing was written.
        colored = int((pl.fb.color > 0).sum())
        marked = int((pl.fb.depth == np.float32(0.5)).sum())
        assert colored <= marked

    def test_unsupported_func_raises(self):
        pl = pipeline()
        pl.state.depth_test = "less"
        with pytest.raises(ValueError):
            pl.draw_edges_array(Polygon(SQUARE).edges_array)

    def test_depth_test_counts_surviving_fragments_only(self):
        pl = pipeline()
        pl.state.depth_test = "equal"
        pl.state.depth_value = 0.25  # nothing marked at 0.25
        before = pl.counters.pixels_written
        pl.draw_edges_array(Polygon(SQUARE).edges_array)
        assert pl.counters.pixels_written == before


class TestResetFragmentOps:
    def test_reset_restores_defaults(self):
        pl = pipeline()
        st = pl.state
        st.blend = True
        st.logic_op = "or"
        st.color_write = False
        st.stencil_op = "incr"
        st.depth_write = True
        st.depth_test = "equal"
        st.reset_fragment_ops()
        assert not st.blend and st.logic_op is None
        assert st.color_write
        assert st.stencil_op is None
        assert not st.depth_write and st.depth_test is None
