"""Tests for the framebuffer and accumulation-buffer semantics."""

import numpy as np
import pytest

from repro.gpu import Framebuffer


class TestConstruction:
    def test_shapes(self):
        fb = Framebuffer(8, 4)
        assert fb.color.shape == (4, 8)  # [y, x] layout
        assert fb.accum.shape == (4, 8)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Framebuffer(0, 4)
        with pytest.raises(ValueError):
            Framebuffer(4, -1)

    def test_starts_cleared(self):
        fb = Framebuffer(3, 3)
        assert not fb.color.any()
        assert not fb.accum.any()


class TestClears:
    def test_clear_color_value(self):
        fb = Framebuffer(2, 2)
        fb.clear_color(0.25)
        assert (fb.color == np.float32(0.25)).all()

    def test_clear_accum_independent(self):
        fb = Framebuffer(2, 2)
        fb.color[:] = 1.0
        fb.clear_accum()
        assert (fb.color == 1.0).all()
        assert (fb.accum == 0.0).all()


class TestAccumOps:
    def test_accum_add_accumulates(self):
        fb = Framebuffer(2, 2)
        fb.color[0, 0] = 0.5
        fb.accum_add()
        fb.color[:] = 0.0
        fb.color[0, 0] = 0.5
        fb.color[1, 1] = 0.5
        fb.accum_add()
        assert fb.accum[0, 0] == 1.0
        assert fb.accum[1, 1] == 0.5
        assert fb.accum[0, 1] == 0.0

    def test_accum_add_scale(self):
        fb = Framebuffer(1, 1)
        fb.color[0, 0] = 0.5
        fb.accum_add(scale=0.5)
        assert fb.accum[0, 0] == 0.25

    def test_accum_return_writes_color(self):
        fb = Framebuffer(1, 1)
        fb.accum[0, 0] = 0.75
        fb.accum_return()
        assert fb.color[0, 0] == 0.75

    def test_accum_return_scale(self):
        fb = Framebuffer(1, 1)
        fb.accum[0, 0] = 0.5
        fb.accum_return(scale=2.0)
        assert fb.color[0, 0] == 1.0

    def test_algorithm_31_sequence(self):
        """The exact buffer choreography of Algorithm 3.1 steps 2.2-2.8."""
        fb = Framebuffer(4, 4)
        fb.clear_color()
        fb.clear_accum()
        fb.color[1, 1] = 0.5  # "render polygon A"
        fb.color[2, 2] = 0.5
        fb.accum_add()
        fb.clear_color()
        fb.color[2, 2] = 0.5  # "render polygon B": overlaps at (2,2)
        fb.color[3, 3] = 0.5
        fb.accum_add()
        fb.accum_return()
        low, high = fb.minmax("color")
        assert high == 1.0  # overlap detected
        assert low == 0.0


class TestReadback:
    def test_minmax(self):
        fb = Framebuffer(3, 3)
        fb.color[0, 2] = 0.5
        fb.color[2, 0] = -0.25
        assert fb.minmax("color") == (-0.25, 0.5)

    def test_minmax_accum(self):
        fb = Framebuffer(2, 2)
        fb.accum[1, 1] = 2.0
        assert fb.minmax("accum") == (0.0, 2.0)

    def test_minmax_unknown_buffer(self):
        with pytest.raises(ValueError):
            Framebuffer(1, 1).minmax("texture")

    def test_stencil_and_depth_planes(self):
        fb = Framebuffer(2, 2)
        assert fb.stencil.dtype.name == "uint8"
        assert (fb.depth == 1.0).all()
        fb.stencil[0, 0] = 2
        assert fb.minmax("stencil") == (0.0, 2.0)
        fb.clear_stencil()
        assert fb.minmax("stencil") == (0.0, 0.0)
        fb.depth[1, 1] = 0.5
        assert fb.minmax("depth") == (0.5, 1.0)
        fb.clear_depth()
        assert (fb.depth == 1.0).all()

    def test_read_pixels_returns_copy(self):
        fb = Framebuffer(2, 2)
        out = fb.read_pixels("color")
        out[0, 0] = 99.0
        assert fb.color[0, 0] == 0.0
