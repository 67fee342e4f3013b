"""Frame buffer simulation: color buffer and accumulation buffer.

The paper's main technique uses the *color buffer* and the *accumulation
buffer* (Algorithm 3.1 steps 2.2-2.7); the *stencil* and *depth* buffers
are provided as well because section 3 notes that the overlap search can
equally be implemented "using hardware blending, logical operations, depth
buffer, and stencil buffer" (Hoff et al. [13]) - all four variants live in
:mod:`repro.core.hardware_test`.  Color/accum/depth are numpy float32
arrays indexed ``[y, x]`` (a single luminance channel suffices: the
algorithm renders one gray level); the stencil plane is uint8, as on real
hardware.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class Framebuffer:
    """A ``width x height`` frame buffer with color and accumulation planes."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"framebuffer must be at least 1x1, got {width}x{height}")
        self.width = int(width)
        self.height = int(height)
        self.color = np.zeros((self.height, self.width), dtype=np.float32)
        self.accum = np.zeros((self.height, self.width), dtype=np.float32)
        self.stencil = np.zeros((self.height, self.width), dtype=np.uint8)
        self.depth = np.ones((self.height, self.width), dtype=np.float32)

    # -- clears ---------------------------------------------------------------

    def clear_color(self, value: float = 0.0) -> None:
        """glClear(GL_COLOR_BUFFER_BIT) with glClearColor(value, ...)."""
        self.color.fill(value)

    def clear_accum(self, value: float = 0.0) -> None:
        """glClear(GL_ACCUM_BUFFER_BIT)."""
        self.accum.fill(value)

    def clear_stencil(self, value: int = 0) -> None:
        """glClear(GL_STENCIL_BUFFER_BIT) with glClearStencil(value)."""
        self.stencil.fill(value)

    def clear_depth(self, value: float = 1.0) -> None:
        """glClear(GL_DEPTH_BUFFER_BIT) with glClearDepth(value)."""
        self.depth.fill(value)

    # -- accumulation operations (glAccum) ---------------------------------------

    def accum_add(self, scale: float = 1.0) -> None:
        """glAccum(GL_ACCUM, scale): accum += color * scale."""
        self.accum += self.color * np.float32(scale)

    def accum_return(self, scale: float = 1.0) -> None:
        """glAccum(GL_RETURN, scale): color = accum * scale (step 2.7)."""
        np.multiply(self.accum, np.float32(scale), out=self.color)

    # -- readback ---------------------------------------------------------------

    def minmax(self, buffer: str = "color") -> Tuple[float, float]:
        """The hardware Minmax function (paper section 3.2).

        Returns the minimum and maximum values of the selected buffer without
        transferring the pixel block to host memory - the simulation only
        returns the two scalars, matching what the real extension exposes.
        """
        plane = self._plane(buffer)
        return float(plane.min()), float(plane.max())

    def read_pixels(self, buffer: str = "color") -> np.ndarray:
        """Full buffer readback (glReadPixels): the expensive alternative to
        Minmax that the paper avoids.  Returns a copy, like the real call."""
        return self._plane(buffer).copy()

    def _plane(self, buffer: str) -> np.ndarray:
        if buffer == "color":
            return self.color
        if buffer == "accum":
            return self.accum
        if buffer == "stencil":
            return self.stencil
        if buffer == "depth":
            return self.depth
        raise ValueError(
            f"unknown buffer {buffer!r}; expected color|accum|stencil|depth"
        )
