"""Rendering state and device limits for the simulated pipeline.

Mirrors the slice of OpenGL state the paper's technique touches: line width,
point size, blending, and current color - plus the device limits that shape
the algorithms (the 10-pixel maximum anti-aliased line width on the paper's
GeForce4 platform forces the software fallback for large query distances,
section 4.4).  Anti-aliasing is not a state bit: the card is constructed
with it on (Algorithm 3.1 step 2.1) and draws nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: Width of an anti-aliased line covering the pixel diagonal - the paper's
#: default for intersection tests (section 2.2.2: "we assume the line width
#: is sqrt(2), which is the length of the pixel diagonal").
DEFAULT_AA_LINE_WIDTH = math.sqrt(2.0)

#: The gray level both polygons are rendered with (Algorithm 3.1 steps
#: 2.3/2.5 use color (0.5, 0.5, 0.5)); two overlapping writes accumulate to
#: 1.0.
EDGE_COLOR = 0.5

#: Accumulated value that signals an overlapping pixel (the (1,1,1) searched
#: for in step 2.8).
OVERLAP_COLOR = 1.0


@dataclass(frozen=True)
class DeviceLimits:
    """Hardware capability limits.

    Defaults follow the paper's test platform: anti-aliased line width was
    capped at 10 pixels on the GeForce4 Ti4600 (section 4.4), and point size
    shares the cap since the technique uses points only as line caps.
    """

    max_aa_line_width: float = 10.0
    max_point_size: float = 10.0
    max_viewport: int = 2048

    def supports_line_width(self, width_px: float) -> bool:
        """True when the device can render AA lines of ``width_px``."""
        return 0.0 < width_px <= self.max_aa_line_width

    def supports_point_size(self, size_px: float) -> bool:
        return 0.0 < size_px <= self.max_point_size


@dataclass
class RasterState:
    """Mutable GL-like rendering state."""

    line_width: float = DEFAULT_AA_LINE_WIDTH
    point_size: float = DEFAULT_AA_LINE_WIDTH
    #: Additive blending (glBlendFunc(GL_ONE, GL_ONE)): each draw call adds
    #: its color to the covered pixels instead of replacing them.
    blend: bool = False
    color: float = EDGE_COLOR
    #: Render end points of each segment as wide points (Figure 6's
    #: "including the end points"); the distance test enables this so the
    #: widened footprint covers the full capsule around the boundary.
    cap_points: bool = False
    #: glLogicOp: "or" ORs the (integral) color into the buffer bits.
    logic_op: str | None = None
    #: Whether fragments write the color buffer at all (glColorMask).
    color_write: bool = True
    #: glStencilOp: "incr" increments the stencil value of covered pixels
    #: (saturating at 255, as the spec requires).
    stencil_op: str | None = None
    #: Write fragments' depth value into the depth buffer (glDepthMask).
    depth_write: bool = False
    #: glDepthFunc: "equal" discards fragments whose depth differs from the
    #: stored depth.  None disables the test (GL_ALWAYS).
    depth_test: str | None = None
    #: The depth value all fragments of a draw call carry (the technique
    #: renders flat 2D geometry at a constant z).
    depth_value: float = 0.5

    def reset_fragment_ops(self) -> None:
        """Restore the default write-color-only fragment pipeline."""
        self.blend = False
        self.logic_op = None
        self.color_write = True
        self.stencil_op = None
        self.depth_write = False
        self.depth_test = None

    def validate(self, limits: DeviceLimits) -> None:
        """Raise ValueError when the state exceeds the device limits."""
        if not limits.supports_line_width(self.line_width):
            raise ValueError(
                f"AA line width {self.line_width} exceeds device limit "
                f"{limits.max_aa_line_width}"
            )
        if not limits.supports_point_size(self.point_size):
            raise ValueError(
                f"point size {self.point_size} exceeds device limit "
                f"{limits.max_point_size}"
            )
