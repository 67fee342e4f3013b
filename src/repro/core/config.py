"""Configuration of the hardware-assisted refinement step.

The three knobs the paper's evaluation sweeps:

* ``resolution`` - the rendering window is ``resolution x resolution``
  pixels (Figures 11, 12, 15 sweep 1..32; section 5 recommends 8x8 as the
  balance point on their platform);
* ``sw_threshold`` - polygon pairs with ``n + m <= sw_threshold`` vertices
  skip the hardware test entirely (section 4.3, Figure 13);
* the device limits - in particular the maximum anti-aliased line width
  (10 px on the paper's platform), beyond which the distance test reverts
  to software (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache import CacheConfig
from ..gpu.state import DeviceLimits

#: Accumulated gray level that marks a pixel touched by both polygons.  Both
#: renders use color 0.5, so touched-by-both pixels hold exactly 1.0; the
#: threshold sits safely between 0.5 and 1.0 to be robust to float32
#: accumulation.
OVERLAP_THRESHOLD = 0.75


#: The overlap-search implementations of the paper's section 3: "there are
#: a number of ways to implement this strategy ... using hardware blending,
#: logical operations, depth buffer, and stencil buffer" (Hoff et al.),
#: plus the accumulation-buffer variant Algorithm 3.1 itself uses.
OVERLAP_METHODS = ("accum", "blend", "logic", "depth", "stencil")


@dataclass(frozen=True)
class HardwareConfig:
    """Parameters of the hardware-assisted tests."""

    resolution: int = 8
    sw_threshold: int = 0
    #: Which buffer mechanism detects overlapping pixels (OVERLAP_METHODS).
    method: str = "accum"
    #: How the within-distance test renders proximity: "lines" widens the
    #: anti-aliased lines per Equation (1) (the paper's published approach,
    #: subject to the device line-width limit), "field" renders thin
    #: boundaries and evaluates a distance field - the distance-insensitive
    #: approach the paper's section 5 announces as future work.
    distance_mode: str = "lines"
    limits: DeviceLimits = field(default_factory=DeviceLimits)
    #: Upper bound on pair tests packed into one tiled-refinement atlas
    #: submission (:class:`~repro.gpu.tiled.TiledPipeline`); the effective
    #: capacity is also bounded by the device viewport limit.
    batch_tiles: int = 256
    #: Memoization (:mod:`repro.cache`); off unless the caller passes an
    #: enabled :class:`~repro.cache.CacheConfig`.
    cache: CacheConfig = CacheConfig.disabled()

    def __post_init__(self) -> None:
        if self.method not in OVERLAP_METHODS:
            raise ValueError(
                f"unknown overlap method {self.method!r}; "
                f"choose from {OVERLAP_METHODS}"
            )
        if self.distance_mode not in ("lines", "field"):
            raise ValueError(
                f"unknown distance mode {self.distance_mode!r}; "
                "choose 'lines' or 'field'"
            )
        if self.resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {self.resolution}")
        if self.resolution > self.limits.max_viewport:
            raise ValueError(
                f"resolution {self.resolution} exceeds device viewport limit "
                f"{self.limits.max_viewport}"
            )
        if self.sw_threshold < 0:
            raise ValueError(f"sw_threshold must be >= 0, got {self.sw_threshold}")
        if self.batch_tiles < 1:
            raise ValueError(f"batch_tiles must be >= 1, got {self.batch_tiles}")

    def use_hardware_for(self, total_vertices: int) -> bool:
        """Section 4.3: hardware only pays off above the software threshold."""
        return total_vertices > self.sw_threshold
