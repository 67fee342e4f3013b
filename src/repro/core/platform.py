"""Modeled execution time on the paper's 2003 platform (dual-clock method).

The hardware side of this reproduction is a *simulator*: a massively
parallel rasterizer executed serially in interpreted Python.  Raw host
wall-clock therefore misstates the comparison the paper makes - it charges
the GPU for Python overhead while crediting the CPU algorithms with a
like-for-like implementation.  Following standard architecture-simulation
practice, the library keeps **two clocks**:

* *wall-clock* - honest host seconds, reported by every experiment; and
* *modeled time* - deterministic operation counts (both sides are fully
  instrumented) multiplied by per-operation costs calibrated to the paper's
  platform: an AMD AthlonXP 1800+ running compiled C++ geometry code, and an
  NVIDIA GeForce4 Ti4600 behind a 2003-era OpenGL driver.

The calibration constants below are era estimates, set once and used for
every experiment (no per-experiment tuning): CPU constants from cycle
estimates of the inner loops at ~1.5 GHz, GPU constants from the card's
published fill/vertex rates and typical AGP-era driver overheads.
EXPERIMENTS.md reports both clocks for every figure; the paper's cost
*shapes* are evaluated on modeled time, which is what the substitution in
DESIGN.md section 2 promises.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry.min_dist import MinDistStats
from ..geometry.sweep import SweepStats
from ..gpu.counters import CostCounters
from .stats import RefinementStats


@dataclass(frozen=True)
class Platform2003:
    """Per-operation costs in microseconds on the paper's testbed."""

    # -- CPU (AthlonXP 1800+, compiled geometry code) -------------------
    #: Point-in-polygon: one edge of the crossing scan (~12 cycles).
    cpu_pip_edge_us: float = 0.008
    #: Per edge merely *scanned* by the refinement step (restriction
    #: filtering, edge flattening): the CPU must touch every vertex of both
    #: polygons before it can sweep anything - work the hardware path
    #: offloads to the GPU's transform stage (~60 cycles).
    cpu_scan_edge_us: float = 0.04
    #: Plane sweep: per edge admitted to the sweep (event-queue build).
    cpu_sweep_build_us: float = 0.15
    #: Plane sweep: per edge whose events are actually consumed (status
    #: maintenance in the balanced tree, neighbor bookkeeping) - the
    #: constant the paper's O((n+m) log(n+m)) hides (~1800 cycles).  An
    #: early-exiting sweep only pays it up to the first crossing.
    cpu_sweep_edge_us: float = 1.2
    #: One exact segment-pair intersection test (~150 cycles).
    cpu_segment_test_us: float = 0.1
    #: minDist: per edge of the linear passes (flatten, initial bound,
    #: frontier filtering).
    cpu_mindist_edge_us: float = 0.1
    #: One segment-segment distance evaluation (sqrt + clamping).
    cpu_mindist_pair_us: float = 0.15
    #: Fixed per-pair refinement dispatch (geometry fetch from the buffer
    #: pool, function call overhead).
    cpu_pair_dispatch_us: float = 0.5

    # -- GPU (GeForce4 Ti4600 + 2003 OpenGL driver) -----------------------
    #: Driver + command submission per draw call.
    gpu_draw_call_us: float = 1.5
    #: Per edge: vertex transform + AA line setup (GeForce4 Ti4600:
    #: 136M vertices/s published T&L rate).
    gpu_edge_us: float = 0.0075
    #: Per pixel actually covered by AA line rasterization.
    gpu_pixel_write_us: float = 0.004
    #: Per pixel of a buffer clear (fast path).
    gpu_clear_pixel_us: float = 0.0008
    #: Per pixel of a glAccum transfer (accumulation was a slow path on
    #: consumer cards).
    gpu_accum_pixel_us: float = 0.002
    #: Per pixel scanned by the Minmax extension (on-card block move).
    gpu_minmax_pixel_us: float = 0.003
    #: Per pixel transferred to host memory by glReadPixels (AGP readback
    #: was notoriously slow: tens of MB/s).
    gpu_readback_pixel_us: float = 0.12
    #: Latency per readback request (bus turnaround + driver sync).
    gpu_readback_latency_us: float = 60.0
    #: Per pixel of a distance-field construction pass (depth-cone
    #: rendering per Hoff et al. [12]: a handful of overdraw layers).
    gpu_distance_field_pixel_us: float = 0.02

    # -- CPU-side model -------------------------------------------------------

    def software_seconds(
        self,
        stats: RefinementStats,
        sweep: SweepStats,
        mindist: MinDistStats,
    ) -> float:
        """Modeled CPU time of the counted software refinement work."""
        us = (
            stats.pairs_tested * self.cpu_pair_dispatch_us
            + stats.pip_edges * self.cpu_pip_edge_us
            + sweep.edges_considered * self.cpu_scan_edge_us
            + sweep.edges_after_restriction * self.cpu_sweep_build_us
            + sweep.edges_processed * self.cpu_sweep_edge_us
            + sweep.candidate_tests * self.cpu_segment_test_us
            + mindist.edges_scanned * self.cpu_mindist_edge_us
            + mindist.pairs_tested * self.cpu_mindist_pair_us
        )
        return us * 1e-6

    # -- GPU-side model ---------------------------------------------------------

    def hardware_seconds(self, counters: CostCounters) -> float:
        """Modeled GPU+driver time of the counted rendering work.

        Every :class:`~repro.gpu.counters.CostCounters` field is charged
        here except four, each free for a reason: ``buffer_clears`` (the
        per-clear overhead is negligible next to ``pixels_cleared``; it
        only sizes a buffer for ``accum_ops``), ``minmax_ops`` (subsumed
        by ``pixels_scanned``), and ``tile_batches`` / ``tiles_packed``
        (batching shape; a batch's work is in the primitive counters it
        increments).  ``tests/gpu/test_costmodel.py`` pins the partition.
        """
        us = (
            counters.draw_calls * self.gpu_draw_call_us
            # Every submitted edge is transformed, including those the
            # clipping stage then discards.
            + (counters.edges_rendered + counters.edges_clipped_away)
            * self.gpu_edge_us
            + counters.pixels_written * self.gpu_pixel_write_us
            + counters.pixels_cleared * self.gpu_clear_pixel_us
            + counters.accum_ops * 0.0  # per-op cost folded into pixels
            + counters.pixels_scanned * self.gpu_minmax_pixel_us
            + counters.distance_field_pixels * self.gpu_distance_field_pixel_us
            + counters.pixels_transferred * self.gpu_readback_pixel_us
            + counters.readback_ops * self.gpu_readback_latency_us
        )
        # glAccum moves every pixel of the buffer per operation.
        if counters.accum_ops and counters.buffer_clears:
            pixels_per_buffer = counters.pixels_cleared / counters.buffer_clears
            us += counters.accum_ops * pixels_per_buffer * self.gpu_accum_pixel_us
        return us * 1e-6

    # -- combined ------------------------------------------------------------------

    def engine_seconds(self, engine) -> float:
        """Modeled refinement time of everything an engine has executed.

        Works for both engine types: the software engine has no GPU
        counters; the hardware engine adds its rendering work to the
        software work it still performs (PIP, surviving sweeps/minDists).
        """
        total = self.software_seconds(
            engine.stats, engine.sweep_stats, engine.mindist_stats
        )
        gpu = getattr(engine, "gpu_counters", None)
        if gpu is not None:
            total += self.hardware_seconds(gpu)
        return total


#: The default calibration used by all experiments.
PLATFORM_2003 = Platform2003()
