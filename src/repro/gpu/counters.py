"""Operation counting on the simulated card.

Wall-clock comparisons between the simulated hardware path and the software
path are meaningful on any host (both run in the same process), but the
absolute ratio depends on interpreter and numpy overheads.  The pipeline
therefore also counts the primitive operations a real card would execute -
draw calls, edges transformed, pixels filled, buffer clears, Minmax scans -
and :meth:`~repro.core.platform.Platform2003.hardware_seconds` prices the
counters as deterministic modeled time.  The ablation benchmarks use the
counters directly (e.g. Minmax vs full readback moves pixels from an
on-card scan to a bus transfer).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostCounters:
    """Primitive-operation counters accumulated by the pipeline."""

    draw_calls: int = 0
    edges_rendered: int = 0
    edges_clipped_away: int = 0
    pixels_written: int = 0
    buffer_clears: int = 0
    pixels_cleared: int = 0
    accum_ops: int = 0
    minmax_ops: int = 0
    pixels_scanned: int = 0
    #: Pixels of distance-field construction passes (the D-insensitive
    #: distance test; cone rendering on real 2003 hardware).
    distance_field_pixels: int = 0
    readback_ops: int = 0
    pixels_transferred: int = 0
    #: Tiled-refinement batches submitted (one atlas render + per-tile
    #: Minmax round-trip, however many pair tests it carried).
    tile_batches: int = 0
    #: Pair tests packed into atlas tiles across all batches.  Together
    #: with ``tile_batches`` this exposes the amortization the batched
    #: path claims: per-submission overheads (draw calls, clears, accum
    #: transfers, Minmax round-trips) are paid per *batch*, not per pair.
    tiles_packed: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> "CostCounters":
        return CostCounters(
            **{name: getattr(self, name) for name in self.__dataclass_fields__}
        )
