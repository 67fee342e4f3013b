"""Operation counting and an abstract GPU cost model.

Wall-clock comparisons between the simulated hardware path and the software
path are meaningful on any host (both run in the same process), but the
absolute ratio depends on interpreter and numpy overheads.  The pipeline
therefore also counts the primitive operations a real card would execute -
draw calls, edges transformed, pixels filled, buffer clears, Minmax scans -
and :class:`GpuCostModel` converts the counters into deterministic abstract
time.  The ablation benchmarks use the counters directly (e.g. Minmax vs
full readback moves pixels from an on-card scan to a bus transfer).
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


#: Counters :meth:`GpuCostModel.evaluate` deliberately does *not* charge,
#: with the reason each is free:
#:
#: * ``edges_clipped_away`` - clip rejection happens during the transform
#:   already billed per draw call; rejected edges never reach per-edge setup;
#: * ``buffer_clears`` - the per-operation overhead is negligible next to
#:   the per-pixel fill, which ``pixels_cleared`` charges;
#: * ``minmax_ops`` - likewise subsumed by ``pixels_scanned``;
#: * ``readback_ops`` - likewise subsumed by ``pixels_transferred``;
#: * ``tile_batches`` / ``tiles_packed`` - batching *shape* telemetry; the
#:   work a batch performs is already counted by the primitive counters it
#:   increments (draw calls, edges, pixels, scans).
DOCUMENTED_FREE = frozenset(
    {
        "edges_clipped_away",
        "buffer_clears",
        "minmax_ops",
        "readback_ops",
        "tile_batches",
        "tiles_packed",
    }
)


@dataclass(frozen=True)
class GpuCostModel:
    """Abstract per-operation costs (arbitrary units).

    The defaults encode the relative costs the paper's analysis relies on:
    per-pixel work is cheap, per-edge setup is cheap, but *bus transfers*
    (full readbacks) are expensive - the reason the Minmax function matters
    (section 3.2: pixel data would otherwise cross the video memory bus, the
    AGP bus, the main memory bus, and the frontside bus).
    """

    cost_draw_call: float = 20.0
    cost_edge: float = 4.0
    cost_pixel_write: float = 1.0
    cost_clear_pixel: float = 0.25
    cost_accum_op: float = 5.0
    cost_minmax_pixel: float = 0.5
    cost_readback_pixel: float = 40.0
    #: Distance-field construction is a multi-pass per-pixel sweep (cone
    #: rendering on 2003 hardware), dearer than a plain fill but still
    #: on-card - nowhere near readback territory.
    cost_distance_field_pixel: float = 2.0

    def evaluate(self, counters: CostCounters) -> float:
        """Total abstract cost of the counted operations.

        Every :class:`CostCounters` field is either charged here or listed
        in :data:`DOCUMENTED_FREE` with the reason it carries no cost of
        its own; a regression test enforces the partition so a new counter
        cannot silently evaluate to zero.
        """
        return (
            counters.draw_calls * self.cost_draw_call
            + counters.edges_rendered * self.cost_edge
            + counters.pixels_written * self.cost_pixel_write
            + counters.pixels_cleared * self.cost_clear_pixel
            + counters.accum_ops * self.cost_accum_op
            + counters.pixels_scanned * self.cost_minmax_pixel
            + counters.pixels_transferred * self.cost_readback_pixel
            + counters.distance_field_pixels * self.cost_distance_field_pixel
        )
