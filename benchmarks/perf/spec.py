"""What the benchmark measures: workloads, metrics, bounds, layer table.

One table each for the workloads, the end-to-end metrics and the
per-layer metrics.  ``BENCHMARK.json`` at the repo root is the driver's
copy of the same names (a test keeps the two in step); the extra columns
here - which layer a metric belongs to, where its number comes from, and
which end-to-end metric on which workload it is expected to move - are
what a later performance issue quotes as its prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Measuring time of one run, seconds; the full run and ``BENCHMARK.json``
#: (``run_seconds``) both use it.
DEFAULT_SECONDS = 10

#: Fresh set-up repetitions whose median is ``setup_s``.
SETUP_REPETITIONS = 3

DIRECT = ("sel-water", "join-wp", "join-wp-intervals", "wd-ll")
SERVED = ("serve-sel",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Ops in one segment (one bracketed block of timed work).
    ops_per_segment: int
    #: Timed segments in a ``DEFAULT_SECONDS`` run.  The op count of a run
    #: is fixed by ``--seconds`` alone, never by how fast the host is, so
    #: both sides of a comparison time the same ops.
    segments: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sel-water",
            "Fig 11: 31 short heterogeneous selections; the only workload where "
            "per-query fixed cost matters and sweep, PIP and raster hold "
            "comparable shares.",
            ops_per_segment=31,
            segments=20,
        ),
        Workload(
            "join-wp",
            "Fig 12: WATER x PRISM join on full-complexity polygons with a giant "
            "feature; pure-Python point-in-polygon dominates, tiled raster is "
            "about a quarter.",
            ops_per_segment=1,
            segments=12,
        ),
        Workload(
            "join-wp-intervals",
            "Same join with the interval filter on: it settles four fifths of "
            "the candidates, so a PIP or raster gain must show almost nothing "
            "here and an interval gain only here.",
            ops_per_segment=8,
            segments=16,
        ),
        Workload(
            "wd-ll",
            "Fig 15: LANDC x LANDO within-distance join; widened-line raster "
            "and minDist instead of the sweep, dominated by the 0/1-object "
            "filters that are idle elsewhere.",
            ops_per_segment=1,
            segments=12,
        ),
        Workload(
            "serve-sel",
            "repro.serve closed loop at 2 clients = nproc: engine work is a "
            "tenth of the median round trip, so wire, asyncio, hand-off and "
            "admission dominate; geometry gains must not show.",
            ops_per_segment=310,
            segments=13,
        ),
    )
}


def segments_for(workload: str, seconds: float) -> int:
    """Timed segments in a run of ``seconds`` (at least two)."""
    scaled = WORKLOADS[workload].segments * seconds / DEFAULT_SECONDS
    return max(2, round(scaled))


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the baseline by which the metric may worsen; 0 = exact.
    #: The timing bounds are the driver's maximum: ten-run spreads on the
    #: reference host reach 0.16 in a noisy spell (README, "Measured
    #: steadiness"), and a bound must stay above its metric's spread.
    bound: float
    #: False for the metrics only the full report carries: a tail needs
    #: 200 / 1000 samples, an exact 0 has no relative bound, and the
    #: modeled clock repeats to the bit, so none of them can be a
    #: driver-checked metric on every workload.
    in_driver: bool
    who: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, True,
        "whoever restarts the process: nothing -> first answer, in "
        "calibrated seconds (generation, index and engine builds, server "
        "start, one warm-up op)",
    ),
    EndToEnd(
        "op_p50_cms", "cal_ms", "lower", 0.25, True,
        "a caller waiting for one query: the typical latency",
    ),
    EndToEnd(
        "op_p95_cms", "cal_ms", "lower", 0.25, False,
        "the same caller on a bad query; needs 200 samples",
    ),
    EndToEnd(
        "op_p99_cms", "cal_ms", "lower", 0.25, False,
        "a served client's tail; needs 1000 samples (serve-sel)",
    ),
    EndToEnd(
        "throughput_ops_s", "ops/cal_s", "higher", 0.25, True,
        "whoever sizes a batch job or a server: ops per calibrated second "
        "(mean-sensitive; on serve-sel, saturation at 2 clients)",
    ),
    EndToEnd(
        "modeled_ms_per_op", "modeled_ms", "lower", 0.0, False,
        "the paper's reader: the 2003-platform clock, bit-stable; a "
        "host-time change must leave it identical",
    ),
    EndToEnd(
        "failed_frac", "fraction", "lower", 0.0, False,
        "everyone: ops that raised, were refused, or disagreed with the "
        "software oracle",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.20, True,
        "whoever sizes the host: peak resident memory of the runner "
        "(direct) or of the server child (serve-sel; it moves in 7 MiB "
        "steps with how the two workers' allocations overlap, hence the "
        "bound; the direct workloads repeat within 0.02)",
    ),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: How the number is obtained, from outside the layer.
    source: str
    #: ``(end-to-end metric, workload)`` this metric is expected to move.
    moves: Tuple[Tuple[str, str], ...]
    #: Workloads on which it is expected to stay put.
    holds: str = ""


def _on(metric: str, *workloads: str) -> Tuple[Tuple[str, str], ...]:
    return tuple((metric, w) for w in workloads)


_ALL = DIRECT + SERVED

PER_LAYER: Tuple[Layer, ...] = (
    Layer("modeled_ms_per_op", "modeled_ms", "lower",
          "PLATFORM_2003.engine_seconds after reset_stats + one segment",
          (), "everything, unless an operation count changes"),
    Layer("datasets.generate_s", "cal_s", "lower", "timing datasets.load",
          _on("setup_s", *_ALL), "any op_*"),
    Layer("index.str_bulk_load_s", "cal_s", "lower", "timing str_bulk_load",
          _on("setup_s", "sel-water"), "joins"),
    Layer("index.rtree_search_ms", "cal_ms", "lower", "timing RTree.search",
          _on("op_p50_cms", "sel-water"), "joins"),
    Layer("index.mbr_join_ms", "cal_ms", "lower",
          "timing plane_sweep_mbr_join",
          _on("op_p50_cms", "join-wp-intervals"), "sel-water; < 2 % of join-wp"),
    Layer("index.candidates", "count", "lower", "len of the candidate list",
          (), "fixed by the inputs"),
    Layer("filters.intervals_build_s", "cal_s", "lower",
          "timing IntervalIndex.for_datasets",
          _on("setup_s", "join-wp-intervals"), "all others"),
    Layer("filters.intervals_classify_ms", "cal_ms", "lower",
          "replay: IntervalIndex.encode + classify_intervals",
          _on("op_p50_cms", "join-wp-intervals")
          + _on("throughput_ops_s", "join-wp-intervals"),
          "join-wp, wd-ll, serve-sel"),
    Layer("filters.intervals_us_per_pair", "cal_us", "lower",
          "classify time / candidates", _on("op_p50_cms", "join-wp-intervals")),
    Layer("filters.intervals_resolved_frac", "fraction", "higher",
          "(interval_hits + interval_drops) / candidates",
          _on("op_p50_cms", "join-wp-intervals")),
    Layer("filters.object_bounds_ms", "cal_ms", "lower",
          "replay: zero_/one_object_upper_bound",
          _on("op_p50_cms", "wd-ll") + _on("throughput_ops_s", "wd-ll"),
          "all others"),
    Layer("filters.object_resolved_frac", "fraction", "higher",
          "filter_positives / candidates", _on("op_p50_cms", "wd-ll")),
    Layer("geometry.pip_ms", "cal_ms", "lower",
          "replay: Rect.contains_point + locate_point",
          _on("op_p50_cms", "join-wp", "sel-water")
          + _on("throughput_ops_s", "join-wp"),
          "wd-ll, serve-sel; <= 1/5 of the join-wp effect on join-wp-intervals"),
    Layer("geometry.pip_edges", "count", "lower", "RefinementStats.pip_edges",
          (), "must not move: the modeled clock prices it"),
    Layer("geometry.pip_resolved_frac", "fraction", "higher",
          "pip_hits / pairs_tested", ()),
    Layer("geometry.sweep_ms", "cal_ms", "lower",
          "replay: boundaries_intersect on hardware-MAYBE pairs",
          _on("op_p50_cms", "sel-water", "join-wp-intervals")
          + _on("op_p95_cms", "sel-water"),
          "wd-ll, serve-sel"),
    Layer("geometry.sweep_calls", "count", "lower", "sw_segment_tests", ()),
    Layer("geometry.mindist_ms", "cal_ms", "lower",
          "replay: min_boundary_distance with early exit",
          _on("op_p50_cms", "wd-ll"), "intersection workloads"),
    Layer("geometry.mindist_calls", "count", "lower", "sw_distance_tests", ()),
    Layer("core.hw_batch_ms", "cal_ms", "lower", "geometry.hw_batch span",
          _on("op_p50_cms", "join-wp", "sel-water"), "serve-sel"),
    Layer("core.hw_self_ms", "cal_ms", "lower",
          "geometry.hw_batch span - gpu.tile_batch spans",
          _on("op_p50_cms", "join-wp", "sel-water"), "serve-sel"),
    Layer("core.hw_tests", "count", "lower", "RefinementStats.hw_tests", ()),
    Layer("core.hw_filter_rate", "fraction", "higher",
          "hw_rejects / hw_tests", _on("modeled_ms_per_op", *DIRECT)),
    Layer("core.hw_false_positive_rate", "fraction", "lower",
          "hw_false_positives / (hw_tests - hw_rejects)",
          _on("modeled_ms_per_op", *DIRECT)),
    Layer("core.width_fallbacks", "count", "lower",
          "RefinementStats.width_limit_fallbacks", _on("op_p50_cms", "wd-ll")),
    Layer("gpu.tile_batch_ms", "cal_ms", "lower", "gpu.tile_batch span",
          _on("op_p50_cms", "join-wp", "sel-water", "wd-ll"),
          "join-wp-intervals (about 7 %), serve-sel"),
    Layer("gpu.tile_batches", "count", "lower", "engine.gpu_counters", ()),
    Layer("gpu.tiles_packed", "count", "lower", "engine.gpu_counters", ()),
    Layer("gpu.edges_rendered", "count", "lower", "engine.gpu_counters", ()),
    Layer("gpu.pixels_scanned", "count", "lower", "engine.gpu_counters", ()),
    Layer("gpu.us_per_edge", "cal_us", "lower",
          "tile_batch time / edges_rendered", _on("op_p50_cms", "join-wp")),
    Layer("query.mbr_filter_ms", "cal_ms", "lower",
          "CostBreakdown.mbr_filter_s", _on("op_p50_cms", *DIRECT)),
    Layer("query.intermediate_filter_ms", "cal_ms", "lower",
          "CostBreakdown.intermediate_filter_s",
          _on("op_p50_cms", "join-wp-intervals", "wd-ll")),
    Layer("query.geometry_ms", "cal_ms", "lower", "CostBreakdown.geometry_s",
          _on("op_p50_cms", *DIRECT)),
    Layer("query.self_ms", "cal_ms", "lower", "op time - stage seconds",
          _on("op_p50_cms", "sel-water")),
    Layer("serve.exec_p50_ms", "cal_ms", "lower", "QueryResponse.exec_s",
          _on("op_p50_cms", "serve-sel"), "the four direct workloads"),
    Layer("serve.wait_p50_ms", "cal_ms", "lower", "QueryResponse.wait_s",
          _on("op_p99_cms", "serve-sel"), "the four direct workloads"),
    Layer("serve.overhead_p50_ms", "cal_ms", "lower",
          "client round trip - exec_s - wait_s",
          _on("op_p50_cms", "serve-sel") + _on("throughput_ops_s", "serve-sel"),
          "the four direct workloads"),
    Layer("serve.submit_overhead_us", "cal_us", "lower",
          "in-process QueryService.submit - exec_s",
          _on("op_p50_cms", "serve-sel")),
    Layer("serve.wire_codec_us", "cal_us", "lower",
          "json + QueryRequest.from_dict / QueryResponse.to_dict on the "
          "recorded payloads", _on("op_p50_cms", "serve-sel")),
    Layer("serve.shed", "count", "lower", "responses with status shed", ()),
    Layer("serve.timeout", "count", "lower", "responses with status timeout", ()),
    Layer("serve.error", "count", "lower", "responses with status error", ()),
    Layer("obs.tracer_us_per_op", "cal_us", "lower",
          "ops under use_tracer(Tracer()) minus plain ops", (),
          "nothing when off"),
    Layer("obs.registry_us_per_op", "cal_us", "lower",
          "sel-water ops under use_registry(MetricsRegistry()) minus plain ops",
          (), "nothing when off"),
    Layer("trace.overhead_frac", "fraction", "lower",
          "traced mean op / untraced mean op - 1", ()),
    Layer("trace.coverage_frac", "fraction", "higher",
          "sum of replayed layer times / untraced mean op; outside 0.8-1.2 "
          "the replay no longer mirrors the pipeline", ()),
)

LAYER_NAMES = tuple(layer.name for layer in PER_LAYER)

