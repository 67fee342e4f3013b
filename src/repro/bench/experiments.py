"""Experiment declarations: one per table/figure of the paper.

Each declaration regenerates the rows/series of its table or figure at a
chosen :mod:`~repro.bench.scales` preset: the :func:`~.runner.experiment`
decorator records the id, title, columns and the qualitative shape the
paper reports (``paper_expectation``); the decorated generator yields the
rows, working only through the :class:`~.runner.RunContext` it is handed.
``python -m repro.bench`` runs them from the command line; ``benchmarks/``
wraps them for pytest-benchmark; EXPERIMENTS.md records paper-vs-measured.

Every hardware-vs-software comparison reports **two clocks** (see
:mod:`repro.core.platform`):

* ``wall_ms`` - honest host milliseconds of this Python process;
* ``model_ms`` - modeled milliseconds on the paper's 2003 testbed, computed
  from the deterministic operation counts both engines record.  The paper's
  cost *shapes* are evaluated on the modeled clock, since charging a
  parallel rasterizer at serial-interpreted-Python rates would misstate the
  comparison the paper makes.

Selection experiments report the average cost per query over the STATES50
query set, exactly as the paper does (section 4.1.2).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ..cache import CacheConfig
from ..core import (
    OVERLAP_METHODS,
    HardwareConfig,
    HardwareEngine,
    HardwareSegmentTest,
    HardwareVerdict,
)
from ..core.projection import intersection_window, union_window
from ..datasets import CATALOG, SpatialDataset, base_distance
from ..filters.intervals import (
    DEFAULT_INTERVAL_LEVEL,
    IntervalIndex,
    classify_intervals,
)
from ..geometry import (
    Point,
    Polygon,
    boundaries_intersect,
    polygons_within_distance,
)
from ..index import plane_sweep_mbr_join
from ..obs.explain import explain_run
from ..query import (
    ContainmentSelection,
    IntersectionJoin,
    IntersectionSelection,
    NearestNeighborQuery,
    WithinDistanceJoin,
)
from .runner import MS, exact, experiment, saving_pct, speedup, wall

RESOLUTIONS = (1, 2, 4, 8, 16, 32)
DISTANCE_FACTORS = (0.1, 0.5, 1.0, 2.0, 4.0)
JOIN_PAIRS = (("LANDC", "LANDO"), ("WATER", "PRISM"))
SELECTION_DATASETS = ("WATER", "PRISM")
SW_THRESHOLDS = (0, 50, 100, 200, 300, 500, 700, 900, 1200, 1500)


class _PerPairTester(HardwareSegmentTest):
    """Decides a batch the paper-literal way: one submission per pair.

    Steps 2.1-2.8 run once per candidate through the configured overlap
    method's own buffer mechanism, never through the atlas - the reference
    the batched verdicts are measured against.
    """

    def intersection_verdicts_batch(self, pairs):
        return [self.intersection_verdict(a, b, w) for a, b, w in pairs]

    def distance_verdicts_batch(self, pairs, d):
        return [self.distance_verdict(a, b, w, d) for a, b, w in pairs]


def per_pair_engine(config: HardwareConfig) -> HardwareEngine:
    """A hardware engine whose hardware stage submits pair by pair.

    Same staged refinement, same statistics; only the experiments that
    measure what batching or a buffer mechanism costs (and the tests that
    pin batched == per-pair) build one.
    """
    engine = HardwareEngine(config)
    engine.hw = _PerPairTester(engine.config)
    return engine


def _join(ds_a, ds_b):
    """One intersection join as work for whichever engine is handed to it."""
    return lambda engine: IntersectionJoin(ds_a, ds_b, engine).run()


def _within(ds_a, ds_b, d):
    """Likewise, one within-distance join at distance ``d``."""
    return lambda engine: WithinDistanceJoin(ds_a, ds_b, engine).run(d)


def _resolution_columns(workload, *also):
    """The columns of the software-vs-hardware-by-resolution figures (11, 12, 15)."""
    return (
        exact(workload),
        exact("engine"),
        exact("res"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("hw_filter_rate"),
        *map(exact, also),
        exact("model_speedup"),
    )


def _resolution_rows(label, runs, per=1, also=()):
    """Their rows: the software run's, then one per hardware resolution.

    ``per`` divides both clocks (a selection reports the average per query);
    ``also`` names the :class:`~repro.core.stats.RefinementStats` counters
    under the further columns.
    """
    sw, *hw_runs = runs
    dashes = ("-",) * (1 + len(also))
    yield (label, "software", "-", sw.geometry_ms / per, sw.model_ms / per, *dashes, "-")
    for hw in hw_runs:
        yield (
            label,
            "hardware",
            hw.engine.config.resolution,
            hw.geometry_ms / per,
            hw.model_ms / per,
            round(hw.engine.stats.hw_filter_rate, 3),
            *(getattr(hw.engine.stats, name) for name in also),
            speedup(sw.model_ms / per, hw.model_ms / per),
        )


@experiment(
    "table2",
    title="Statistics of the polygon datasets (scaled stand-ins)",
    columns=(
        exact("dataset"),
        exact("N"),
        exact("min_v"),
        exact("max_v"),
        exact("mean_v"),
        exact("paper_N"),
        exact("paper_min"),
        exact("paper_max"),
        exact("paper_mean"),
    ),
    paper_expectation=(
        "Five real GIS layers; LANDC/PRISM/WATER are complex (high mean "
        "vertex counts with heavy-tailed maxima), LANDO is simple (mean "
        "20), STATES50 has 31 large polygons."
    ),
)
def table2(ctx):
    """Table 2: dataset statistics (synthetic stand-ins vs. paper targets)."""
    for name, entry in CATALOG.items():
        stats = ctx.load(name).stats()
        yield (
            name,
            stats.count,
            stats.min_vertices,
            stats.max_vertices,
            round(stats.mean_vertices, 1),
            entry.count,
            entry.vmin,
            entry.vmax,
            entry.vmean,
        )


@experiment(
    "fig10",
    title="Intersection selection cost breakdown vs tiling level (software)",
    columns=(
        exact("dataset"),
        exact("level"),
        wall("mbr_ms"),
        wall("interior_ms"),
        wall("geometry_ms"),
        wall("total_ms"),
        exact("filter_pos"),
        exact("results"),
    ),
    paper_expectation=(
        "MBR filtering is negligible (~1 ms); geometry comparison "
        "dominates; higher tiling levels reduce geometry cost by <10% "
        "(the filter only catches containment positives, which the "
        "point-in-polygon step handles cheaply anyway) while the "
        "interior-filter overhead grows, so total cost eventually rises."
    ),
)
def fig10(ctx, datasets=SELECTION_DATASETS, levels=range(0, 7)):
    """Figure 10: software-only selection cost per interior-filter level."""
    queries = ctx.queries()
    ctx.params["queries"] = "STATES50"
    ctx.notes.append("wall-clock stage times (software-only experiment)")
    for name in datasets:
        ds = ctx.load(name, role="selection")
        for level in levels:
            selection = IntersectionSelection(ds, ctx.software(), interior_level=level)
            cost = selection.run_query_set(queries)
            yield (
                name,
                level,
                cost.mbr_filter_s * MS,
                cost.intermediate_filter_s * MS,
                cost.geometry_s * MS,
                cost.total_s * MS,
                cost.filter_positives,
                cost.results,
            )


@experiment(
    "fig11",
    title="Selection geometry comparison: software vs hardware by resolution",
    columns=_resolution_columns("dataset"),
    paper_expectation=(
        "Hardware cost first falls with resolution (more near-miss pairs "
        "filtered) then rises (per-pixel overhead); best around 16x16; "
        "cost reduced 42-56% for WATER and 46-64% for PRISM; even a 1x1 "
        "window filters some pairs."
    ),
)
def fig11(ctx, datasets=SELECTION_DATASETS, resolutions=RESOLUTIONS):
    """Figure 11: selection geometry-comparison cost vs window resolution."""
    queries = ctx.queries()
    ctx.params["queries"] = "STATES50"

    def select(engine):
        selection = IntersectionSelection(ds, engine)
        return [selection.run(q) for q in queries]

    for name in datasets:
        ds = ctx.load(name, role="selection")
        runs = ctx.sweep(
            ctx.software_then_hardware(resolutions),
            select,
            answer=lambda results: [r.ids for r in results],
        )
        yield from _resolution_rows(name, runs, per=len(queries))


@experiment(
    "fig12",
    title="Intersection join geometry comparison by resolution",
    columns=_resolution_columns("join"),
    paper_expectation=(
        "Cost falls then rises with resolution; 68-80% reduction for "
        "WATER|><|PRISM (up to 4.8x speedup), at best 38% for "
        "LANDC|><|LANDO, where high resolutions can make hardware "
        "*worse* than software (simple polygons, fixed per-test "
        "overhead)."
    ),
)
def fig12(ctx, pairs=JOIN_PAIRS, resolutions=RESOLUTIONS):
    """Figure 12: intersection join geometry cost vs window resolution."""
    for pair in pairs:
        ds_a, ds_b, label = ctx.load_pair(pair)
        runs = ctx.sweep(ctx.software_then_hardware(resolutions), _join(ds_a, ds_b))
        yield from _resolution_rows(label, runs)


@experiment(
    "fig13",
    title="Effect of sw_threshold on hybrid intersection join",
    columns=(
        exact("join"),
        exact("engine"),
        exact("res"),
        exact("threshold"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("bypasses"),
    ),
    paper_expectation=(
        "Cost improves as the threshold grows to an optimum (~900 at "
        "16x16, ~300 at 8x8 on the paper's platform), then slowly "
        "degrades toward the software curve; a wide range of thresholds "
        "is near-optimal (within ~12%)."
    ),
)
def fig13(ctx, pair=("LANDC", "LANDO"), resolutions=(8, 16), thresholds=SW_THRESHOLDS):
    """Figure 13: effect of the software threshold on the hybrid join."""
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params["pair"] = label
    engines = [ctx.software()] + [
        ctx.hardware(resolution=res, sw_threshold=threshold)
        for res in resolutions
        for threshold in thresholds
    ]
    sw, *hw_runs = ctx.sweep(engines, _join(ds_a, ds_b))
    yield (label, "software", "-", "-", sw.geometry_ms, sw.model_ms, "-")
    for hw in hw_runs:
        yield (
            label,
            "hardware",
            hw.engine.config.resolution,
            hw.engine.config.sw_threshold,
            hw.geometry_ms,
            hw.model_ms,
            hw.engine.stats.threshold_bypasses,
        )


@experiment(
    "fig14",
    title="Within-distance join (software): cost breakdown vs distance",
    columns=(
        exact("join"),
        exact("D/BaseD"),
        wall("mbr_ms"),
        wall("filters_ms"),
        wall("geometry_ms"),
        wall("total_ms"),
        exact("model_geom_ms"),
        exact("filter_pos"),
        exact("results"),
    ),
    paper_expectation=(
        "Within-distance joins cost more than intersection joins; "
        "despite aggressive 0/1-Object filtering the geometry comparison "
        "still dominates the total cost."
    ),
)
def fig14(ctx, pairs=JOIN_PAIRS, factors=DISTANCE_FACTORS):
    """Figure 14: software within-distance join, cost breakdown vs D."""
    ctx.params["factors"] = list(factors)
    for pair in pairs:
        ds_a, ds_b, label = ctx.load_pair(pair)
        base_d = base_distance(ds_a, ds_b)
        for factor in factors:
            run = ctx.run(ctx.software(), _within(ds_a, ds_b, base_d * factor))
            c = run.result.cost
            yield (
                label,
                factor,
                c.mbr_filter_s * MS,
                c.intermediate_filter_s * MS,
                c.geometry_s * MS,
                c.total_s * MS,
                run.model_ms,
                c.filter_positives,
                c.results,
            )


@experiment(
    "fig15",
    title="Within-distance geometry comparison by resolution (D = BaseD)",
    columns=_resolution_columns("join", "width_fallbacks"),
    paper_expectation=(
        "Same falling-then-rising shape as intersection; widened lines "
        "are costlier to render, so hardware barely beats software for "
        "LANDC|><|LANDO but cuts 60-81% (up to 5.9x) for WATER|><|PRISM."
    ),
)
def fig15(ctx, pairs=JOIN_PAIRS, resolutions=RESOLUTIONS, factor=1.0):
    """Figure 15: within-distance geometry cost vs resolution at D=BaseD."""
    ctx.params["factor"] = factor
    for pair in pairs:
        ds_a, ds_b, label = ctx.load_pair(pair)
        runs = ctx.sweep(
            ctx.software_then_hardware(resolutions, sw_threshold=0),
            _within(ds_a, ds_b, base_distance(ds_a, ds_b) * factor),
        )
        yield from _resolution_rows(label, runs, also=("width_limit_fallbacks",))


@experiment(
    "fig16",
    title="Within-distance join vs query distance (hardware 8x8, threshold 500)",
    columns=(
        exact("join"),
        exact("D/BaseD"),
        exact("sw_model_ms"),
        exact("hw_model_ms"),
        exact("improvement_%"),
        exact("width_fallbacks"),
        exact("results"),
    ),
    paper_expectation=(
        "The hardware margin narrows as D grows (thicker lines cost "
        "more; Equation-1 widths beyond the 10px device limit force "
        "software fallback): LANDC|><|LANDO improvement shrinks from "
        "43% to ~0, WATER|><|PRISM from 83% to 74%."
    ),
)
def fig16(ctx, pairs=JOIN_PAIRS, factors=DISTANCE_FACTORS, resolution=8, sw_threshold=500):
    """Figure 16: hardware vs software as D grows (8x8, threshold 500)."""
    ctx.params.update(resolution=resolution, sw_threshold=sw_threshold)
    for pair in pairs:
        ds_a, ds_b, label = ctx.load_pair(pair)
        base_d = base_distance(ds_a, ds_b)
        for factor in factors:
            sw, hw = ctx.sweep(
                (ctx.software(), ctx.hardware(resolution=resolution, sw_threshold=sw_threshold)),
                _within(ds_a, ds_b, base_d * factor),
            )
            yield (
                label,
                factor,
                sw.model_ms,
                hw.model_ms,
                saving_pct(sw.model_ms, hw.model_ms),
                hw.engine.stats.width_limit_fallbacks,
                len(sw.result.pairs),
            )


@experiment(
    "ext-distance-field",
    title="Within-distance filter: widened lines vs distance field",
    columns=(
        exact("join"),
        exact("D/BaseD"),
        exact("lines_model_ms"),
        exact("lines_fallbacks"),
        exact("field_model_ms"),
        exact("field_fallbacks"),
        exact("field_filter_rate"),
    ),
    paper_expectation=(
        "Section 5: 'We are currently working on a new approach that is "
        "insensitive to query distances.'  The field variant should show "
        "zero width-limit fallbacks at every D and a cost that does not "
        "blow up with the distance, where the line variant degrades."
    ),
)
def ext_distance_field(
    ctx,
    pair=("WATER", "PRISM"),
    factors=DISTANCE_FACTORS,
    resolution=32,
    sw_threshold=500,
):
    """Section 5's announced future work: widened lines vs. distance field.

    The published widened-line test degrades as D grows and reverts to
    software beyond the device's 10-pixel line-width limit (visible at
    32x32 in figure 15); the distance-field test renders thin boundaries
    once and evaluates a field, so its cost is independent of D and no
    fallback ever occurs.
    """
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params.update(pair=label, resolution=resolution, sw_threshold=sw_threshold)
    base_d = base_distance(ds_a, ds_b)
    for factor in factors:
        lines, field = ctx.sweep(
            (
                ctx.hardware(resolution=resolution, sw_threshold=sw_threshold, distance_mode=mode)
                for mode in ("lines", "field")
            ),
            _within(ds_a, ds_b, base_d * factor),
        )
        yield (
            label,
            factor,
            lines.model_ms,
            lines.engine.stats.width_limit_fallbacks,
            field.model_ms,
            field.engine.stats.width_limit_fallbacks,
            round(field.engine.stats.hw_filter_rate, 3),
        )


@experiment(
    "ext-containment",
    title="Containment selection: hardware-confirmed positives",
    columns=(
        exact("engine"),
        exact("res"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("hw_confirmed"),
        exact("sw_sweeps"),
    ),
    paper_expectation=(
        "Table 1: the interior filter targets intersection AND "
        "containment.  For containment the hardware's clean miss is a "
        "positive proof, so software sweeps drop for contained objects "
        "too - a stronger version of the intersection result."
    ),
)
def ext_containment(ctx, dataset="WATER", resolutions=(4, 8, 16, 32), interior_level=4):
    """Containment selection: objects strictly inside each STATES50 query.

    Table 1 lists the interior filter's query types as "Intersection and
    Containment"; this experiment runs the containment side.  Unlike
    intersection, here a clean hardware miss *confirms* a positive
    (boundaries disjoint + vertex inside => contained), so the hardware
    saves software sweeps on positives and negatives alike.
    """
    queries = ctx.queries()
    ds = ctx.load(dataset, role="selection")
    ctx.params.update(dataset=dataset, queries="STATES50", interior_level=interior_level)

    def select(engine) -> List[List[int]]:
        sel = ContainmentSelection(ds, engine, interior_level=interior_level)
        return [sel.run(q).ids for q in queries]

    sw, *hw_runs = ctx.sweep(ctx.software_then_hardware(resolutions), select)
    yield ("software", "-", sw.wall_ms, sw.model_ms, "-", sw.engine.stats.sw_segment_tests)
    for hw in hw_runs:
        yield (
            "hardware",
            hw.engine.config.resolution,
            hw.wall_ms,
            hw.model_ms,
            hw.engine.stats.hw_rejects,
            hw.engine.stats.sw_segment_tests,
        )


@experiment(
    "ext-voronoi-nn",
    title="Nearest neighbors: best-first R-tree vs hardware Voronoi filter",
    columns=(
        exact("strategy"),
        wall("wall_ms"),
        exact("exact_distance_calls"),
        exact("boundaries_rendered"),
    ),
    paper_expectation=(
        "Section 5: 'explore other spatial operations such as nearest "
        "neighbor queries using hardware calculated Voronoi diagrams "
        "[12]'.  Identical answers; the Voronoi filter trades exact "
        "edge scans for fixed-resolution boundary renders."
    ),
)
def ext_voronoi_nn(ctx, dataset="WATER", query_count=40, k=1, resolution=32):
    """Section 5's other future-work item: NN queries with hardware Voronoi.

    Compares the best-first R-tree search (software baseline) against the
    Voronoi-filtered strategy: render each candidate's boundary once into a
    window around the query, build the discrete Voronoi diagram (simulating
    Hoff et al.'s cone rendering), and only refine candidates the diagram
    cannot exclude.  Both return identical neighbors; the interesting
    quantity is how many exact point-to-polygon distance computations each
    strategy pays, since those scan every edge of complex polygons.
    """
    ds = ctx.load(dataset, role="selection")
    ctx.params.update(dataset=dataset, queries=query_count, k=k, resolution=resolution)
    rng = random.Random(2003)
    world = ds.world
    queries = [
        Point(
            rng.uniform(world.xmin, world.xmax),
            rng.uniform(world.ymin, world.ymax),
        )
        for _ in range(query_count)
    ]
    # A NearestNeighborQuery answers by the strategy it was built for.
    voronoi = NearestNeighborQuery(ds, hardware=ctx.config(resolution=resolution))
    sw, hw = ctx.sweep(
        (NearestNeighborQuery(ds), voronoi),
        lambda nn: [nn.run(q, k=k) for q in queries],
        answer=lambda results: [[d for d, _ in r.neighbors] for r in results],
    )
    sw_exact = sum(r.exact_distance_calls for r in sw.result)
    hw_exact = sum(r.exact_distance_calls for r in hw.result)
    hw_rendered = sum(r.candidates_rendered for r in hw.result)
    yield ("software", sw.wall_ms, sw_exact, "-")
    yield ("hardware-voronoi", hw.wall_ms, hw_exact, hw_rendered)


def _candidate_polygon_pairs(ds_a, ds_b, d=0.0):
    """The polygon pairs whose MBRs come within ``d`` of each other."""
    candidates = plane_sweep_mbr_join(ds_a.mbrs, ds_b.mbrs, distance=d)
    return [(ds_a.polygons[i], ds_b.polygons[j]) for i, j in candidates]


@experiment(
    "ablation-restricted-sweep",
    title="Plane sweep with vs without restricted search space",
    columns=(
        exact("variant"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("edges_swept"),
        exact("candidate_tests"),
        exact("hits"),
    ),
    paper_expectation=(
        "Restricting the sweep to edges intersecting both MBRs gives "
        "about 30-40% practical improvement without changing complexity."
    ),
)
def ablation_restricted_sweep(ctx, pair=("LANDC", "LANDO")):
    """Restricted search space on/off (paper section 4.1.1: 30-40% better)."""
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params["pair"] = label
    candidates = _candidate_polygon_pairs(ds_a, ds_b)

    # The bare sweep, not the engine's staged test: the software engine
    # carries the variant's knob and is the ledger the sweep counts into,
    # so the one price list (Run.model_ms) applies.
    def sweep(engine) -> int:
        return sum(
            boundaries_intersect(a, b, engine.restrict_search_space, engine.sweep_stats)
            for a, b in candidates
        )

    engines = (ctx.software(restrict_search_space=restricted) for restricted in (True, False))
    for run in ctx.sweep(engines, sweep):
        yield (
            "restricted" if run.engine.restrict_search_space else "full",
            run.wall_ms,
            run.model_ms,
            run.engine.sweep_stats.edges_after_restriction,
            run.engine.sweep_stats.candidate_tests,
            run.result,
        )


@experiment(
    "ablation-mindist",
    title="minDist pruning stages on/off (within-distance predicate)",
    columns=(
        exact("variant"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("edge_pairs_tested"),
        exact("hits"),
    ),
    paper_expectation=(
        "The extended-MBR chain clipping reduces computational cost by "
        "a factor of 2 to 6 on top of the frontier chains."
    ),
)
def ablation_mindist_opts(ctx, pair=("WATER", "PRISM"), factor=1.0):
    """minDist optimizations on/off (paper section 4.1.1: 2-6x reduction)."""
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params.update(pair=label, factor=factor)
    d = base_distance(ds_a, ds_b) * factor
    candidates = _candidate_polygon_pairs(ds_a, ds_b, d)
    variants = {
        "frontier+extended-mbr": dict(use_frontier=True, use_extended_mbr=True),
        "frontier-only": dict(use_frontier=True, use_extended_mbr=False),
        "no-pruning": dict(use_frontier=False, use_extended_mbr=False),
    }

    # The bare predicate; the software engine is the ledger it counts into.
    def min_dist(pruning):
        return lambda engine: sum(
            polygons_within_distance(a, b, d, stats=engine.mindist_stats, **pruning)
            for a, b in candidates
        )

    runs = ctx.compare(ctx.run(ctx.software(), min_dist(p)) for p in variants.values())
    for variant, run in zip(variants, runs):
        pairs_tested = run.engine.mindist_stats.pairs_tested
        yield (variant, run.wall_ms, run.model_ms, pairs_tested, run.result)


@experiment(
    "ablation-minmax",
    title="Buffer search: hardware Minmax vs glReadPixels readback",
    columns=(
        exact("variant"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("overlaps"),
    ),
    paper_expectation=(
        "Minmax avoids moving pixels over the video/AGP/memory buses; "
        "with thousands-to-millions of tests per query the saving is "
        "essential (section 3.2)."
    ),
)
def ablation_minmax(ctx, pair=("LANDC", "LANDO"), resolution=16):
    """Hardware Minmax vs full-buffer readback (paper section 3.2)."""
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params.update(pair=label, resolution=resolution)
    candidates = [
        (a, b, intersection_window(a.mbr, b.mbr))
        for a, b in _candidate_polygon_pairs(ds_a, ds_b)
    ]
    candidates = [(a, b, w) for a, b, w in candidates if w is not None]

    def minmax(engine) -> int:
        return sum(
            engine.hw.intersection_verdict(a, b, w) is HardwareVerdict.MAYBE
            for a, b, w in candidates
        )

    def readback(engine) -> int:
        # overlap_image: the full readback through the bus
        return sum(
            bool(engine.hw.overlap_image(a, b, w).max() >= 0.75)
            for a, b, w in candidates
        )

    runs = ctx.compare(
        ctx.run(ctx.hardware(resolution=resolution), search)
        for search in (minmax, readback)
    )
    for variant, run in zip(("minmax", "readback"), runs):
        yield (variant, run.wall_ms, run.model_ms, run.result)


@experiment(
    "ablation-overlap-methods",
    title="Overlap search via accum / blend / logic / depth / stencil",
    columns=(
        exact("method"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("hw_rejects"),
        exact("accum_ops"),
        exact("buffer_clears"),
    ),
    paper_expectation=(
        "Section 3: several buffer mechanisms implement the same overlap "
        "search; results are identical, costs differ only in buffer "
        "traffic (the accumulation path pays glAccum transfers, which "
        "were a slow path on consumer cards)."
    ),
)
def ablation_overlap_methods(ctx, pair=("LANDC", "LANDO"), resolution=8):
    """The five overlap-search implementations of section 3, compared.

    The paper picks the accumulation buffer; Hoff et al. list blending,
    logical operations, depth buffer, and stencil buffer as alternatives.
    All five must return identical join results; they differ in buffer
    traffic (e.g. the accumulation variant pays three glAccum transfers per
    test, the depth variant needs an extra buffer clear).  The mechanisms
    only exist in the paper-literal per-pair test (the atlas has one), so
    the join refines on a :func:`per_pair_engine`.
    """
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params.update(pair=label, resolution=resolution)
    engines = (
        per_pair_engine(ctx.config(resolution=resolution, method=method))
        for method in OVERLAP_METHODS
    )
    for run in ctx.sweep(engines, _join(ds_a, ds_b)):
        yield (
            run.engine.config.method,
            run.wall_ms,
            run.model_ms,
            run.engine.stats.hw_rejects,
            run.engine.gpu_counters.accum_ops,
            run.engine.gpu_counters.buffer_clears,
        )


@experiment(
    "ablation-projection",
    title="Projection strategy: MBR-intersection window vs full-scene window",
    columns=(
        exact("variant"),
        exact("tested"),
        exact("hw_rejects"),
        exact("reject_rate"),
        wall("wall_ms"),
    ),
    paper_expectation=(
        "Projecting the MBR intersection maximizes window-resolution "
        "utilization and avoids rendering unnecessary edges (section "
        "3.2), so it filters strictly more pairs than a full-scene "
        "window at the same resolution."
    ),
)
def ablation_projection(ctx, pair=("LANDC", "LANDO"), resolution=8):
    """Focused (Fig 7a) vs naive full-scene projection window."""
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params.update(pair=label, resolution=resolution)
    pairs = _candidate_polygon_pairs(ds_a, ds_b)
    for variant, window_of in (
        ("intersection-window", intersection_window),
        ("union-window", union_window),
    ):

        def project(engine) -> Tuple[int, int]:
            windows = [(a, b, window_of(a.mbr, b.mbr)) for a, b in pairs]
            tested = [(a, b, w) for a, b, w in windows if w is not None]
            rejects = sum(
                engine.hw.intersection_verdict(a, b, w) is HardwareVerdict.DISJOINT
                for a, b, w in tested
            )
            return len(tested), rejects

        run = ctx.run(ctx.hardware(resolution=resolution), project)
        tested, rejects = run.result
        rate = rejects / tested if tested else 0.0
        yield (variant, tested, rejects, round(rate, 3), run.wall_ms)


@experiment(
    "ablation-hull-filter",
    title="Geometric (convex hull) filter vs runtime-only filtering",
    columns=(
        exact("variant"),
        wall("preprocess_ms"),
        wall("filter_ms"),
        wall("geometry_wall_ms"),
        exact("geometry_model_ms"),
        exact("pairs_refined"),
    ),
    paper_expectation=(
        "Table 1 / introduction: pre-processing filters cut refinement "
        "work but cost pre-computation and storage, and cannot serve "
        "intermediate results - the reasons the paper's runtime "
        "hardware filter avoids them."
    ),
)
def ablation_hull_filter(ctx, pair=("WATER", "PRISM")):
    """Table 1's geometric filter (convex hulls) vs the runtime-only pipeline.

    The hull filter needs pre-processing (one hull per object) - the
    trade-off the paper's introduction credits pre-processing techniques
    with: faster queries, slower updates, extra storage.  This ablation
    measures what the hulls buy on top of MBR filtering, with the software
    engine doing the refinement.
    """
    ds_a, ds_b, label = ctx.load_pair(pair)
    ctx.params["pair"] = label
    # Timed in two steps: building the join (the hulls), then running it.
    builds = [
        ctx.run(ctx.software(), lambda e: IntersectionJoin(ds_a, ds_b, e, use_hull_filter=hulls))
        for hulls in (False, True)
    ]
    runs = ctx.compare(ctx.run(build.engine, lambda e: build.result.run()) for build in builds)
    for name, build, run in zip(("mbr-only", "mbr+hulls"), builds, runs):
        yield (
            name,
            build.wall_ms,
            run.result.cost.intermediate_filter_s * MS,
            run.geometry_ms,
            run.model_ms,
            run.result.cost.pairs_compared,
        )


@experiment(
    "batch-refine",
    title="Tiled batched hardware refinement vs per-pair submissions",
    columns=(
        exact("resolution"),
        exact("op"),
        exact("mode"),
        exact("candidates"),
        wall("geometry_wall_ms"),
        wall("speedup"),
        exact("draw_calls"),
        exact("tile_batches"),
    ),
    paper_expectation=(
        "Section 4.3's fixed per-test overhead is what sw_threshold "
        "dodges; batching amortizes it instead (cf. 3DPipe's pipelined "
        "spatial join).  Expect >= 1.5x geometry-stage speedup at "
        "resolution 8 on >= 2k candidate pairs, with draw calls "
        "collapsing from two per pair to two per atlas sub-batch."
    ),
)
def batch_refine(ctx, resolutions=(8, 16), min_candidates=2000, distance_factor=0.5):
    """Tiled batched hardware refinement vs the per-pair loop.

    A >= 2k-candidate intersection join is refined twice per resolution -
    once with the hardware stage submitting pair by pair
    (:func:`per_pair_engine`) and once through the tiled atlas, the
    pipelines' only path - plus a within-distance pass exercising the
    per-pair line widths.  Results and
    refinement statistics are asserted identical; the rows show what
    amortizing the fixed per-submission overhead (draw-call setup, clears,
    accumulation transfers, Minmax round-trips) buys in geometry-stage
    wall time.
    """
    ds_a, ds_b, candidates = ctx.generated_join(min_candidates)
    d = base_distance(ds_a, ds_b) * distance_factor
    ctx.params["distance"] = round(d, 3)
    for resolution in resolutions:
        for op, work in (
            ("intersect", _join(ds_a, ds_b)),
            ("within_distance", _within(ds_a, ds_b, d)),
        ):
            engines = (
                per_pair_engine(ctx.config(resolution=resolution)),
                ctx.hardware(resolution=resolution),
            )
            per_pair, batched = ctx.sweep(engines, work, stats=True)
            for mode, run in (("per-pair", per_pair), ("batched", batched)):
                yield (
                    resolution,
                    op,
                    mode,
                    candidates,
                    run.geometry_ms,
                    speedup(per_pair.geometry_ms, run.geometry_ms),
                    run.engine.gpu_counters.draw_calls,
                    run.engine.gpu_counters.tile_batches,
                )


@experiment(
    "cache",
    title="Verdict/predicate memoization on repeated and skewed work",
    columns=(
        exact("workload"),
        exact("mode"),
        exact("model_ms"),
        exact("reduction_%"),
        exact("cache_hits"),
        exact("hit_rate"),
        exact("results"),
    ),
    paper_expectation=(
        "Section 4.3 attributes the hardware's break-even point to a "
        "fixed per-test cost; memoization removes that cost entirely "
        "for repeated test identities.  Expect >= 30% modeled "
        "refinement-time reduction on the repeated query set (second "
        "pass nearly free) and a reduction tracking the duplication "
        "ratio on the skewed join, with zero change in answers."
    ),
)
def cache_effectiveness(ctx, resolution=16, repeats=2, skew_factor=4):
    """Verdict/predicate memoization on repeated and skewed work.

    Two workloads where real deployments redecide identical questions: a
    selection query set evaluated ``repeats`` times (a hot recurring query)
    and an intersection join against a layer whose geometry *content*
    repeats ``skew_factor`` times (duplicated features under distinct
    object identities).  Each runs twice - caches off, then on - on
    otherwise identical hardware engines.  Answers and
    :class:`~repro.core.stats.RefinementStats` are asserted bit-identical;
    the rows report the modeled 2003-platform refinement time every other
    experiment reports (:attr:`~repro.bench.runner.Run.model_ms`: recorded
    operation counts times :class:`~repro.core.platform.Platform2003`
    prices, so the saving is host-independent) plus hit tallies.
    """
    # Workload 1: the STATES50 query set answered `repeats` times over.
    ds = ctx.load("WATER", role="selection")
    ctx.params.update(resolution=resolution, repeats=repeats, skew_factor=skew_factor)
    queries = ctx.queries()

    def run_selection(engine) -> List[List[int]]:
        selection = IntersectionSelection(ds, engine)
        return [selection.run(q).ids for _ in range(repeats) for q in queries]

    # Workload 2: layer B's content repeats; rebuilt from raw coordinates
    # so the duplicates are distinct objects that only the content digests
    # can recognize as equal.
    ds_a = ctx.load("LANDC", record=False)
    base_b = ctx.load("LANDO", record=False)
    originals = base_b.polygons[: max(1, len(base_b.polygons) // skew_factor)]
    skewed = SpatialDataset(
        "LANDO-SKEW",
        [
            Polygon(originals[i % len(originals)].coords_array)
            for i in range(len(base_b.polygons))
        ],
        world=base_b.world,
    )
    for workload, work, count in (
        (f"selection x{repeats}", run_selection, lambda answers: sum(map(len, answers))),
        (f"join skew x{skew_factor}", _join(ds_a, skewed), lambda result: len(result.pairs)),
    ):
        engines = (
            ctx.hardware(resolution=resolution, cache=cache)
            for cache in (CacheConfig.disabled(), CacheConfig())
        )
        off, on = ctx.sweep(engines, work, stats=True)
        for mode, run in (("cache-off", off), ("cache-on", on)):
            totals = run.engine.caches.totals()
            yield (
                workload,
                mode,
                run.model_ms,
                saving_pct(off.model_ms, run.model_ms),
                totals.hits,
                round(totals.hit_rate, 3),
                count(run.result),
            )


@experiment(
    "intervals",
    title="Raster-interval second filter on the intersection join",
    columns=(
        exact("mode"),
        exact("candidates"),
        exact("interval_hits"),
        exact("interval_drops"),
        exact("hw_tests"),
        exact("hw_reduction_%"),
        wall("wall_ms"),
        exact("model_ms"),
        exact("results"),
        wall("pair_test_us"),
    ),
    paper_expectation=(
        "Georgiadis et al.: precomputed interval encodings on a "
        "pair-common grid decide most MBR-surviving pairs with pure "
        "integer interval algebra, so the hardware test only sees the "
        "genuinely ambiguous ones.  Expect >= 30% fewer hw_tests at "
        "level 8 with bit-identical join results and exact funnel "
        "identities in both configurations."
    ),
)
def interval_filter(ctx, resolution=8, level=DEFAULT_INTERVAL_LEVEL):
    """The raster-interval second filter on the paper-style join.

    Runs LANDC |><| LANDO twice on otherwise identical hardware engines -
    intervals off, then on - through :func:`~repro.obs.explain.explain_run`
    so every row carries a checked EXPLAIN funnel.  Join pairs are
    asserted bit-identical; the rows report how many candidates the
    precomputed interval encodings settled without rendering and what
    that removed from the hardware test's workload (``hw_tests``).  The
    per-pair interval test itself is timed on the two heaviest polygons
    (the ``pair_test_us`` cell): a sorted-run ``searchsorted`` merge,
    microseconds at level 8 - cheap enough to sit in front of every
    refinement candidate.
    """
    ds_a, ds_b, _ = ctx.load_pair(("LANDC", "LANDO"))
    ctx.params.update(resolution=resolution, level=level)

    def explained(use_intervals: bool):
        def work(engine):
            join = IntersectionJoin(
                ds_a, ds_b, engine, use_intervals=use_intervals, interval_level=level
            )
            result, funnel = explain_run("join", engine, join.run)
            violations = funnel.check()
            if violations:
                raise AssertionError(f"funnel identities violated: {violations}")
            return result

        return work

    off, on = ctx.compare(
        ctx.run(ctx.hardware(resolution=resolution), explained(use)) for use in (False, True)
    )

    # Per-pair cost of the vectorized interval merge, measured on the two
    # heaviest (most-vertex, hence most-run) polygons of the workload.
    index = IntervalIndex.for_datasets([ds_a, ds_b], level=level)
    enc_a = index.encode(max(ds_a.polygons, key=lambda p: p.num_vertices))
    enc_b = index.encode(max(ds_b.polygons, key=lambda p: p.num_vertices))
    reps = 512
    timed = ctx.run(None, lambda _: [classify_intervals(enc_a, enc_b) for _ in range(reps)])
    pair_test_us = timed.wall_ms / reps * 1000.0

    for mode, run, pair_us in (
        ("intervals-off", off, "-"),
        ("intervals-on", on, round(pair_test_us, 2)),
    ):
        cost = run.result.cost
        yield (
            mode,
            int(cost.candidates_after_mbr),
            int(cost.interval_hits),
            int(cost.interval_drops),
            run.engine.stats.hw_tests,
            saving_pct(off.engine.stats.hw_tests, run.engine.stats.hw_tests),
            round(run.wall_ms, 1),
            round(run.model_ms, 1),
            len(run.result.pairs),
            pair_us,
        )
