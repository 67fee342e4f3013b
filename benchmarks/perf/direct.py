"""The four direct workloads: build, run, check, and staged replay.

Every layer is driven from outside, through the package's public
functions.  A workload instance owns its datasets, one hardware engine
and one pipeline; ``segment`` runs one block of ops, timing each and
checking its result against the software oracle.

**What the seed does.**  The dataset *shapes* always come from the
catalog seeds: re-seeding a generator moves the cost of one join by a
factor of three (heavy-tailed vertex counts; see README), which no
regression bound can contain.  The seed instead permutes the object
order of every dataset and the order of the ops, so ids, pairs and op
sequences differ from seed to seed while the geometric work is the same.

**Staged replay.**  Layers with no span of their own (index probe,
interval classify, 0/1-object bounds, point-in-polygon, sweep, minDist)
are timed by replaying one segment stage by stage under
``bench.replay.<layer>`` spans, calling the same public functions on the
same candidates in the same order as the pipeline.  The replay must
reproduce the pipeline's results and its ``RefinementStats`` exactly, or
the ledger is void.
"""

from __future__ import annotations

import random
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    PLATFORM_2003,
    HardwareConfig,
    HardwareEngine,
    IntersectionJoin,
    IntersectionSelection,
    RefinementStats,
    SoftwareEngine,
    SpatialDataset,
    Tracer,
    WithinDistanceJoin,
    base_distance,
    datasets,
)
from repro.bench.scales import get_scale
from repro.core import HardwareVerdict, distance_window, intersection_window
from repro.filters import (
    IntervalIndex,
    IntervalVerdict,
    classify_intervals,
    one_object_upper_bound,
    zero_object_upper_bound,
)
from repro.geometry import (
    PointLocation,
    boundaries_intersect,
    either_contains,
    locate_point,
    min_boundary_distance,
)
from repro.index import plane_sweep_mbr_join

from spec import WORKLOADS, Workload

#: A monotonic clock in seconds.
Clock = Callable[[], float]

RESOLUTION = 8
INTERVAL_LEVEL = 8

#: Replay stages, in pipeline order; each is one ``bench.replay.<stage>``
#: span name and one per-layer time.
REPLAY_STAGES = (
    "index",
    "filters.intervals",
    "filters.object",
    "geometry.pip",
    "core.hw",
    "geometry.sweep",
    "geometry.mindist",
)


def _permuted(ds: SpatialDataset, rng: Optional[random.Random]) -> SpatialDataset:
    """``ds`` with its objects in seeded order (unchanged without a seed)."""
    if rng is None:
        return ds
    polygons = list(ds.polygons)
    rng.shuffle(polygons)
    return SpatialDataset(ds.name, polygons, world=ds.world)


def _canonical(pairs: Sequence[Any]) -> List[Any]:
    return [list(p) if isinstance(p, tuple) else p for p in pairs]


@dataclass
class Replay:
    """What one replayed segment did."""

    stats: RefinementStats
    results: List[List[Any]]
    candidates: int = 0
    interval_settled: int = 0
    filter_positives: int = 0


class DirectInstance:
    """One built direct workload; subclasses supply the pipeline."""

    def __init__(
        self, workload: Workload, seed: Optional[int], clock: Clock
    ) -> None:
        self.workload = workload
        self.seed = seed
        #: Times set-up steps and ops; the sampler's clock in a measured
        #: run, so calibration slices are not charged to them.
        self.clock = clock
        self.rng = random.Random(seed) if seed is not None else None
        self.engine = HardwareEngine(HardwareConfig(resolution=RESOLUTION))
        #: Raw seconds spent in named set-up steps (``datasets.generate``,
        #: ``index.str_bulk_load``, ``filters.intervals_build``).
        self.setup_steps: Dict[str, float] = {}
        self.oracle: Optional[List[List[Any]]] = None
        self.attempted = 0
        self.failed = 0

    # -- set-up helpers ---------------------------------------------------

    @contextmanager
    def _step(self, name: str) -> Iterator[None]:
        start = self.clock()
        try:
            yield
        finally:
            self.setup_steps[name] = (
                self.setup_steps.get(name, 0.0) + self.clock() - start
            )

    def _load(self, name: str, **kwargs: Any) -> SpatialDataset:
        with self._step("datasets.generate"):
            return datasets.load(name, **kwargs)

    # -- what subclasses define -------------------------------------------

    def distinct_ops(self) -> int:
        """How many different ops the workload has (oracle entries)."""
        raise NotImplementedError

    def op_key(self, k: int) -> int:
        """Which distinct op the run's ``k``-th op is."""
        raise NotImplementedError

    def run_distinct(self, key: int, engine_pipeline: Any) -> Any:
        """Run distinct op ``key`` on ``engine_pipeline``; the raw result."""
        raise NotImplementedError

    def build_pipeline(self, engine: Any, plain: bool = False) -> Any:
        """The workload's pipeline on ``engine``; ``plain`` leaves out
        every optional filter (the oracle's configuration)."""
        raise NotImplementedError

    def replay_segment(self, index: int, tracer: Tracer) -> Replay:
        raise NotImplementedError

    # -- running ----------------------------------------------------------

    def run_op(self, k: int) -> Tuple[List[Any], Any]:
        """The run's ``k``-th op: ``(canonical result, CostBreakdown)``."""
        result = self.run_distinct(self.op_key(k), self.pipeline)
        ids = result.ids if hasattr(result, "ids") else result.pairs
        return _canonical(ids), result.cost

    def build_oracle(self) -> None:
        """Expected result of every distinct op, by the software engine."""
        pipeline = self.build_pipeline(SoftwareEngine(), plain=True)
        self.oracle = []
        for key in range(self.distinct_ops()):
            result = self.run_distinct(key, pipeline)
            ids = result.ids if hasattr(result, "ids") else result.pairs
            self.oracle.append(_canonical(ids))

    def expected(self, k: int) -> List[Any]:
        assert self.oracle is not None, "build_oracle() first"
        return self.oracle[self.op_key(k)]

    def segment(
        self, index: int, tracer: Optional[Tracer] = None
    ) -> Tuple[List[float], float, dict]:
        """Run segment ``index``: time each op, check each result.

        With a tracer, each op runs under a ``bench.op`` root span whose
        trace id is the workload name and op index.
        """
        n = self.workload.ops_per_segment
        op_s: List[float] = []
        stages = {"mbr_filter": 0.0, "intermediate_filter": 0.0, "geometry": 0.0}
        candidates = 0
        self.engine.reset_stats()
        for k in range(index * n, (index + 1) * n):
            self.attempted += 1
            if tracer is not None:
                tracer.trace_id = f"{self.workload.name}:{k}"
                root = tracer.span("bench.op", workload=self.workload.name, op=k)
            else:
                root = nullcontext()
            start = self.clock()
            try:
                with root:
                    result, cost = self.run_op(k)
            except Exception:
                # An op that raises is a failed op, not a failed run: the
                # count reaches the report and fails it there.
                op_s.append(self.clock() - start)
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            op_s.append(self.clock() - start)
            if result != self.expected(k):
                self.failed += 1
            for stage in stages:
                stages[stage] += getattr(cost, f"{stage}_s")
            candidates += cost.candidates_after_mbr
        extra = {
            "stage_s": stages,
            "candidates": candidates,
            "stats": replace(self.engine.stats),
            "gpu": self.engine.gpu_counters.snapshot(),
            "modeled_ms": PLATFORM_2003.engine_seconds(self.engine) * 1e3 / n,
        }
        return op_s, sum(op_s), extra

    def close(self) -> None:
        """Nothing to release; present so both instance kinds close alike."""


# -- replay building blocks ----------------------------------------------------


def _stage(tracer: Tracer, name: str):
    return tracer.span(f"bench.replay.{name}")


def _replay_intersect(
    tracer: Tracer,
    hw: Any,
    items: List[Tuple[Any, Any, Any]],
    intervals: Optional[IntervalIndex],
    out: Replay,
) -> List[Any]:
    """Algorithm 3.1 over ``items``, one stage at a time; matching keys."""
    stats = out.stats
    positives: List[Any] = []
    if intervals is not None:
        with _stage(tracer, "filters.intervals"):
            undecided = []
            for item in items:
                verdict = classify_intervals(
                    intervals.encode(item[1]), intervals.encode(item[2])
                )
                if verdict is IntervalVerdict.INTERSECTING:
                    positives.append(item[0])
                elif verdict is IntervalVerdict.UNKNOWN:
                    undecided.append(item)
            out.interval_settled += len(items) - len(undecided)
            items = undecided
    with _stage(tracer, "geometry.pip"):
        to_hw = []
        for key, a, b in items:
            stats.pairs_tested += 1
            if not a.mbr.intersects(b.mbr):
                stats.prefilter_drops += 1
                continue
            hit = False
            va = a.vertices[0]
            if b.mbr.contains_point(va):
                stats.pip_edges += b.num_vertices
                hit = locate_point(va, b.vertices) is not PointLocation.OUTSIDE
            if not hit:
                vb = b.vertices[0]
                if a.mbr.contains_point(vb):
                    stats.pip_edges += a.num_vertices
                    hit = locate_point(vb, a.vertices) is not PointLocation.OUTSIDE
            if hit:
                stats.pip_hits += 1
                stats.positives += 1
                positives.append(key)
            else:
                to_hw.append((key, a, b))
    with _stage(tracer, "core.hw"):
        stats.hw_tests += len(to_hw)
        verdicts = hw.intersection_verdicts_batch(
            [(a, b, intersection_window(a.mbr, b.mbr)) for _, a, b in to_hw]
        )
    with _stage(tracer, "geometry.sweep"):
        for (key, a, b), verdict in zip(to_hw, verdicts):
            if verdict is HardwareVerdict.DISJOINT:
                stats.hw_rejects += 1
                continue
            stats.sw_segment_tests += 1
            if boundaries_intersect(a, b, True):
                stats.positives += 1
                positives.append(key)
            else:
                stats.hw_false_positives += 1
    return sorted(positives)


def _replay_within(
    tracer: Tracer,
    hw: Any,
    items: List[Tuple[Any, Any, Any]],
    d: float,
    out: Replay,
) -> List[Any]:
    """The within-distance refinement over ``items``, stage by stage."""
    stats = out.stats
    positives: List[Any] = []
    with _stage(tracer, "filters.object"):
        remaining = []
        for key, a, b in items:
            ra, rb = a.mbr, b.mbr
            if zero_object_upper_bound(ra, rb) <= d:
                positives.append(key)
                continue
            if ra.area >= rb.area:
                bound = one_object_upper_bound(a, rb)
            else:
                bound = one_object_upper_bound(b, ra)
            if bound <= d:
                positives.append(key)
            else:
                remaining.append((key, a, b))
        out.filter_positives += len(positives)
    with _stage(tracer, "geometry.pip"):
        to_hw = []
        for key, a, b in remaining:
            stats.pairs_tested += 1
            if not a.mbr.within_distance(b.mbr, d):
                stats.prefilter_drops += 1
                continue
            if a.mbr.intersects(b.mbr):
                if b.mbr.contains_point(a.vertices[0]):
                    stats.pip_edges += b.num_vertices
                if a.mbr.contains_point(b.vertices[0]):
                    stats.pip_edges += a.num_vertices
                if either_contains(a, b):
                    stats.pip_hits += 1
                    stats.positives += 1
                    positives.append(key)
                    continue
            to_hw.append((key, a, b))
    with _stage(tracer, "core.hw"):
        stats.hw_tests += len(to_hw)
        verdicts = hw.distance_verdicts_batch(
            [(a, b, distance_window(a.mbr, b.mbr, d)) for _, a, b in to_hw], d
        )
    with _stage(tracer, "geometry.mindist"):
        for (key, a, b), verdict in zip(to_hw, verdicts):
            if verdict is HardwareVerdict.DISJOINT:
                stats.hw_rejects += 1
                continue
            if verdict is HardwareVerdict.UNSUPPORTED:
                stats.width_limit_fallbacks += 1
            stats.sw_distance_tests += 1
            if min_boundary_distance(a, b, early_exit_at=d) <= d:
                stats.positives += 1
                positives.append(key)
            elif verdict is HardwareVerdict.MAYBE:
                stats.hw_false_positives += 1
    return sorted(positives)


# -- the workloads -----------------------------------------------------------------


class SelectionInstance(DirectInstance):
    """``sel-water``: the STATES50 query set against WATER, pass by pass."""

    def __init__(
        self, workload: Workload, seed: Optional[int], clock: Clock
    ) -> None:
        super().__init__(workload, seed, clock)
        scale = get_scale("small")
        self.data = _permuted(self._load_scaled(scale, "WATER"), self.rng)
        self.queries = list(self._load_scaled(scale, "STATES50").polygons)
        if len(self.queries) != workload.ops_per_segment:
            raise RuntimeError(
                f"query set has {len(self.queries)} polygons, "
                f"the workload declares {workload.ops_per_segment}"
            )
        # The constructor does nothing but pack the R-tree.
        with self._step("index.str_bulk_load"):
            self.pipeline = self.build_pipeline(self.engine)
        self._orders: Dict[int, List[int]] = {}

    def _load_scaled(self, scale: Any, name: str) -> SpatialDataset:
        with self._step("datasets.generate"):
            return scale.load(name, role="selection")

    def build_pipeline(
        self, engine: Any, plain: bool = False
    ) -> IntersectionSelection:
        return IntersectionSelection(self.data, engine)

    def distinct_ops(self) -> int:
        return len(self.queries)

    def _order(self, segment: int) -> List[int]:
        """The query order of one pass: seeded, different every pass."""
        order = self._orders.get(segment)
        if order is None:
            order = list(range(len(self.queries)))
            if self.seed is not None:
                random.Random(f"{self.seed}:{segment}").shuffle(order)
            self._orders[segment] = order
        return order

    def op_key(self, k: int) -> int:
        segment, position = divmod(k, len(self.queries))
        return self._order(segment)[position]

    def run_distinct(self, key: int, pipeline: IntersectionSelection) -> Any:
        return pipeline.run(self.queries[key])

    def replay_segment(self, index: int, tracer: Tracer) -> Replay:
        out = Replay(RefinementStats(), [])
        hw = HardwareEngine(self.engine.config).hw
        polygons = self.data.polygons
        for key in self._order(index):
            query = self.queries[key]
            with _stage(tracer, "index"):
                candidates = sorted(self.pipeline.index.search(query.mbr))
            out.candidates += len(candidates)
            items = [(i, query, polygons[i]) for i in candidates]
            out.results.append(_replay_intersect(tracer, hw, items, None, out))
        return out


class JoinInstance(DirectInstance):
    """``join-wp`` / ``join-wp-intervals``: WATER x PRISM, one join per op."""

    def __init__(
        self, workload: Workload, seed: Optional[int], clock: Clock
    ) -> None:
        super().__init__(workload, seed, clock)
        self.use_intervals = workload.name == "join-wp-intervals"
        self.a = _permuted(
            self._load("WATER", n_scale=0.003, v_scale=1.0), self.rng
        )
        self.b = _permuted(
            self._load("PRISM", n_scale=0.03, v_scale=1.0), self.rng
        )
        # With intervals on, the constructor's only work is encoding both
        # layers (IntervalIndex.for_datasets); without, it does none.
        with self._step("filters.intervals_build") if self.use_intervals else nullcontext():
            self.pipeline = self.build_pipeline(self.engine)

    def build_pipeline(self, engine: Any, plain: bool = False) -> IntersectionJoin:
        return IntersectionJoin(
            self.a,
            self.b,
            engine,
            use_intervals=self.use_intervals and not plain,
            interval_level=INTERVAL_LEVEL,
        )

    def distinct_ops(self) -> int:
        return 1

    def op_key(self, k: int) -> int:
        return 0

    def run_distinct(self, key: int, pipeline: IntersectionJoin) -> Any:
        return pipeline.run()

    def replay_segment(self, index: int, tracer: Tracer) -> Replay:
        out = Replay(RefinementStats(), [])
        hw = HardwareEngine(self.engine.config).hw
        pa, pb = self.a.polygons, self.b.polygons
        for _ in range(self.workload.ops_per_segment):
            with _stage(tracer, "index"):
                candidates = plane_sweep_mbr_join(self.a.mbrs, self.b.mbrs)
            out.candidates += len(candidates)
            items = [((i, j), pa[i], pb[j]) for i, j in candidates]
            pairs = _replay_intersect(
                tracer, hw, items, self.pipeline.intervals, out
            )
            out.results.append(_canonical(pairs))
        return out


class WithinInstance(DirectInstance):
    """``wd-ll``: LANDC x LANDO within BaseD, one join per op."""

    def __init__(
        self, workload: Workload, seed: Optional[int], clock: Clock
    ) -> None:
        super().__init__(workload, seed, clock)
        self.a = _permuted(
            self._load("LANDC", n_scale=0.003, v_scale=1.0), self.rng
        )
        self.b = _permuted(
            self._load("LANDO", n_scale=0.003, v_scale=1.0), self.rng
        )
        self.distance = base_distance(self.a, self.b)
        self.pipeline = self.build_pipeline(self.engine)

    def build_pipeline(
        self, engine: Any, plain: bool = False
    ) -> WithinDistanceJoin:
        return WithinDistanceJoin(self.a, self.b, engine)

    def distinct_ops(self) -> int:
        return 1

    def op_key(self, k: int) -> int:
        return 0

    def run_distinct(self, key: int, pipeline: WithinDistanceJoin) -> Any:
        return pipeline.run(self.distance)

    def replay_segment(self, index: int, tracer: Tracer) -> Replay:
        out = Replay(RefinementStats(), [])
        hw = HardwareEngine(self.engine.config).hw
        pa, pb = self.a.polygons, self.b.polygons
        d = self.distance
        for _ in range(self.workload.ops_per_segment):
            with _stage(tracer, "index"):
                candidates = plane_sweep_mbr_join(
                    self.a.mbrs, self.b.mbrs, distance=d
                )
            out.candidates += len(candidates)
            items = [((i, j), pa[i], pb[j]) for i, j in candidates]
            out.results.append(
                _canonical(_replay_within(tracer, hw, items, d, out))
            )
        return out


_BUILDERS: Dict[str, Callable[[Workload, Optional[int], Clock], DirectInstance]] = {
    "sel-water": SelectionInstance,
    "join-wp": JoinInstance,
    "join-wp-intervals": JoinInstance,
    "wd-ll": WithinInstance,
}


def build(
    name: str, seed: Optional[int], clock: Clock = time.perf_counter
) -> DirectInstance:
    """Nothing -> first-query-ready: datasets, indexes, engine, one op."""
    instance = _BUILDERS[name](WORKLOADS[name], seed, clock)
    instance.run_op(0)
    return instance
