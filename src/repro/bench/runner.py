"""The one experiment runner.

The paper's evaluation (Table 2, Figures 10-16) is one experimental shape
repeated: run a reference, run variants along an axis, require identical
answers, report both clocks.  This module owns that shape once:

* an :class:`Experiment` is a declaration - id, title, paper expectation,
  columns each marked :class:`exact` or :class:`wall` - registered by the
  :func:`experiment` decorator on a short row generator whose keyword
  defaults are the experiment's default axes;
* the generator receives a :class:`RunContext`, the only thing that loads
  datasets, builds engines, times and prices work, and runs the
  reference-then-variants loop (:meth:`RunContext.compare`);
* :func:`run_experiment` is the single entry point the CLI, the
  ``benchmarks/`` wrappers and the tests share.

``exact`` cells are deterministic functions of the inputs (counts, modeled
milliseconds, rates): two runs must agree on them to the bit, which is what
``python -m repro.obs compare`` gates.  ``wall`` cells are host timings.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..cache import CacheConfig
from ..core import PLATFORM_2003, HardwareConfig, HardwareEngine, SoftwareEngine
from ..datasets import GeneratorConfig, SpatialDataset, VertexCountModel, generate_layer
from ..geometry import Polygon, Rect
from ..index import plane_sweep_mbr_join
from .result import ExperimentResult
from .scales import DEFAULT_SCALE, get_scale

#: Milliseconds per second (stage clocks are kept in seconds).
MS = 1000.0


class exact(str):
    """The name of a deterministic column: equal, to the bit, in every run."""


class wall(str):
    """The name of a host wall-clock column (or of a ratio of two)."""


@dataclass(frozen=True)
class Experiment:
    """The declaration of one table or figure."""

    id: str
    title: str
    #: Each name marked :class:`exact` or :class:`wall`.
    columns: Tuple[str, ...]
    paper_expectation: str
    #: ``rows(ctx, **axes)`` yields the table's rows.
    rows: Callable[..., Iterable[Tuple]]

    @property
    def axes(self) -> Dict[str, Any]:
        """The default axes: the row generator's keyword defaults."""
        parameters = list(inspect.signature(self.rows).parameters.values())
        return {p.name: p.default for p in parameters[1:]}


#: Every declared experiment by id, in declaration order.
ALL_EXPERIMENTS: Dict[str, Experiment] = {}


def experiment(experiment_id: str, **declaration) -> Callable:
    """Declare the decorated row generator as experiment ``experiment_id``."""

    def register(rows: Callable[..., Iterable[Tuple]]):
        ALL_EXPERIMENTS[experiment_id] = Experiment(experiment_id, rows=rows, **declaration)
        return rows

    return register


def speedup(reference: float, value: float):
    """How many times cheaper ``value`` is than ``reference``."""
    return round(reference / value, 2) if value else "-"


def saving_pct(reference: float, value: float) -> float:
    """The share of ``reference`` that ``value`` saves, in percent."""
    return round((1.0 - value / reference) * 100.0, 1) if reference else 0.0


@dataclass
class Run:
    """One engine's pass over one workload."""

    engine: Any
    result: Any
    wall_ms: float

    @property
    def geometry_ms(self) -> float:
        """Wall milliseconds of the geometry-comparison stage of the pipeline
        result (or, for a query set, of the list of them)."""
        results = self.result if isinstance(self.result, list) else [self.result]
        return sum(r.cost.geometry_s for r in results) * MS

    @property
    def model_ms(self) -> float:
        """Modeled 2003-platform milliseconds of the engine's recorded work."""
        return PLATFORM_2003.engine_seconds(self.engine) * MS


class RunContext:
    """What a row generator works through: data, engines, clocks, checks."""

    def __init__(self, scale, cache: CacheConfig) -> None:
        self.scale = get_scale(scale)
        self.cache = cache
        #: Inputs beyond the scale factors, recorded by the generator.
        self.params: Dict[str, Any] = {}
        self.notes: List[str] = []
        #: The scale preset and the factor of every recorded dataset.
        self.scale_params: Dict[str, Any] = {"scale": self.scale.name}

    # -- data --------------------------------------------------------------

    def load(self, name: str, role: str = "join", record: bool = True):
        """A catalog dataset at this scale; its factor goes into the params."""
        if record:
            self.scale_params.setdefault("v_scale", self.scale.v_scale)
            self.scale_params[f"n_scale[{name}]"] = self.scale.n_scale(name, role)
        return self.scale.load(name, role=role)

    def load_pair(self, pair: Tuple[str, str]):
        """Both layers of a join, and its ``A|><|B`` label."""
        name_a, name_b = pair
        return self.load(name_a), self.load(name_b), f"{name_a}|><|{name_b}"

    def queries(self) -> List[Polygon]:
        """The STATES50 selection query set (section 4.1.2)."""
        return list(self.load("STATES50", "selection", record=False).polygons)

    def generated_join(self, min_candidates: int):
        """Two generated layers with >= ``min_candidates`` MBR candidates.

        Returns ``(ds_a, ds_b, candidates)`` and records the count.
        """
        factor = {"tiny": 1.0, "small": 2.0, "medium": 4.0}.get(self.scale.name, 1.0)
        count_a, count_b = int(170 * factor), int(210 * factor)
        world = Rect(0.0, 0.0, 100.0, 100.0)
        config = dict(
            world=world,
            vertex_model=VertexCountModel(vmin=4, vmax=80, mean=18.0),
            coverage=1.3,
            cluster_count=7,
            cluster_spread=0.12,
            roughness=0.35,
        )

        def layer(name: str, count: int, seed: int) -> SpatialDataset:
            polygons = generate_layer(GeneratorConfig(count=count, **config), seed=seed)
            return SpatialDataset(name, polygons, world=world)

        for _ in range(4):
            ds_a, ds_b = layer("EXEC-A", count_a, 211), layer("EXEC-B", count_b, 212)
            candidates = len(plane_sweep_mbr_join(ds_a.mbrs, ds_b.mbrs))
            if candidates >= min_candidates:
                break
            count_a, count_b = count_a * 2, count_b * 2
        self.params["candidates"] = candidates
        return ds_a, ds_b, candidates

    # -- engines -----------------------------------------------------------

    def config(self, **knobs) -> HardwareConfig:
        """A hardware configuration carrying this run's cache choice."""
        return HardwareConfig(**{"cache": self.cache, **knobs})

    def software(self, **knobs) -> SoftwareEngine:
        return SoftwareEngine(cache=self.cache, **knobs)

    def hardware(self, **knobs) -> HardwareEngine:
        return HardwareEngine(self.config(**knobs))

    def software_then_hardware(self, resolutions, **knobs):
        """The software baseline, then one hardware engine per resolution."""
        yield self.software()
        for resolution in resolutions:
            yield self.hardware(resolution=resolution, **knobs)

    # -- the loop ----------------------------------------------------------

    def run(self, engine, work: Callable[[Any], Any]) -> Run:
        """Time ``work(engine)``; the engine's counters price it."""
        start = time.perf_counter()
        result = work(engine)
        return Run(engine, result, (time.perf_counter() - start) * MS)

    def compare(
        self,
        runs: Iterable[Run],
        answer: Callable[[Any], Any] = lambda result: getattr(result, "pairs", result),
        stats: bool = False,
    ) -> List[Run]:
        """The reference-then-variants loop: the first run is the reference.

        Every later run must give exactly the reference's ``answer`` (a
        join result's pairs, any other result as it is, unless told
        otherwise) and, with ``stats``, exactly its
        :class:`~repro.core.stats.RefinementStats` - hardware, batching,
        caching and filtering may change cost, never a result.
        """
        done: List[Run] = []
        for run in runs:
            if done:
                reference = done[0]
                versus = f"{_name(run.engine)} vs {_name(reference.engine)}"
                if answer(run.result) != answer(reference.result):
                    raise AssertionError(f"{versus}: the answers differ")
                if stats and run.engine.stats != reference.engine.stats:
                    raise AssertionError(f"{versus}: the RefinementStats differ")
            done.append(run)
        return done

    def sweep(self, engines: Iterable[Any], work: Callable[[Any], Any], **checks) -> List[Run]:
        """:meth:`compare` of one piece of ``work`` run on each engine in turn."""
        return self.compare((self.run(engine, work) for engine in engines), **checks)


def _name(engine) -> str:
    return getattr(engine, "name", type(engine).__name__)


def run_experiment(
    experiment_id: str,
    scale=DEFAULT_SCALE,
    *,
    cache: CacheConfig = CacheConfig.disabled(),
    **axes,
) -> ExperimentResult:
    """Run one declared experiment; ``axes`` override its default axes.

    ``cache`` is the memoization configuration of every engine the run
    builds (``--cache`` on the command line).
    """
    declared = ALL_EXPERIMENTS[experiment_id]
    ctx = RunContext(scale, cache)
    rows = list(declared.rows(ctx, **axes))
    return ExperimentResult(
        experiment_id=declared.id,
        title=declared.title,
        params={**ctx.scale_params, **ctx.params},
        columns=declared.columns,
        rows=rows,
        paper_expectation=declared.paper_expectation,
        notes=ctx.notes,
        exact_columns=tuple(c for c in declared.columns if isinstance(c, exact)),
    )
