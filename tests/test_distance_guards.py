"""A NaN query distance is refused at every guarded entry point.

``d < 0.0`` lets NaN through (every comparison with NaN is false) and the
pipelines then answer it - an empty join, a ``False`` predicate - where the
serving front door (``serve/schema.py``) already refuses it.  Every guard is
``not d >= 0.0``; ``inf`` stays a legal distance, and on the hardware engine
it is a width-limit fallback (section 4.4), not a crash.
"""

import math

import pytest

from repro import HardwareConfig, HardwareEngine, SoftwareEngine, SpatialDataset
from repro.core.projection import distance_window
from repro.geometry import (
    Polygon,
    Rect,
    polygons_within_distance,
)
from repro.index import plane_sweep_mbr_join, str_bulk_load
from repro.obs import MetricsRegistry, use_registry
from repro.query import WithinDistanceJoin
from tests.oracles.geometry import polygons_within_distance_brute_force
from tests.oracles.index import nested_loop_mbr_join

A = Polygon.from_coords([(0, 0), (4, 0), (4, 4), (0, 4)])
B = Polygon.from_coords([(10, 10), (12, 10), (12, 12), (10, 12)])
WINDOW = Rect(0, 0, 12, 12)
ITEMS = [((0, 0), A, B)]
SW = SoftwareEngine()
HW = HardwareEngine(HardwareConfig(resolution=8))


def join(engine):
    return WithinDistanceJoin(SpatialDataset("a", [A]), SpatialDataset("b", [B]), engine)


GUARDED = {
    "WithinDistanceJoin.run[software]": lambda d: join(SW).run(d),
    "WithinDistanceJoin.run[hardware]": lambda d: join(HW).run(d),
    "polygons_within_distance": lambda d: polygons_within_distance(A, B, d),
    "polygons_within_distance_brute_force": lambda d: polygons_within_distance_brute_force(A, B, d),
    "plane_sweep_mbr_join": lambda d: plane_sweep_mbr_join([A.mbr], [B.mbr], distance=d),
    "nested_loop_mbr_join": lambda d: nested_loop_mbr_join([A.mbr], [B.mbr], distance=d),
    "RTree.search_within_distance": lambda d: str_bulk_load(
        [(A.mbr, 0), (B.mbr, 1)]
    ).search_within_distance(A.mbr, d),
    "distance_field_verdict": lambda d: HW.hw.distance_field_verdict(A, B, WINDOW, d),
    "distance_verdict": lambda d: HW.hw.distance_verdict(A, B, WINDOW, d),
    "distance_verdicts_batch": lambda d: HW.hw.distance_verdicts_batch([(A, B, WINDOW)], d),
    "distance_window": lambda d: distance_window(A.mbr, B.mbr, d),
    "refine[software]": lambda d: SW.refine("within_distance", ITEMS, distance=d),
    "refine[hardware]": lambda d: HW.refine("within_distance", ITEMS, distance=d),
}


@pytest.mark.parametrize("entry", sorted(GUARDED))
@pytest.mark.parametrize("d", [math.nan, -1.0])
def test_refuses(entry, d):
    with pytest.raises(ValueError, match="distance must be non-negative"):
        GUARDED[entry](d)


def test_an_infinite_distance_is_still_answered():
    assert join(SW).run(math.inf).pairs == [(0, 0)]
    assert join(HW).run(math.inf).pairs == [(0, 0)]
    assert polygons_within_distance(A, B, math.inf)
    assert polygons_within_distance_brute_force(A, B, math.inf)
    assert plane_sweep_mbr_join([A.mbr], [B.mbr], distance=math.inf) == [(0, 0)]


#: Each hardware entry point at ``d = inf``: the call, and how many pairs
#: reach the width limit.  The join's 0-Object bound is finite, so at
#: ``inf`` it settles every candidate before the hardware stage.
INFINITE = {
    "engine.within_distance": (lambda e: e.within_distance(A, B, math.inf), 1),
    "engine.refine": (lambda e: e.refine("within_distance", ITEMS, distance=math.inf), 1),
    "WithinDistanceJoin.run": (lambda e: join(e).run(math.inf).pairs, 0),
}


@pytest.mark.parametrize("entry", sorted(INFINITE))
def test_an_infinite_distance_is_a_width_limit_fallback_on_the_hardware_engine(entry):
    # Equation (1)'s width for an infinite distance is inf * 0 = NaN, which
    # used to reach math.ceil and raise.
    call, fallbacks = INFINITE[entry]
    engine = HardwareEngine(HardwareConfig(resolution=8))
    registry = MetricsRegistry()
    with use_registry(registry):
        answer = call(engine)
    assert answer == call(SoftwareEngine())
    assert answer
    assert engine.stats.width_limit_fallbacks == fallbacks
    assert engine.stats.hw_tests == fallbacks
    key = "hw_line_width_overflow{method=accum,op=within_distance}"
    assert registry.snapshot()["counters"].get(key, 0) == fallbacks
