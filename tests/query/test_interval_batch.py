"""Query polygons join the interval index's packed store as they arrive.

A selection's query polygon is first seen inside ``interval_stage``'s
batch, so every new query appends a row to the store (with capacity
growth) before its candidate list is classified.  Many distinct queries
through one pipeline must answer and count exactly what a per-pair
classification of the same candidates does, and what intervals-off
refinement returns.
"""

from repro.core import SoftwareEngine
from repro.filters import IntervalVerdict, classify_intervals
from repro.query import IntersectionSelection

LEVEL = 6


def test_distinct_queries_append_rows(dataset_a, dataset_b):
    queries = dataset_b.polygons[:24]
    on = IntersectionSelection(
        dataset_a, SoftwareEngine(), use_intervals=True, interval_level=LEVEL
    )
    off = IntersectionSelection(dataset_a, SoftwareEngine())
    index = on.intervals
    rows = len(index)
    for query in queries:
        got, expected = on.run(query), off.run(query)
        assert got.ids == expected.ids
        verdicts = [
            classify_intervals(index.encode(query), index.encode(dataset_a.polygons[i]))
            for i in sorted(on.index.search(query.mbr))
        ]
        cost = got.cost
        assert cost.candidates_after_mbr == expected.cost.candidates_after_mbr
        assert cost.interval_hits == verdicts.count(IntervalVerdict.INTERSECTING)
        assert cost.interval_drops == verdicts.count(IntervalVerdict.DISJOINT)
        assert cost.pairs_compared == verdicts.count(IntervalVerdict.UNKNOWN)
        assert cost.interval_hits + cost.interval_drops + cost.pairs_compared == (
            expected.cost.pairs_compared
        )
        assert cost.results == expected.cost.results
    assert len(index) == rows + len({q.digest for q in queries})
