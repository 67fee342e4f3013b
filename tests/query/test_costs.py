"""Tests for the per-stage cost accounting."""

import time
from dataclasses import fields

import pytest

from repro.query import CostBreakdown


class TestCostBreakdown:
    def test_total_sums_stages(self):
        c = CostBreakdown(
            mbr_filter_s=1.0, intermediate_filter_s=2.0, geometry_s=3.0
        )
        assert c.total_s == 6.0

    def test_merge(self):
        a = CostBreakdown(mbr_filter_s=1.0, results=2, pairs_compared=5)
        b = CostBreakdown(mbr_filter_s=0.5, geometry_s=2.0, results=3)
        a.merge(b)
        assert a.mbr_filter_s == 1.5
        assert a.geometry_s == 2.0
        assert a.results == 5
        assert a.pairs_compared == 5

    def test_scaled(self):
        c = CostBreakdown(mbr_filter_s=2.0, geometry_s=4.0, results=7)
        half = c.scaled(0.5)
        assert half.mbr_filter_s == 1.0
        assert half.geometry_s == 2.0
        assert half.results == 3.5  # counts scale too (float means)
        assert c.mbr_filter_s == 2.0  # original untouched
        assert c.results == 7

    def test_merge_and_scaled_cover_every_field(self):
        # A field that merge or scaled forgot would keep its own value.
        names = [f.name for f in fields(CostBreakdown)]
        c = CostBreakdown(**{name: float(i + 1) for i, name in enumerate(names)})
        doubled = CostBreakdown(**{name: getattr(c, name) for name in names})
        doubled.merge(c)
        tripled = c.scaled(3.0)
        for i, name in enumerate(names):
            assert getattr(doubled, name) == 2.0 * (i + 1), name
            assert getattr(tripled, name) == 3.0 * (i + 1), name

    def test_scaled_two_query_average(self):
        # Regression: scaled() used to average only the timings while
        # passing the *summed* counts through, so a query-set "mean" paired
        # per-query milliseconds with N-query candidate totals.  Average
        # two hand-built query costs and check every field halves.
        q1 = CostBreakdown(
            mbr_filter_s=0.010,
            intermediate_filter_s=0.002,
            geometry_s=0.100,
            candidates_after_mbr=40,
            hull_drops=4,
            filter_positives=6,
            pairs_compared=34,
            results=10,
        )
        q2 = CostBreakdown(
            mbr_filter_s=0.030,
            intermediate_filter_s=0.004,
            geometry_s=0.300,
            candidates_after_mbr=80,
            hull_drops=2,
            filter_positives=10,
            pairs_compared=70,
            results=30,
        )
        total = CostBreakdown()
        total.merge(q1)
        total.merge(q2)
        mean = total.scaled(1.0 / 2.0)
        assert mean.mbr_filter_s == pytest.approx(0.020)
        assert mean.intermediate_filter_s == pytest.approx(0.003)
        assert mean.geometry_s == pytest.approx(0.200)
        assert mean.candidates_after_mbr == pytest.approx(60.0)
        assert mean.hull_drops == pytest.approx(3.0)
        assert mean.filter_positives == pytest.approx(8.0)
        assert mean.pairs_compared == pytest.approx(52.0)
        assert mean.results == pytest.approx(20.0)
        assert mean.total_s == pytest.approx(0.223)

    def test_time_stage_accumulates(self):
        c = CostBreakdown()
        with c.time_stage("geometry"):
            time.sleep(0.01)
        with c.time_stage("geometry"):
            time.sleep(0.01)
        assert c.geometry_s >= 0.02
        assert c.mbr_filter_s == 0.0

    def test_time_stage_unknown_raises(self):
        c = CostBreakdown()
        with pytest.raises(ValueError):
            with c.time_stage("gpu"):
                pass

    def test_time_stage_records_on_exception(self):
        c = CostBreakdown()
        with pytest.raises(RuntimeError):
            with c.time_stage("mbr_filter"):
                time.sleep(0.005)
                raise RuntimeError("boom")
        assert c.mbr_filter_s > 0.0


class TestTimeStageValidation:
    """Regression: stage validation must reject non-field stage names."""

    def test_total_rejected_up_front(self):
        # "total" passes a hasattr check (total_s is a read-only property)
        # but must raise the intended ValueError, not die in setattr.
        c = CostBreakdown(mbr_filter_s=1.0, geometry_s=2.0)
        with pytest.raises(ValueError, match="unknown stage 'total'"):
            with c.time_stage("total"):
                pass  # pragma: no cover - never entered
        # Nothing ran, nothing was mutated.
        assert c.total_s == 3.0
        assert c.mbr_filter_s == 1.0

    def test_rejects_before_entering_block(self):
        c = CostBreakdown()
        entered = []
        with pytest.raises(ValueError):
            with c.time_stage("total"):
                entered.append(True)
        assert entered == []

    def test_stage_names(self):
        assert CostBreakdown.stage_names() == (
            "mbr_filter",
            "intermediate_filter",
            "geometry",
        )

    def test_all_stage_names_timeable(self):
        c = CostBreakdown()
        for stage in CostBreakdown.stage_names():
            with c.time_stage(stage):
                pass
            assert getattr(c, f"{stage}_s") >= 0.0
