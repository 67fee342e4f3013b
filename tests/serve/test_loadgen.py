"""Load-generator tests: schedule determinism, accounting, reports."""

import pytest

from repro.obs.compare import compare_reports
from repro.obs.runreport import RUN_REPORT_SCHEMA
from repro.serve import (
    AdmissionConfig,
    LoadAccountingError,
    LoadgenConfig,
    QueryService,
)
from repro.serve.loadgen import (
    _account,
    build_schedule,
    exact_quantile,
    run_open_loop,
)
from repro.serve.schema import QueryResponse


class TestSchedule:
    def test_same_seed_same_schedule(self, workload):
        config = LoadgenConfig(rate=10, duration_s=2, seed=42)
        a = build_schedule(workload, config)
        b = build_schedule(workload, config)
        assert [item.request for item in a] == [item.request for item in b]
        assert [item.offset_s for item in a] == [item.offset_s for item in b]

    def test_different_seed_different_schedule(self, workload):
        a = build_schedule(workload, LoadgenConfig(rate=50, duration_s=2, seed=1))
        b = build_schedule(workload, LoadgenConfig(rate=50, duration_s=2, seed=2))
        assert [i.request for i in a] != [i.request for i in b]

    def test_request_count_and_spacing(self, workload):
        config = LoadgenConfig(rate=20, duration_s=1.5, seed=3)
        schedule = build_schedule(workload, config)
        assert len(schedule) == 30 == config.request_count
        assert schedule[0].offset_s == 0.0
        assert schedule[10].offset_s == pytest.approx(0.5)

    def test_every_generated_request_is_valid(self, workload):
        # QueryRequest validates in __post_init__, so construction alone
        # proves validity; check parameter ranges anyway.
        for item in build_schedule(
            workload, LoadgenConfig(rate=100, duration_s=2, seed=9)
        ):
            req = item.request
            if req.op == "selection":
                assert 0 <= req.query_index < len(workload.queries)
            elif req.op == "within_distance":
                assert req.distance >= 0


class TestExactQuantile:
    def test_picks_exact_sample(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert exact_quantile(values, 0.5) == 2.0
        assert exact_quantile(values, 1.0) == 4.0
        assert exact_quantile(values, 0.01) == 1.0

    def test_empty_is_zero(self):
        assert exact_quantile([], 0.5) == 0.0


class TestAccounting:
    def test_missing_response_raises(self):
        with pytest.raises(LoadAccountingError, match="scheduled but"):
            _account(["join", "join"], [QueryResponse(status="ok", op="join")])

    def test_unscheduled_response_raises(self):
        with pytest.raises(LoadAccountingError, match="never scheduled"):
            _account(["join"], [QueryResponse(status="ok", op="selection")])

    def test_balanced_accounting_passes(self):
        stats = _account(
            ["join", "join", "selection"],
            [
                QueryResponse(status="ok", op="join", total_s=0.01),
                QueryResponse(status="shed", op="join"),
                QueryResponse(status="error", op="selection"),
            ],
        )
        assert stats["join"].ok == 1
        assert stats["join"].shed == 1
        assert stats["selection"].error == 1


class TestOpenLoop:
    def test_short_run_reports_every_request(self, service):
        load = run_open_loop(
            service, LoadgenConfig(rate=40, duration_s=1, seed=5)
        )
        counts = load.status_counts
        assert sum(counts.values()) == 40
        assert counts["ok"] == 40  # queue 10k, no timeout: nothing dropped
        assert load.result.experiment_id == "serve-open-loop"
        assert load.result.params["requests"] == 40

    def test_sheds_are_reported_not_dropped(self):
        # One engine, one queue slot: with the engine busy, arrivals shed -
        # but every single one still comes back as a response.
        svc = QueryService(workers=1, admission=AdmissionConfig(max_queue=1))
        try:
            load = run_open_loop(
                svc, LoadgenConfig(rate=50, duration_s=0.5, seed=6)
            )
            counts = load.status_counts
            assert sum(counts.values()) == 25
            assert counts["ok"] >= 1
        finally:
            svc.close()

    def test_run_report_is_gateable(self, service):
        load = run_open_loop(
            service, LoadgenConfig(rate=20, duration_s=1, seed=7)
        )
        report = load.run_report(scale="tiny")
        assert report["schema"] == RUN_REPORT_SCHEMA
        assert report["experiments"][0]["experiment_id"] == "serve-open-loop"
        # A report must pass the CI gate against itself.
        comparison = compare_reports(report, report)
        assert comparison.ok, comparison.format()

    def test_fresh_services_produce_identical_counters(self):
        # The CI-baseline property: same seed + same config on a fresh
        # service = identical counters/gauges and histogram counts, even
        # though wall-clock timings differ.
        config = LoadgenConfig(rate=30, duration_s=1, seed=8)

        def one_run():
            svc = QueryService(
                workers=2, admission=AdmissionConfig(max_queue=1000)
            )
            try:
                return run_open_loop(svc, config).run_report(scale="tiny")
            finally:
                svc.close()

        comparison = compare_reports(one_run(), one_run())
        assert comparison.ok, comparison.format()
