"""Tests for slow-query forensics: capture policy, record contents, CLI."""

import json

import pytest

from repro.obs.records import MAX_RECORDS
from repro.serve import (
    AdmissionConfig,
    QueryRequest,
    QueryService,
    SlowLogConfig,
    load_slowlog,
    summarize_slowlog,
)
from repro.serve.__main__ import main as serve_main


class TestPolicy:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SlowLogConfig(threshold_s=-1.0)
        # NaN compares false with everything: it would log no ok request.
        with pytest.raises(ValueError):
            SlowLogConfig(threshold_s=float("nan"))
        # inf keeps a meaning: log only the non-ok outcomes.
        assert not SlowLogConfig(threshold_s=float("inf")).should_log("ok", 1e300)

    def test_non_ok_always_logged(self):
        config = SlowLogConfig(threshold_s=100.0)
        for status in ("shed", "timeout", "error"):
            assert config.should_log(status, 0.0)

    def test_ok_logged_only_beyond_threshold(self):
        config = SlowLogConfig(threshold_s=0.5)
        assert not config.should_log("ok", 0.1)
        assert config.should_log("ok", 0.5)

    def test_ring_is_bounded(self, tmp_path):
        """The in-memory ring evicts; the --slowlog-out file keeps every record."""
        path = tmp_path / "slow.jsonl"
        svc = QueryService(workers=1, slowlog=SlowLogConfig(path=str(path)))
        try:
            for i in range(MAX_RECORDS + 3):
                svc.slowlog.append({"schema": "repro.serve/slowlog@1", "i": i})
            assert len(svc.slowlog) == MAX_RECORDS
            assert svc.slowlog.evicted == 3
            assert [r["i"] for r in load_slowlog(str(path))] == list(range(MAX_RECORDS + 3))
        finally:
            svc.close()


@pytest.fixture(scope="module")
def forensic_service(tmp_path_factory):
    path = tmp_path_factory.mktemp("slowlog") / "slow.jsonl"
    svc = QueryService(
        workers=1,
        trace=True,
        # threshold 0: every request is "slow", so ok requests log too.
        slowlog=SlowLogConfig(threshold_s=0.0, path=str(path)),
    )
    yield svc, str(path)
    svc.close()


class TestRecords:
    def test_ok_record_bundles_the_forensics(self, forensic_service):
        svc, _ = forensic_service
        response = svc.submit(QueryRequest(op="selection", query_index=0))
        assert response.status == "ok"
        record = svc.slowlog.records()[-1]
        assert record["schema"] == "repro.serve/slowlog@1"
        assert record["trace_id"] == response.trace_id
        assert record["status"] == "ok"
        assert record["request"]["op"] == "selection"
        assert record["total_s"] == response.total_s
        assert record["queue_depth"] == 0
        # Span tree rides along (tracing is on) and includes the root.
        assert any(s["name"] == "request" for s in record["spans"])
        # The EXPLAIN funnel passes its own identity checks.
        assert record["funnel_violations"] == []
        assert record["funnel"]["pipeline"] == "selection"
        assert record["funnel"]["candidates"] == record["funnel"][
            "interior_filter_hits"
        ] + record["funnel"]["interval_proven_intersecting"] + record["funnel"][
            "interval_proven_disjoint"
        ] + record["funnel"]["refined"]
        # CostBreakdown stage seconds are attached.
        assert "mbr_filter_s" in record["cost"]
        # Caches are disabled in the default workload: empty delta map.
        assert record["cache_delta"] == {}
        # Accounted in the metrics registry (family exists only when the
        # slowlog is enabled, so the baseline-gated CI run never sees it).
        snap = svc.metrics_snapshot()["counters"]
        assert snap["serve_slow_requests{op=selection,status=ok}"] >= 1

    def test_error_record_logged_with_message(self, forensic_service):
        svc, _ = forensic_service
        response = svc.submit(QueryRequest(op="selection", query_index=10**6))
        assert response.status == "error"
        record = svc.slowlog.records()[-1]
        assert record["status"] == "error"
        assert "IndexError" in record["error"]
        assert record["trace_id"] == response.trace_id

    def test_jsonl_file_round_trips(self, forensic_service):
        svc, path = forensic_service
        svc.submit(QueryRequest(op="join"))
        records = load_slowlog(path)
        assert len(records) == svc.slowlog.added
        assert all(r["schema"] == "repro.serve/slowlog@1" for r in records)

    def test_shed_is_logged_without_execution_artifacts(self):
        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(max_queue=0),
            slowlog=SlowLogConfig(threshold_s=100.0),
        )
        try:
            response = svc.submit(QueryRequest(op="join"))
            assert response.status == "shed"
            record = svc.slowlog.records()[-1]
            assert record["status"] == "shed"
            # Never executed: no funnel, no cost - but still identified.
            assert "funnel" not in record
            assert "cost" not in record
            assert record["trace_id"] == response.trace_id
        finally:
            svc.close()

    def test_fast_ok_requests_not_logged_above_threshold(self):
        svc = QueryService(
            workers=1, slowlog=SlowLogConfig(threshold_s=1e9)
        )
        try:
            assert svc.submit(
                QueryRequest(op="selection", query_index=0)
            ).status == "ok"
            assert len(svc.slowlog) == 0
        finally:
            svc.close()


class TestSummaryAndCli:
    def test_summarize_ranks_by_total(self):
        records = [
            {"schema": "x", "status": "ok", "op": "join", "trace_id": f"t{i}",
             "wait_s": 0.0, "exec_s": t, "total_s": t}
            for i, t in enumerate((0.1, 0.9, 0.5))
        ]
        text = summarize_slowlog(records, top=2)
        lines = text.splitlines()
        assert "3 record(s)" in lines[0]
        assert "trace=t1" in lines[-2]
        assert "trace=t2" in lines[-1]

    def test_summarize_empty(self):
        assert summarize_slowlog([]) == "slowlog: no records"

    def test_summarize_rejects_bad_top(self):
        with pytest.raises(ValueError):
            summarize_slowlog([{"total_s": 1.0}], top=0)

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "other"}) + "\n")
        with pytest.raises(ValueError, match="unsupported slowlog schema"):
            load_slowlog(str(path))

    def test_cli_smoke(self, forensic_service, capsys):
        svc, path = forensic_service
        svc.submit(QueryRequest(op="selection", query_index=1))
        assert serve_main(["slowlog", path, "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowlog:" in out
        assert "== top 2 by total_s ==" in out

    def test_cli_missing_file(self, tmp_path, capsys):
        assert serve_main(["slowlog", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
