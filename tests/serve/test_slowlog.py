"""Tests for slow-query forensics: capture policy and record contents."""

import pytest

from tests.obs.test_explain import explained
from repro.obs.records import MAX_RECORDS, read_jsonl
from repro.serve import (
    AdmissionConfig,
    QueryRequest,
    QueryService,
    ServingEngine,
    SlowLogConfig,
)


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
            assert [r["i"] for r in read_jsonl(str(path))] == list(range(MAX_RECORDS + 3))
        finally:
            svc.close()


def _registry_delta(before, svc):
    """Each memo table's hits/misses/evictions committed since ``before``."""
    after = svc.metrics_snapshot()["counters"]

    def moved(kind, label):
        prefix = f"cache_{kind}{{cache={label},"
        return sum(
            value - before.get(key, 0)
            for key, value in after.items()
            if key.startswith(prefix)
        )

    return {
        label: {kind: moved(kind, label) for kind in ("hits", "misses", "evictions")}
        for label in ("verdict", "predicate")
    }


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
        before = svc.metrics_snapshot()["counters"]
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
        # The pool memoizes: the delta holds this request's own lookups
        # in each table, exactly what it committed to the registry.
        assert record["cache_delta"] == _registry_delta(before, svc)
        assert set(record["cache_delta"]) == {"verdict", "predicate"}
        # Accounted in the metrics registry (family exists only when the
        # slowlog is enabled, so the baseline-gated CI run never sees it).
        snap = svc.metrics_snapshot()["counters"]
        assert snap["serve_slow_requests{op=selection,status=ok}"] >= 1

    def test_cache_delta_counts_the_request_own_lookups(self, forensic_service):
        # The second of two identical joins replays every lookup the first
        # made: its misses are the first one's hits + misses.
        svc, _ = forensic_service
        deltas = []
        for _ in range(2):
            before = svc.metrics_snapshot()["counters"]
            assert svc.submit(QueryRequest(op="join")).status == "ok"
            deltas.append(svc.slowlog.records()[-1]["cache_delta"])
            assert deltas[-1] == _registry_delta(before, svc)
        first, second = deltas
        for label in ("verdict", "predicate"):
            looked_up = first[label]["hits"] + first[label]["misses"]
            assert second[label] == {"hits": looked_up, "misses": 0, "evictions": 0}
        assert first["verdict"]["misses"] > 0 and first["predicate"]["misses"] > 0

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
        records = read_jsonl(path)
        assert len(records) == svc.slowlog.added
        assert all(r["schema"] == "repro.serve/slowlog@1" for r in records)

    def test_shed_is_logged_without_execution_artifacts(self):
        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(max_queue=0),
            slowlog=SlowLogConfig(threshold_s=100.0),
        )
        try:
            # Hold the only engine: with nowhere to wait, the join is shed.
            engine, _ = svc.pool.admit()
            response = svc.submit(QueryRequest(op="join"))
            svc.pool.release(engine)
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


class TestFunnelIdentity:
    def test_slowlog_funnel_equals_explain_run_on_a_fresh_engine(self):
        """Every request's slowlog funnel - the one its pipeline's observer
        published - equals the funnel of the same request on a fresh
        engine under a private registry, stage by stage and label by
        label."""
        svc = QueryService(workers=1, slowlog=SlowLogConfig(threshold_s=0.0))
        workload = svc.workload
        requests = [QueryRequest(op="selection", query_index=i) for i in range(6)]
        requests += [
            QueryRequest(op="join"),
            QueryRequest(op="within_distance", distance=workload.base_distance),
        ]
        try:
            for request in requests:
                assert svc.submit(request).status == "ok"
                record = svc.slowlog.records()[-1]
                fresh = ServingEngine(0, workload)
                run = {
                    "selection": lambda: fresh.selection.run(
                        workload.queries[request.query_index]
                    ),
                    "join": fresh.join.run,
                    "within_distance": lambda: fresh.within.run(request.distance),
                }[request.op]
                _, funnel = explained(run)
                assert record["funnel"] == funnel.to_dict(), request
                assert record["funnel_violations"] == []
        finally:
            svc.close()
