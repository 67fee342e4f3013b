"""QueryService behavior: statuses, accounting, metrics, lifecycle."""

import threading
import time

import pytest

from repro.serve import (
    AdmissionConfig,
    QueryRequest,
    QueryService,
)


class TestSubmitOutcomes:
    def test_selection_ok(self, service):
        resp = service.submit(QueryRequest(op="selection", query_index=3))
        assert resp.status == "ok"
        assert resp.worker in (0, 1)
        assert resp.results is not None
        assert resp.total_s >= resp.exec_s >= 0.0

    def test_join_ok(self, service):
        resp = service.submit(QueryRequest(op="join"))
        assert resp.status == "ok"
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in resp.results)

    def test_within_distance_ok(self, service):
        resp = service.submit(
            QueryRequest(
                op="within_distance", distance=service.workload.base_distance
            )
        )
        assert resp.status == "ok"
        assert resp.result_count > 0

    def test_execution_error_becomes_error_response(self, service):
        resp = service.submit(QueryRequest(op="selection", query_index=10_000))
        assert resp.status == "error"
        assert "IndexError" in resp.error
        assert resp.results is None

    def test_request_id_echoed(self, service):
        resp = service.submit(
            QueryRequest(op="selection", query_index=0, request_id="abc-1")
        )
        assert resp.request_id == "abc-1"

    def test_closed_service_refuses(self):
        svc = QueryService(workers=1)
        svc.close()
        resp = svc.submit(QueryRequest(op="join"))
        assert resp.status == "error"
        assert "closed" in resp.error


class TestBackpressure:
    def test_shed_when_queue_full(self):
        svc = QueryService(workers=1, admission=AdmissionConfig(max_queue=0))
        try:
            # With a zero-length queue and the single engine checked out,
            # every arrival is shed before doing any work.
            engine, _ = svc.pool.acquire(time.perf_counter())
            resp = svc.submit(QueryRequest(op="join"))
            assert resp.status == "shed"
            svc.pool.release(engine)
        finally:
            svc.close()

    def test_zero_queue_runs_on_an_idle_engine(self):
        # A zero-length queue refuses only what would have to wait: an
        # idle service answers every sequential request.
        svc = QueryService(workers=2, admission=AdmissionConfig(max_queue=0))
        try:
            statuses = [
                svc.submit(QueryRequest(op="selection", query_index=i)).status
                for i in range(4)
            ]
            assert statuses == ["ok"] * 4
            assert (svc.pool.queue_depth, svc.pool.inflight) == (0, 0)
        finally:
            svc.close()

    def test_burst_gets_ok_shed_and_timeout_all_accounted(self, monkeypatch):
        # One engine, one queue slot, a short deadline.  The first arrival
        # of a burst runs (its execution is held until the others are
        # answered), one more waits and times out, the rest are shed - and
        # every arrival is accounted exactly once.
        svc = QueryService(
            workers=1, admission=AdmissionConfig(max_queue=1, timeout_s=0.2)
        )
        try:
            engine = svc.pool.engines[0]
            execute, release = engine.execute, threading.Event()

            def held_execute(request):
                release.wait(10.0)
                return execute(request)

            monkeypatch.setattr(engine, "execute", held_execute)
            arrivals = 6
            barrier = threading.Barrier(arrivals)
            responses = []

            def client():
                barrier.wait()
                responses.append(svc.submit(QueryRequest(op="join")))

            burst = [threading.Thread(target=client) for _ in range(arrivals)]
            for t in burst:
                t.start()
            deadline = time.monotonic() + 10.0
            while len(responses) < arrivals - 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            release.set()
            for t in burst:
                t.join(timeout=10.0)
                assert not t.is_alive()
            statuses = sorted(r.status for r in responses)
            assert statuses.count("ok") == 1
            assert statuses.count("timeout") >= 1
            assert statuses.count("shed") >= 1
            counters = svc.metrics_snapshot()["counters"]
            counted = sum(
                counters.get(f"serve_requests{{op=join,status={status}}}", 0)
                for status in ("ok", "shed", "timeout", "error")
            )
            assert counted == len(responses) == arrivals
        finally:
            svc.close()

    def test_timeout_when_no_engine_frees_up(self):
        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(max_queue=4, timeout_s=0.05),
        )
        try:
            engine, _ = svc.pool.acquire(time.perf_counter())  # hold the only engine
            resp = svc.submit(QueryRequest(op="join"))
            assert resp.status == "timeout"
            assert resp.wait_s >= 0.05
            # The abandoned queue slot is returned.
            assert svc.pool.queue_depth == 0
            svc.pool.release(engine)
            # And the service still works afterwards.
            assert svc.submit(QueryRequest(op="join")).status == "ok"
        finally:
            svc.close()


class TestAccounting:
    def test_every_outcome_is_counted(self):
        svc = QueryService(workers=1, admission=AdmissionConfig(max_queue=100))
        try:
            svc.submit(QueryRequest(op="selection", query_index=0))
            svc.submit(QueryRequest(op="selection", query_index=99_999))
            snap = svc.metrics_snapshot()
            counters = snap["counters"]
            assert counters["serve_requests{op=selection,status=ok}"] == 1
            assert counters["serve_requests{op=selection,status=error}"] == 1
        finally:
            svc.close()

    def test_latency_histograms_only_for_ok(self):
        svc = QueryService(workers=1, admission=AdmissionConfig(max_queue=100))
        try:
            svc.submit(QueryRequest(op="selection", query_index=0))
            svc.submit(QueryRequest(op="selection", query_index=99_999))
            hists = svc.metrics_snapshot()["histograms"]
            key = "serve_request_duration_s{op=selection}"
            assert hists[key]["count"] == 1  # the error is not a latency sample
        finally:
            svc.close()

    def test_pipeline_metrics_flow_into_service_registry(self, service):
        key = "funnel{pipeline=join,stage=refined}"
        before = service.metrics_snapshot()["counters"].get(key, 0)
        service.submit(QueryRequest(op="join"))
        after = service.metrics_snapshot()["counters"][key]
        assert after > before

    def test_gauges_drain_to_zero_after_concurrent_burst(self):
        svc = QueryService(workers=2, admission=AdmissionConfig(max_queue=1000))
        try:
            threads = [
                threading.Thread(
                    target=svc.submit,
                    args=(QueryRequest(op="selection", query_index=i % 5),),
                )
                for i in range(16)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            gauges = svc.metrics_snapshot()["gauges"]
            assert gauges["serve_queue_depth"] == 0
            assert gauges["serve_inflight"] == 0
        finally:
            svc.close()

    def test_prometheus_text_exposition(self, service):
        service.submit(QueryRequest(op="join"))
        text = service.metrics_text()
        assert "serve_requests" in text
        assert "serve_request_duration_s" in text


class TestAsyncFacade:
    def test_asubmit_matches_submit(self, service):
        import asyncio

        async def run():
            return await service.asubmit(
                QueryRequest(op="selection", query_index=2)
            )

        resp = asyncio.run(run())
        direct = service.submit(QueryRequest(op="selection", query_index=2))
        assert resp.status == "ok"
        assert resp.results == direct.results


class TestWarm:
    def test_warm_pool_serves_identically(self):
        warm = QueryService(workers=1, warm=True)
        cold = QueryService(workers=1, warm=False)
        try:
            req = QueryRequest(op="selection", query_index=4)
            assert warm.submit(req).results == cold.submit(req).results
        finally:
            warm.close()
            cold.close()


def test_capacity_is_pool_plus_queue():
    svc = QueryService(workers=2, admission=AdmissionConfig(max_queue=7))
    try:
        assert svc.capacity == 9
    finally:
        svc.close()


def test_invalid_worker_count():
    with pytest.raises(ValueError, match="pool size"):
        QueryService(workers=0)
