"""QueryService behavior: statuses, accounting, metrics, lifecycle."""

import asyncio
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.serve import (
    AdmissionConfig,
    QueryRequest,
    QueryService,
    ServingEngine,
    SlowLogConfig,
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

    def test_execution_error_becomes_error_response(self, service, monkeypatch):
        def raising(engine, request):
            raise RuntimeError("engine failed")

        monkeypatch.setattr(ServingEngine, "execute", raising)
        resp = service.submit(QueryRequest(op="selection", query_index=0))
        assert resp.status == "error"
        assert resp.error == "RuntimeError: engine failed"
        assert resp.results is None
        assert resp.worker is not None

    def test_unknown_query_is_an_error_at_arrival(self):
        # With the only engine held and no queue, a resident selection is
        # shed; one naming no resident query is an error all the same.
        svc = QueryService(workers=1, admission=AdmissionConfig(max_queue=0))
        try:
            held, _ = svc.pool.admit()
            queries = len(svc.workload.queries)
            resp = svc.submit(QueryRequest(op="selection", query_index=queries))
            assert resp.status == "error"
            assert resp.error == (
                f"IndexError: query_index {queries} out of range "
                f"(resident query set has {queries})"
            )
            assert resp.worker is None and resp.results is None
            assert svc.submit(QueryRequest(op="selection", query_index=0)).status == "shed"
            resp = asyncio.run(svc.asubmit(QueryRequest(op="selection", query_index=10_000)))
            assert resp.status == "error"
            svc.pool.release(held)
        finally:
            svc.close()

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
            engine, _ = svc.pool.admit()
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
            engine, _ = svc.pool.admit()  # hold the only engine
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
        text = service.registry.prometheus_text()
        assert "serve_requests" in text
        assert "serve_request_duration_s" in text


class _BlockingMath:
    """``math`` for :mod:`repro.obs.metrics` whose ``frexp`` - the bucket
    of a histogram observation - blocks one chosen thread once, mid-record,
    until released."""

    def __init__(self, writer_name):
        self.writer_name = writer_name
        self.reached = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(math, name)

    def frexp(self, value):
        if threading.current_thread().name == self.writer_name and not self.reached.is_set():
            self.reached.set()
            self.release.wait(10.0)
        return math.frexp(value)


class _BlockingStages:
    """``FUNNEL_STAGES`` for :mod:`repro.obs.instrument` whose iteration
    blocks one chosen thread once, after the ``candidates`` stage."""

    def __init__(self, stages, writer_name):
        self.stages = stages
        self.writer_name = writer_name
        self.reached = threading.Event()
        self.release = threading.Event()

    def __iter__(self):
        for stage in self.stages:
            yield stage
            if (
                stage == "candidates"
                and threading.current_thread().name == self.writer_name
                and not self.reached.is_set()
            ):
                self.reached.set()
                self.release.wait(10.0)


def _read_mid_record(write, registry, blocker):
    """Run ``write`` on the blocker's writer thread, snapshot ``registry``
    from another thread while the writer is blocked mid-record (or done, if
    it never reaches the block), then release it; returns the snapshot."""
    writer = threading.Thread(target=write, name=blocker.writer_name)
    writer.start()
    while not blocker.reached.is_set() and writer.is_alive():
        time.sleep(0.001)
    snapshots = []
    reader = threading.Thread(target=lambda: snapshots.append(registry.snapshot()))
    reader.start()
    reader.join(0.2)
    blocker.release.set()
    writer.join(10.0)
    reader.join(10.0)
    assert not writer.is_alive() and not reader.is_alive()
    return snapshots[0]


class TestWholeRecords:
    """A read sees each record whole: a request's outcome count with its
    durations, a run's funnel with all of its stages."""

    def test_request_outcome_and_its_durations_land_together(self, monkeypatch):
        from repro.obs import metrics

        svc = QueryService(workers=1)
        try:
            request = QueryRequest(op="selection", query_index=0)

            def write():
                svc._finish(request, "ok", time.perf_counter(), wait_s=1e-3, exec_s=2e-3)

            blocker = _BlockingMath("request-writer")
            monkeypatch.setattr(metrics, "math", blocker)
            snap = _read_mid_record(write, svc.registry, blocker)
        finally:
            svc.close()
        ok = snap["counters"].get("serve_requests{op=selection,status=ok}", 0)
        for family in ("wait", "exec", "request"):
            hist = snap["histograms"].get(f"serve_{family}_duration_s{{op=selection}}", {})
            assert hist.get("count", 0) == ok

    def test_a_scraped_funnel_is_whole(self, monkeypatch, workload):
        from repro.obs import instrument
        from repro.obs.explain import funnels_from_snapshot

        registry = MetricsRegistry()
        engine = ServingEngine(0, workload)

        def write():
            with use_registry(registry):
                engine.join.run()

        blocker = _BlockingStages(instrument.FUNNEL_STAGES, "run-writer")
        monkeypatch.setattr(instrument, "FUNNEL_STAGES", blocker)
        snap = _read_mid_record(write, registry, blocker)
        for funnel in funnels_from_snapshot(snap).values():
            assert funnel.check() == []
        assert funnels_from_snapshot(registry.snapshot())["join"].candidates > 0

    def test_metrics_envelope_renders_text_and_snapshot_from_one_read(self, monkeypatch):
        from repro.obs import metrics
        from repro.serve.server import ServeFrontend

        svc = QueryService(workers=1)
        frontend = ServeFrontend(svc)
        request = QueryRequest(op="selection", query_index=0)
        svc.submit(request)

        def then_serve(render):
            def rendered(*args):
                text = render(*args)
                svc.submit(request)  # a writer between the two renders
                return text

            return rendered

        monkeypatch.setattr(
            MetricsRegistry, "prometheus_text", then_serve(MetricsRegistry.prometheus_text)
        )
        if hasattr(metrics, "_prometheus_of"):
            monkeypatch.setattr(metrics, "_prometheus_of", then_serve(metrics._prometheus_of))
        try:
            reply = frontend._reply(json.dumps({"kind": "metrics"}).encode())
        finally:
            frontend._executor.shutdown()
            svc.close()
        series = 'serve_requests{op="selection",status="ok"} '
        (line,) = [x for x in reply["text"].splitlines() if x.startswith(series)]
        counters = reply["snapshot"]["counters"]
        assert int(line[len(series):]) == counters["serve_requests{op=selection,status=ok}"]

    def test_accumulators_stay_bounded_without_reads(self):
        svc = QueryService(workers=1)
        try:
            engine = svc.pool.engines[0]
            settled = [
                QueryRequest(op="selection", query_index=i)
                for i in range(len(svc.workload.queries))
                if not engine.execute(QueryRequest(op="selection", query_index=i)).cost.candidates_after_mbr
            ]
            svc.registry.snapshot()  # fold the probe runs away

            def submit(n):
                for i in range(n):
                    svc.submit(settled[i % len(settled)])
                (acc,) = svc.registry._accumulators
                return (
                    {key: len(sums) for key, sums in acc.vectors.items()},
                    sorted(acc.counters),
                    {
                        key: (len(hist.buckets), len(hist._partials))
                        for key, hist in acc.histograms.items()
                    },
                    acc.counters[("serve_requests", (("op", "selection"), ("status", "ok")))],
                )

            vectors, counters, histograms, count = submit(1_000)
            assert count == 1_000
            later = submit(99_000)
            assert later[3] == 100_000
            assert (later[0], later[1]) == (vectors, counters)
            assert later[2].keys() == histograms.keys()
            # Power-of-two buckets and non-overlapping partials: bounded by
            # the float range, not by the observation count.
            assert all(b <= 64 and p <= 40 for b, p in later[2].values())
        finally:
            svc.close()


def _mbr_candidates(workload):
    """Each resident selection's MBR candidate count, from a direct pipeline run."""
    selection = ServingEngine(0, workload).selection
    return [selection.run(q).cost.candidates_after_mbr for q in workload.queries]


@pytest.fixture
def execute_threads(monkeypatch):
    """Every ``ServingEngine.execute`` call as ``(op, query_index, thread id)``."""
    calls = []
    execute = ServingEngine.execute

    def recording(self, request):
        calls.append((request.op, request.query_index, threading.get_ident()))
        return execute(self, request)

    monkeypatch.setattr(ServingEngine, "execute", recording)
    return calls


def _on_loop(calls, loop_thread):
    return [(op, index) for op, index, thread in calls if thread == loop_thread]


def _tree(spans):
    """A trace's shape: ``(name, parent name)`` of every span, timings aside."""
    names = {span["span_id"]: span["name"] for span in spans}
    return sorted((span["name"], names.get(span["parent_id"])) for span in spans)


class TestDispatchRule:
    """``QueryService.dispatch``'s one rule: a selection executes on the
    loop thread iff an engine is free and its last run computed nothing -
    it found no MBR candidate, or it was memo-served and no table has
    evicted since."""

    def test_only_settled_selections_run_on_the_loop(self, workload, execute_threads):
        counts = _mbr_candidates(workload)
        settled = counts.index(0)
        dear = next(i for i, count in enumerate(counts) if count)
        requests = [
            QueryRequest(op="selection", query_index=settled),
            QueryRequest(op="selection", query_index=dear),
            QueryRequest(op="join"),
            QueryRequest(op="within_distance", distance=workload.base_distance),
        ]
        svc = QueryService(workers=1)
        try:

            async def run():
                statuses = [
                    (await svc.asubmit(request)).status
                    for _ in range(3)
                    for request in requests
                ]
                return statuses, threading.get_ident()

            statuses, loop_thread = asyncio.run(run())
        finally:
            svc.close()
        assert statuses == ["ok"] * 12
        assert len(execute_threads) == 12
        # Nothing is known about a first run, so it is offloaded.  The
        # selection the MBR filter settles runs on the loop from its second
        # run; the one with candidates misses on its first run, is
        # memo-served on its second, and runs on the loop from its third.
        assert _on_loop(execute_threads, loop_thread) == [
            ("selection", settled),
            ("selection", settled),
            ("selection", dear),
        ]

    def test_joins_and_within_distance_never_run_on_the_loop(
        self, workload, execute_threads
    ):
        requests = [
            QueryRequest(op="join"),
            QueryRequest(op="within_distance", distance=workload.base_distance),
        ]
        svc = QueryService(workers=1)
        tables = (svc.pool.caches.verdict.table, svc.pool.caches.predicate.table)
        try:

            async def run():
                for _ in range(2):
                    for request in requests:
                        assert (await svc.asubmit(request)).status == "ok"
                misses = [table.misses for table in tables]
                for request in requests:
                    assert (await svc.asubmit(request)).status == "ok"
                memo_served = misses == [table.misses for table in tables]
                return memo_served, threading.get_ident()

            memo_served, loop_thread = asyncio.run(run())
        finally:
            svc.close()
        # Their third runs missed nothing, and still ran on the executor.
        assert memo_served
        assert len(execute_threads) == 6
        assert _on_loop(execute_threads, loop_thread) == []

    def test_memo_served_selection_offloads_after_an_eviction(
        self, workload, execute_threads, monkeypatch
    ):
        import repro.cache

        counts = _mbr_candidates(workload)
        dear, other = sorted(range(len(counts)), key=counts.__getitem__)[-2:]
        # Tables just large enough for one run of ``dear``: ``other``'s
        # stores then evict.
        probe = QueryService(workers=1)
        try:
            probe.submit(QueryRequest(op="selection", query_index=dear))
            caches = probe.pool.caches
            capacity = max(len(caches.verdict), len(caches.predicate))
        finally:
            probe.close()
        monkeypatch.setattr(repro.cache, "CAPACITY", capacity)
        svc = QueryService(workers=1)
        tables = (svc.pool.caches.verdict.table, svc.pool.caches.predicate.table)
        del execute_threads[:]
        order = [dear, dear, dear, other, dear]
        try:

            async def run():
                evictions = []
                for index in order:
                    request = QueryRequest(op="selection", query_index=index)
                    assert (await svc.asubmit(request)).status == "ok"
                    evictions.append(sum(table.evictions for table in tables))
                return evictions, threading.get_ident()

            evictions, loop_thread = asyncio.run(run())
        finally:
            svc.close()
        assert svc.pool.caches.verdict.capacity == capacity
        assert evictions[:3] == [0, 0, 0] and evictions[3] > 0
        placed = [thread == loop_thread for _, _, thread in execute_threads]
        # Memo-served from its second run, so on the loop for its third;
        # after ``other`` evicted, back on the executor.
        assert placed == [False, False, True, False, False]

    def test_settled_selection_offloads_when_no_engine_is_free(
        self, workload, execute_threads
    ):
        settled = _mbr_candidates(workload).index(0)
        request = QueryRequest(op="selection", query_index=settled)
        # The deadline bounds the wait a loop-thread placement would block
        # the loop for (the release below could then never run).
        svc = QueryService(
            workers=1, admission=AdmissionConfig(max_queue=1, timeout_s=5.0)
        )
        try:

            async def run():
                await svc.asubmit(request)  # learns the MBR filter settles it
                held, _ = svc.pool.admit()
                waiting = asyncio.ensure_future(svc.asubmit(request))
                while svc.pool.queue_depth == 0 and not waiting.done():
                    await asyncio.sleep(0.001)
                svc.pool.release(held)
                return (await waiting).status, threading.get_ident()

            status, loop_thread = asyncio.run(run())
        finally:
            svc.close()
        assert status == "ok"
        assert len(execute_threads) == 2
        assert _on_loop(execute_threads, loop_thread) == []
        assert (svc.pool.queue_depth, svc.pool.inflight) == (0, 0)

    def test_cancelled_caller_still_settles_its_checked_out_request(self):
        # The join checks its engine out on the loop; its caller is
        # cancelled before the executor's only thread is free to run it.
        # The request still runs and releases the engine.
        svc = QueryService(workers=1)
        executor = ThreadPoolExecutor(max_workers=1)
        gate = threading.Event()
        try:
            blocker = executor.submit(gate.wait, 10.0)

            async def run():
                task = asyncio.ensure_future(
                    svc.asubmit(QueryRequest(op="join"), executor)
                )
                await asyncio.sleep(0)  # the task admits and hands off
                assert svc.pool.inflight == 1
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task

            asyncio.run(run())
            gate.set()
            assert blocker.result(10.0)
        finally:
            gate.set()
            executor.shutdown(wait=True)
            svc.close()
        counters = svc.metrics_snapshot()["counters"]
        assert counters["serve_requests{op=join,status=ok}"] == 1
        assert (svc.pool.queue_depth, svc.pool.inflight) == (0, 0)

    def test_small_executor_never_strands_a_checked_out_engine(self):
        # One offload thread, a queue longer than that and no deadline.
        # The first queued join parks the only thread in the pool's wait
        # and a second queues behind it.  The engine is released and a
        # third join decided on the loop before the woken waiter can take
        # the lock back: were the free engine handed to that late arrival,
        # its execution would queue behind the parked thread, which waits
        # for the very engine it holds - for ever.
        svc = QueryService(workers=1, admission=AdmissionConfig(max_queue=3))
        executor = ThreadPoolExecutor(max_workers=1)
        join = QueryRequest(op="join")
        try:

            async def run():
                held, _ = svc.pool.admit()
                queued = [
                    asyncio.ensure_future(svc.asubmit(join, executor))
                    for _ in range(2)
                ]
                while svc.pool.queue_depth < 2:
                    await asyncio.sleep(0.001)
                with svc.pool._cond:  # the woken waiter cannot take it yet
                    svc.pool.release(held)
                    late = asyncio.ensure_future(svc.asubmit(join, executor))
                    await asyncio.sleep(0)  # the late join is decided here
                return await asyncio.wait_for(asyncio.gather(*queued, late), 10.0)

            responses = asyncio.run(run())
        finally:
            svc.close()  # wakes any stranded waiter, so shutdown returns
            executor.shutdown(wait=True)
        assert [r.status for r in responses] == ["ok"] * 3
        counters = svc.metrics_snapshot()["counters"]
        assert counters["serve_requests{op=join,status=ok}"] == 3
        assert (svc.pool.queue_depth, svc.pool.inflight) == (0, 0)

    def test_concurrent_arrivals_are_each_settled_once(self, workload):
        # Many more arrivals than engines and queue slots, on both
        # placements at once, with threads switching inside the pool's
        # reach: every arrival is settled exactly once and the gauges drain.
        counts = _mbr_candidates(workload)
        indices = list(range(len(counts))) * 3
        svc = QueryService(workers=2, admission=AdmissionConfig(max_queue=4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            async def run():
                for i in indices:  # learn each selection once
                    await svc.asubmit(QueryRequest(op="selection", query_index=i))
                burst = [
                    svc.asubmit(QueryRequest(op="selection", query_index=i))
                    for i in indices
                ] + [svc.asubmit(QueryRequest(op="join")) for _ in range(4)]
                return await asyncio.wait_for(asyncio.gather(*burst), 60.0)

            responses = asyncio.run(run())
            direct = {
                i: svc.submit(QueryRequest(op="selection", query_index=i)).results
                for i in set(indices)
            }
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        counters = svc.metrics_snapshot()["counters"]
        settled = sum(
            counters.get(f"serve_requests{{op={op},status={status}}}", 0)
            for op in ("selection", "join")
            for status in ("ok", "shed", "timeout", "error")
        )
        assert settled == 2 * len(indices) + 4 + len(direct)
        assert {r.status for r in responses} <= {"ok", "shed"}
        for i, resp in zip(indices, responses):
            if resp.status == "ok":
                assert resp.results == direct[i]
        gauges = svc.metrics_snapshot()["gauges"]
        assert (gauges["serve_queue_depth"], gauges["serve_inflight"]) == (0, 0)


    @pytest.mark.parametrize("history", ["no_candidate", "memo_served"])
    def test_engine_fault_on_the_loop_ends_in_error(
        self, workload, monkeypatch, history
    ):
        counts = _mbr_candidates(workload)
        if history == "no_candidate":
            index, learning_runs = counts.index(0), 1
        else:
            index, learning_runs = next(i for i, c in enumerate(counts) if c), 2
        request = QueryRequest(op="selection", query_index=index)
        threads = []

        def raising(engine, request):
            threads.append(threading.get_ident())
            raise RuntimeError("engine failed")

        svc = QueryService(workers=1)
        try:

            async def run():
                learned = [await svc.asubmit(request) for _ in range(learning_runs)]
                monkeypatch.setattr(ServingEngine, "execute", raising)
                failed = await svc.asubmit(request)
                return learned, failed, threading.get_ident()

            learned, failed, loop_thread = asyncio.run(run())
            assert [r.status for r in learned] == ["ok"] * learning_runs
            assert threads == [loop_thread]
            assert failed.status == "error"
            assert failed.error == "RuntimeError: engine failed"
            assert failed.results is None
            assert (svc.pool.queue_depth, svc.pool.inflight) == (0, 0)
            counters = svc.metrics_snapshot()["counters"]
            assert counters["serve_requests{op=selection,status=error}"] == 1
            settled = sum(
                counters.get(f"serve_requests{{op=selection,status={status}}}", 0)
                for status in ("ok", "shed", "timeout", "error")
            )
            assert settled == learning_runs + 1  # == arrivals
            assert svc.health()["verdict"] == "ready"
        finally:
            svc.close()

class TestAsyncFacade:
    def test_asubmit_matches_submit(self, workload, execute_threads):
        counts = _mbr_candidates(workload)
        settled = counts.index(0)
        dear = next(i for i, count in enumerate(counts) if count)
        # Offloaded, on the loop, offloaded.
        requests = [
            QueryRequest(op="selection", query_index=settled),
            QueryRequest(op="selection", query_index=settled),
            QueryRequest(op="selection", query_index=dear),
        ]
        # Two services, so each request's submit() twin runs as cold as
        # its asubmit(): a pool memoizes, and a repeat renders nothing.
        svc, twin = (
            QueryService(workers=2, trace=True, slowlog=SlowLogConfig(threshold_s=0.0))
            for _ in range(2)
        )
        try:

            async def run():
                responses = [await svc.asubmit(request) for request in requests]
                return responses, threading.get_ident()

            served, loop_thread = asyncio.run(run())
            placements = _on_loop(execute_threads, loop_thread)
            direct = [twin.submit(request) for request in requests]
        finally:
            svc.close()
            twin.close()
        assert placements == [("selection", settled)]
        for resp, want in zip(served, direct):
            assert resp.status == want.status == "ok"
            assert resp.results == want.results
        traces, twin_traces = svc.traces.records(), twin.traces.records()
        records, twin_records = svc.slowlog.records(), twin.slowlog.records()
        assert len(traces) == len(records) == len(twin_traces) == len(requests)
        for i in range(len(requests)):
            placed, synced = traces[i], twin_traces[i]
            assert _tree(placed) == _tree(synced)
            assert {"request", "queue_wait", "execute", "mbr_filter"} <= {
                name for name, _ in _tree(placed)
            }
            assert records[i]["funnel"] == twin_records[i]["funnel"]
            assert records[i]["cache_delta"] == twin_records[i]["cache_delta"]
            assert records[i]["funnel_violations"] == []


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
