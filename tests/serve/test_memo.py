"""The pool's one memo table: concurrent requests do the work a sequential
run does, and a request whose hardware stage or prefilter fails hands its
keys to the request waiting on them."""

import dataclasses
import threading

import repro.core.refine as refine_module
import repro.geometry.distance as distance_module
from repro.cache import MemoCache
from repro.core.hardware_test import HardwareSegmentTest
from repro.serve import QueryRequest, QueryService, ServingEngine, canonical_results

JOIN = QueryRequest(op="join")


def _work(svc: QueryService):
    """What the pool did: the registry's cache and GPU counters, and the
    engines' summed sweep and minDist work counters."""
    counters = svc.metrics_snapshot()["counters"]
    work = {
        key: value
        for key, value in counters.items()
        if key.startswith(("cache_", "gpu{"))
    }
    for engine in svc.pool.engines:
        for stats in (engine.engine.sweep_stats, engine.engine.mindist_stats):
            for name, value in dataclasses.asdict(stats).items():
                label = f"{type(stats).__name__}.{name}"
                work[label] = work.get(label, 0) + value
    return work


def _submit_together(svc, requests, timeout=60.0):
    """Release ``requests`` at once from one thread each; their responses."""
    barrier = threading.Barrier(len(requests))
    responses = [None] * len(requests)

    def client(i):
        barrier.wait()
        responses[i] = svc.submit(requests[i])

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(requests))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads), "a request never finished"
    return responses


def _slow_first_render(monkeypatch, hold):
    """Make the first atlas render call ``hold()`` before rendering."""
    original = HardwareSegmentTest._render_atlas
    calls = []

    def render(self, *args):
        calls.append(threading.get_ident())
        if len(calls) == 1:
            hold()
        return original(self, *args)

    monkeypatch.setattr(HardwareSegmentTest, "_render_atlas", render)
    return calls


def _wait_entered(monkeypatch):
    """An event set when any handle starts waiting on a claimed key."""
    entered = threading.Event()
    original = MemoCache.wait

    def wait(self, op, keys):
        entered.set()
        return original(self, op, keys)

    monkeypatch.setattr(MemoCache, "wait", wait)
    return entered


class TestConcurrentRequestsShareWork:
    def test_two_identical_joins_do_the_work_of_two_in_sequence(self, monkeypatch):
        sequential = QueryService(workers=2)
        try:
            first, second = sequential.submit(JOIN), sequential.submit(JOIN)
            expected = _work(sequential)
        finally:
            sequential.close()
        assert first.results == second.results

        together = QueryService(workers=2)
        entered = _wait_entered(monkeypatch)
        # The first render holds its keys until the second request is
        # waiting on them, so the two really overlap.
        _slow_first_render(monkeypatch, lambda: entered.wait(10.0))
        try:
            responses = _submit_together(together, [JOIN, JOIN])
            got = _work(together)
        finally:
            together.close()
        assert entered.is_set()
        assert [r.status for r in responses] == ["ok", "ok"]
        assert {r.worker for r in responses} == {0, 1}
        assert all(r.results == first.results for r in responses)
        assert expected["cache_misses{cache=verdict,op=intersect}"] > 0
        assert expected["cache_hits{cache=verdict,op=intersect}"] > 0
        assert got == expected


class TestFailedClaimer:
    def test_waiter_takes_over_the_keys_of_a_failed_render(self, monkeypatch, workload):
        svc = QueryService(workers=2)
        entered = _wait_entered(monkeypatch)

        def fail_once_waited_on():
            assert entered.wait(10.0), "the second request never waited"
            raise RuntimeError("simulated device loss")

        calls = _slow_first_render(monkeypatch, fail_once_waited_on)
        try:
            responses = _submit_together(svc, [JOIN, JOIN], timeout=30.0)
            renders = len(calls)
            counters = svc.metrics_snapshot()["counters"]
            health = svc.health()
            after = svc.submit(JOIN)
        finally:
            svc.close()
        statuses = sorted(r.status for r in responses)
        assert statuses == ["error", "ok"]
        failed = next(r for r in responses if r.status == "error")
        assert "simulated device loss" in failed.error
        ok = next(r for r in responses if r.status == "ok")
        direct = ServingEngine(0, workload).execute(JOIN).results
        assert canonical_results(ok.results) == canonical_results(direct)
        # The waiter rendered the released keys itself: a second render.
        assert renders == 2
        arrivals = sum(
            counters.get(f"serve_requests{{op=join,status={status}}}", 0)
            for status in ("ok", "shed", "timeout", "error")
        )
        assert arrivals == len(responses)
        assert health["ready"] is True
        assert after.status == "ok" and after.results == ok.results
        for table in (svc.pool.caches.verdict, svc.pool.caches.predicate):
            assert table.table.claims == {}


def _count_point_location(monkeypatch, hold=None):
    """Count the prefilter's ``either_contains`` calls and every
    ``locate_xy`` call the refinement stages make; the first prefilter
    call runs ``hold()`` first."""
    calls = {"either_contains": 0, "locate_xy": 0}

    def counting(module, name, first=None):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            if first is not None and calls[name] == 1:
                first()
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counting(refine_module, "either_contains", hold)
    counting(refine_module, "locate_xy")
    counting(distance_module, "locate_xy")
    return calls


def _pip_tallies(svc: QueryService):
    counters = svc.metrics_snapshot()["counters"]
    return {key: value for key, value in counters.items() if "op=pip" in key}


class TestSharedPrefilter:
    def test_two_identical_joins_run_the_prefilter_once(self, monkeypatch):
        sequential = QueryService(workers=2)
        try:
            with monkeypatch.context() as patch:
                expected = _count_point_location(patch)
                first = sequential.submit(JOIN)
                once = dict(expected)
                sequential.submit(JOIN)
            pip = _pip_tallies(sequential)
        finally:
            sequential.close()
        assert expected == once  # the warm repeat located no point
        assert expected["either_contains"] > 0

        together = QueryService(workers=2)
        entered = _wait_entered(monkeypatch)
        # The first prefilter call holds its keys until the other request
        # waits on them.
        calls = _count_point_location(monkeypatch, lambda: entered.wait(10.0))
        try:
            responses = _submit_together(together, [JOIN, JOIN])
            got = _pip_tallies(together)
        finally:
            together.close()
        assert entered.is_set()
        assert [r.status for r in responses] == ["ok", "ok"]
        assert all(r.results == first.results for r in responses)
        assert calls == expected
        assert got == pip

    def test_waiter_takes_over_the_keys_of_a_failed_prefilter(
        self, monkeypatch, workload
    ):
        svc = QueryService(workers=2)
        entered = _wait_entered(monkeypatch)

        def fail_once_waited_on():
            assert entered.wait(10.0), "the second request never waited"
            raise RuntimeError("simulated prefilter fault")

        calls = _count_point_location(monkeypatch, fail_once_waited_on)
        try:
            responses = _submit_together(svc, [JOIN, JOIN], timeout=30.0)
            counters = svc.metrics_snapshot()["counters"]
            health = svc.health()
        finally:
            svc.close()
        statuses = sorted(r.status for r in responses)
        assert statuses == ["error", "ok"]
        failed = next(r for r in responses if r.status == "error")
        assert "simulated prefilter fault" in failed.error
        ok = next(r for r in responses if r.status == "ok")
        direct = ServingEngine(0, workload).execute(JOIN).results
        assert canonical_results(ok.results) == canonical_results(direct)
        # The waiter ran every prefilter itself, after the failed first call.
        assert calls["either_contains"] > 1
        arrivals = sum(
            counters.get(f"serve_requests{{op=join,status={status}}}", 0)
            for status in ("ok", "shed", "timeout", "error")
        )
        assert arrivals == len(responses)
        assert health["ready"] is True
        for table in (svc.pool.caches.verdict, svc.pool.caches.predicate):
            assert table.table.claims == {}
