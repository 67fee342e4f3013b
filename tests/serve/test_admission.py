"""Admission tests: the engine pool is the one gate - bounds, deadlines,
accounting, locked gauge publication."""

import sys
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import AdmissionConfig, EnginePool


class TestAdmissionConfig:
    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError, match="max_queue"):
            AdmissionConfig(max_queue=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError, match="timeout_s"):
            AdmissionConfig(timeout_s=0.0)

    def test_none_timeout_means_wait_forever(self):
        assert AdmissionConfig(timeout_s=None).timeout_s is None


@pytest.fixture
def pool_of(workload):
    def build(size=1, registry=None, **admission):
        registry = registry if registry is not None else MetricsRegistry()
        return EnginePool(workload, size, AdmissionConfig(**admission), registry)

    return build


def _acquire(pool, arrival=None):
    """One request's whole decision: admit it, then wait if it was queued."""
    arrival = time.perf_counter() if arrival is None else arrival
    engine, outcome = pool.admit()
    return pool.wait(arrival) if outcome == "queued" else (engine, outcome)


def _until(predicate):
    deadline = time.monotonic() + 10.0
    while not predicate():
        assert time.monotonic() < deadline, "pool never reached the state"
        time.sleep(0.001)


def _join(threads):
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive(), "a request never got its decision"


def _waiters(pool, n):
    """Start ``n`` threads that each wait for an engine; returns the
    threads and the list their ``(engine, refusal)`` outcomes land in."""
    outcomes = []
    threads = [
        threading.Thread(target=lambda: outcomes.append(_acquire(pool)))
        for _ in range(n)
    ]
    for t in threads:
        t.start()
    return threads, outcomes


class TestAdmissionController:
    """The pool as the service's admission controller: every run, wait,
    shed and timeout decision is taken by :meth:`EnginePool.admit` at
    arrival and, for a queued request, :meth:`EnginePool.wait`."""

    def test_admit_decides_without_blocking(self, pool_of):
        pool = pool_of(size=1, max_queue=1)
        held, outcome = pool.admit()
        assert held is not None and outcome is None
        # Busy with a free slot: queued at once, the slot already counted.
        assert pool.admit() == (None, "queued")
        assert (pool.queue_depth, pool.inflight) == (1, 1)
        assert pool.admit() == (None, "shed")  # the slot is taken
        pool.release(held)
        assert pool.wait(time.perf_counter()) == (held, None)
        assert (pool.queue_depth, pool.inflight) == (0, 1)
        pool.release(held)

    def test_released_engine_goes_to_the_queued_request(self, pool_of):
        pool = pool_of(size=1, max_queue=2)
        held, _ = pool.admit()
        assert pool.admit() == (None, "queued")
        pool.release(held)
        # The free engine is owed to the queued request: a later arrival
        # queues behind it instead of taking it.
        assert pool.admit() == (None, "queued")
        assert (pool.queue_depth, pool.inflight) == (2, 0)
        now = time.perf_counter()
        assert pool.wait(now) == (held, None)
        pool.release(held)
        assert pool.wait(now) == (held, None)
        pool.release(held)
        # Nobody is queued any more: an arrival takes a free engine at once.
        assert pool.admit() == (held, None)
        pool.release(held)

    def test_sheds_beyond_queue_bound(self, pool_of):
        pool = pool_of(size=1, max_queue=2)
        held, refusal = _acquire(pool)
        assert held is not None and refusal is None
        threads, outcomes = _waiters(pool, 2)
        _until(lambda: pool.queue_depth == 2)
        assert _acquire(pool) == (None, "shed")  # third waiter is shed
        pool.release(held)
        # The checkout frees a queue slot.
        _until(lambda: pool.queue_depth == 1 and len(outcomes) == 1)
        pool.release(outcomes[0][0])
        _until(lambda: len(outcomes) == 2)
        pool.release(outcomes[1][0])
        _join(threads)
        assert [refusal for _, refusal in outcomes] == [None, None]
        assert pool.queue_depth == 0 and pool.inflight == 0

    def test_zero_queue_sheds_only_while_every_engine_is_busy(self, pool_of):
        pool = pool_of(size=1, max_queue=0)
        engine, refusal = _acquire(pool)  # idle: runs at once
        assert engine is not None and refusal is None
        assert _acquire(pool) == (None, "shed")  # busy: nowhere to wait
        pool.release(engine)
        again, refusal = _acquire(pool)
        assert again is engine and refusal is None
        pool.release(again)

    def test_full_lifecycle_returns_to_zero(self, pool_of):
        pool = pool_of(size=2, max_queue=4)
        engine, _ = _acquire(pool)
        assert pool.inflight == 1
        pool.release(engine)
        assert pool.queue_depth == 0
        assert pool.inflight == 0

    def test_abandon_returns_queue_slot(self, pool_of):
        pool = pool_of(size=1, max_queue=1, timeout_s=0.05)
        held, _ = _acquire(pool)
        start = time.perf_counter()
        assert _acquire(pool, start) == (None, "timeout")
        assert time.perf_counter() - start >= 0.05
        # The timed-out request left the queue: the next one waits
        # (and times out) instead of being shed.
        assert pool.queue_depth == 0
        assert _acquire(pool) == (None, "timeout")
        pool.release(held)

    def test_deadline_counts_from_arrival(self, pool_of):
        pool = pool_of(size=1, max_queue=1, timeout_s=0.5)
        held, _ = _acquire(pool)
        # Arrived a second ago: its deadline has passed, so it does not wait.
        start = time.perf_counter()
        assert _acquire(pool, start - 1.0) == (None, "timeout")
        assert time.perf_counter() - start < 0.5
        pool.release(held)

    def test_close_refuses_waiting_and_new_requests(self, pool_of):
        pool = pool_of(size=1, max_queue=4)
        held, _ = _acquire(pool)
        threads, outcomes = _waiters(pool, 1)
        _until(lambda: pool.queue_depth == 1)
        pool.close()
        _join(threads)
        assert outcomes == [(None, "closed")]
        assert _acquire(pool) == (None, "closed")
        pool.release(held)
        assert pool.queue_depth == 0 and pool.inflight == 0

    def test_gauges_published_under_lock(self, pool_of):
        # The gauges are read from the pool's state, under its lock, on
        # every registry read: each read sees the state of that moment.
        registry = MetricsRegistry()
        pool = pool_of(size=1, registry=registry, max_queue=8)

        def gauges():
            snap = registry.snapshot()["gauges"]
            return snap["serve_queue_depth"], snap["serve_inflight"]

        assert gauges() == (0, 0)
        assert registry.gauge("serve_workers") == 1
        assert registry.gauge("serve_queue_capacity") == 8
        held, _ = _acquire(pool)
        assert gauges() == (0, 1)
        threads, outcomes = _waiters(pool, 1)
        _until(lambda: gauges()[0] == 1)
        pool.release(held)
        _join(threads)
        assert gauges() == (0, 1)
        pool.release(outcomes[0][0])
        assert gauges() == (0, 0)

    def test_gauges_drain_to_zero_under_concurrency(self, pool_of):
        # The property the CI baseline depends on: after every admitted
        # request finishes, the final published gauge values are exactly
        # 0 - no stale out-of-order write survives.
        registry = MetricsRegistry()
        pool = pool_of(size=2, registry=registry, max_queue=10_000)
        barrier = threading.Barrier(8)
        refusals = []

        def worker() -> None:
            barrier.wait()
            for _ in range(200):
                engine, refusal = _acquire(pool)
                refusals.append(refusal)
                pool.release(engine)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the lock's reach
        try:
            for t in threads:
                t.start()
            _join(threads)
        finally:
            sys.setswitchinterval(interval)
        assert refusals == [None] * 1600
        assert pool.queue_depth == 0
        assert pool.inflight == 0
        assert registry.gauge("serve_queue_depth") == 0
        assert registry.gauge("serve_inflight") == 0
