"""Concurrency tests for the metrics layer.

The serving path has many threads updating one registry at once; these
tests hammer the read-modify-write paths (counter inc, gauge add,
histogram observe, registry instrument creation) and pin down the
contextvar scoping semantics of ``use_registry`` under nesting and
threads.
"""

import threading

import pytest

from repro.obs import MetricsRegistry, current_scope, use_registry


def _hammer(n_threads: int, per_thread: int, fn) -> None:
    barrier = threading.Barrier(n_threads)

    def worker() -> None:
        barrier.wait()
        for _ in range(per_thread):
            fn()

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestThreadedUpdates:
    def test_counter_increments_sum_exactly(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        _hammer(8, 2500, counter.inc)
        assert counter.value == 8 * 2500

    def test_counter_labeled_series_created_concurrently(self):
        # Instrument creation itself races when threads first touch a
        # series; every increment must land on the one shared instrument.
        registry = MetricsRegistry()
        _hammer(8, 1000, lambda: registry.counter("hits", op="x").inc())
        assert registry.counter("hits", op="x").value == 8 * 1000

    def test_histogram_observations_all_land(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        _hammer(8, 1500, lambda: hist.observe(1.0))
        assert hist.count == 8 * 1500
        assert hist.sum == float(8 * 1500)  # 1.0-sums are exact

    def test_concurrent_snapshot_while_writing(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                registry.counter("c", shard="w").inc()
                registry.histogram("h").observe(0.5)

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(200):
                snap = registry.snapshot()  # must never raise mid-mutation
                assert "counters" in snap
        finally:
            stop.set()
            t.join()


class TestScopedRegistry:
    def test_nested_scopes_restore_in_order(self):
        outer, inner = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer):
            assert current_scope().registry is outer
            with use_registry(inner):
                assert current_scope().registry is inner
            assert current_scope().registry is outer
        assert current_scope().registry is None

    def test_scoped_none_suppresses_installed_base(self):
        base = MetricsRegistry()
        with use_registry(base):
            assert current_scope().registry is base
            with use_registry(None):
                assert current_scope().registry is None
            assert current_scope().registry is base

    def test_threads_write_to_their_own_scoped_registries(self):
        registries = [MetricsRegistry() for _ in range(4)]
        barrier = threading.Barrier(4)

        def worker(idx: int) -> None:
            with use_registry(registries[idx]):
                barrier.wait()  # all four scopes open simultaneously
                for _ in range(500):
                    current_scope().registry.counter("mine").inc()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for registry in registries:
            assert registry.counter("mine").value == 500

    def test_concurrent_scopes_do_not_stomp_on_exit(self):
        # A swap-a-global-and-swap-back implementation is
        # last-writer-wins: thread B's finally could reinstall thread A's
        # registry after A had already exited.  With tokens, every other
        # control flow's scope is untouched.
        base = MetricsRegistry()
        barrier = threading.Barrier(8)

        def worker() -> None:
            for _ in range(50):
                with use_registry(MetricsRegistry()):
                    pass
            barrier.wait()

        _threads = [threading.Thread(target=worker) for _ in range(8)]
        with use_registry(base):
            for t in _threads:
                t.start()
            for t in _threads:
                t.join()
            assert current_scope().registry is base


class TestHistogramSummary:
    def test_quantile_is_conservative_upper_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        for v in [0.001, 0.002, 0.004, 0.1, 0.2]:
            hist.observe(v)
        # Bucketed quantiles upper-bound the true value but never exceed
        # the recorded maximum.
        assert hist.quantile(0.5) >= 0.004
        assert hist.quantile(1.0) <= hist.max
        assert hist.quantile(0.99) <= hist.max

    def test_quantile_empty_is_zero(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.quantile(0.5) == 0.0

    def test_summary_fields(self):
        hist = MetricsRegistry().histogram("latency")
        for v in [1.0, 2.0, 3.0]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["p50"] >= 1.0
        assert summary["p99"] <= 4.0  # next power-of-two bound above max=3
