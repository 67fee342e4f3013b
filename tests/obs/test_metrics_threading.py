"""Concurrency tests for the metrics layer.

The serving path has many threads updating one registry at once; these
tests hammer the write paths (accumulator commits from many threads, a
series first written by many threads at once, a shared histogram's
observe, commits against a folding reader) and pin down the
contextvar scoping semantics of ``use_registry`` under nesting and
threads.
"""

import threading

import pytest

from repro.obs import MetricsRegistry, current_scope, use_registry
from repro.obs.metrics import Histogram, metric_key


def _commit_add(registry, key) -> None:
    acc = registry.accumulator()
    with acc.lock:
        acc.add(key)


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
        hits = metric_key("hits")
        _hammer(8, 2500, lambda: _commit_add(registry, hits))
        assert registry.counter("hits") == 8 * 2500

    def test_counter_labeled_series_created_concurrently(self):
        # Eight threads first write one series at once, each building its
        # key per call; the fold must merge them into the one series.
        registry = MetricsRegistry()
        _hammer(8, 1000, lambda: _commit_add(registry, metric_key("hits", op="x")))
        assert registry.counter("hits", op="x") == 8 * 1000

    def test_histogram_observations_all_land(self):
        hist = Histogram()
        _hammer(8, 1500, lambda: hist.observe(1.0))
        assert hist.count == 8 * 1500
        assert hist.sum == float(8 * 1500)  # 1.0-sums are exact

    def test_concurrent_snapshot_while_writing(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        counts, latency = metric_key("c", shard="w"), metric_key("h")

        def writer() -> None:
            acc = registry.accumulator()
            while not stop.is_set():
                with acc.lock:
                    acc.add(counts)
                    acc.observe(latency, 0.5)

        t = threading.Thread(target=writer)
        t.start()
        try:
            for _ in range(200):
                snap = registry.snapshot()  # must never raise mid-mutation
                assert "counters" in snap
        finally:
            stop.set()
            t.join()


class TestAccumulatorWrites:
    def test_writers_commit_while_a_reader_folds(self):
        # Eight writers commit two-part records to their own accumulators
        # while a reader folds through counter() and snapshot(): every
        # read sees whole records, and the totals end exact.
        registry = MetricsRegistry()
        hits, latency = metric_key("hits", op="x"), metric_key("latency")
        stop = threading.Event()
        reads = []

        def write() -> None:
            acc = registry.accumulator()
            with acc.lock:
                acc.add(hits)
                acc.observe(latency, 0.5)

        def read() -> None:
            while not stop.is_set():
                snap = registry.snapshot()
                count = snap["histograms"].get("latency", {}).get("count", 0)
                reads.append((snap["counters"].get("hits{op=x}", 0), count))
                registry.counter("hits", op="x")

        reader = threading.Thread(target=read)
        reader.start()
        try:
            _hammer(8, 2500, write)
        finally:
            stop.set()
            reader.join()
        assert reads and all(c == n for c, n in reads)
        assert [c for c, _ in reads] == sorted(c for c, _ in reads)
        assert registry.counter("hits", op="x") == 8 * 2500
        hist = registry.histogram("latency")
        assert (hist.count, hist.sum) == (8 * 2500, 0.5 * 8 * 2500)
        # The writers' threads have ended: the fold dropped their tables.
        assert registry._accumulators == []


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
                    _commit_add(current_scope().registry, metric_key("mine"))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for registry in registries:
            assert registry.counter("mine") == 500

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
        hist = Histogram()
        for v in [0.001, 0.002, 0.004, 0.1, 0.2]:
            hist.observe(v)
        # Bucketed quantiles upper-bound the true value but never exceed
        # the recorded maximum.
        assert hist.quantile(0.5) >= 0.004
        assert hist.quantile(1.0) <= hist.max
        assert hist.quantile(0.99) <= hist.max

    def test_quantile_empty_is_zero(self):
        hist = MetricsRegistry().histogram("empty")  # an unwritten series
        assert hist.quantile(0.5) == 0.0

    def test_summary_fields(self):
        hist = Histogram()
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
