"""A memo table shared across threads: exact values and tallies under
eviction, and single flight (a key is computed once, a failed computation
is taken over by a waiter), by hand and through ``MemoCache.memoize``."""

import random
import sys
import threading

import pytest

from repro.cache import MISSING, PENDING, CacheBundle, CacheConfig, MemoCache
from repro.obs import MetricsRegistry, use_registry


def _value(key):
    return ("value", key, key * key)


@pytest.fixture(autouse=True)
def _fine_switching():
    """Switch threads every microsecond, so their table calls interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _run_threads(targets, timeout=30.0):
    threads = [threading.Thread(target=t) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"


class TestSharedUnderEviction:
    def test_hammered_small_table_returns_only_stored_values(self):
        table = MemoCache("verdict", capacity=8)
        handles = [table.share() for _ in range(6)]
        lookups = [0] * len(handles)
        wrong = []
        registry = MetricsRegistry()

        def hammer(n):
            handle, rng = handles[n], random.Random(n)
            with use_registry(registry):
                for _ in range(2_000):
                    key = rng.randrange(40)
                    value = handle.claim("intersect", [key])[0]
                    lookups[n] += 1
                    if value is PENDING:
                        (value,) = handle.wait("intersect", [key])
                    if value is MISSING:
                        handle.store("intersect", key, _value(key))
                    elif value != _value(key):
                        wrong.append((key, value))

        _run_threads([lambda n=n: hammer(n) for n in range(len(handles))])
        assert wrong == []
        assert len(table) <= table.capacity
        # Every lookup is one hit or one miss: a PENDING answer is tallied
        # once, when its wait resolves it.
        assert sum(h.hits + h.misses for h in handles) == sum(lookups)
        shared = table.table
        assert shared.hits + shared.misses == sum(lookups)
        assert shared.evictions == sum(h.evictions for h in handles) > 0
        assert shared.claims == {}
        counters = registry.snapshot()["counters"]
        assert counters["cache_hits{cache=verdict,op=intersect}"] == shared.hits
        assert counters["cache_misses{cache=verdict,op=intersect}"] == shared.misses
        assert counters["cache_evictions{cache=verdict,op=intersect}"] == shared.evictions

    def test_handles_tally_their_own_lookups(self):
        bundle = CacheBundle(CacheConfig())
        first, second = bundle.share(), bundle.share()
        assert first.predicate.claim("sweep", ["k"])[0] is MISSING
        first.predicate.store("sweep", "k", True)
        assert second.predicate.claim("sweep", ["k"])[0] is True
        assert (first.stats()["predicate"].misses, first.stats()["predicate"].hits) == (1, 0)
        assert (second.stats()["predicate"].misses, second.stats()["predicate"].hits) == (0, 1)
        assert bundle.stats()["predicate"].total == 0
        assert len(bundle.predicate) == 1


class TestSingleFlight:
    def test_claimed_key_is_pending_for_others_and_missing_for_its_owner(self):
        owner = MemoCache("verdict", capacity=8)
        other = owner.share()
        assert owner.claim("intersect", ["k", "k"]) == [MISSING, MISSING]
        assert other.claim("intersect", ["k"]) == [PENDING]
        assert (other.hits, other.misses) == (0, 0)
        owner.store("intersect", "k", "maybe")
        assert other.wait("intersect", ["k"]) == ["maybe"]
        assert (other.hits, other.misses) == (1, 0)

    def test_each_key_is_computed_once_across_threads(self):
        table = MemoCache("predicate", capacity=1_000)
        computed = []
        lock = threading.Lock()
        start = threading.Barrier(4)

        def worker(handle):
            start.wait()
            keys = list(range(50))
            waiting = []
            for key in keys:
                value = handle.claim("sweep", [key])[0]
                if value is PENDING:
                    waiting.append(key)
                elif value is MISSING:
                    with lock:
                        computed.append(key)
                    handle.store("sweep", key, _value(key))
            for key, value in zip(waiting, handle.wait("sweep", waiting)):
                assert value == _value(key)

        handles = [table.share() for _ in range(4)]
        _run_threads([lambda h=h: worker(h) for h in handles])
        assert sorted(computed) == list(range(50))
        assert sum(h.misses for h in handles) == 50
        assert sum(h.hits for h in handles) == 150

    def test_released_key_is_taken_over_by_the_waiter(self):
        owner = MemoCache("verdict", capacity=8)
        waiter = owner.share()
        assert owner.claim("intersect", ["k"])[0] is MISSING
        assert waiter.claim("intersect", ["k"])[0] is PENDING
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(waiter.wait("intersect", ["k"]))
        )
        thread.start()
        thread.join(0.2)
        assert thread.is_alive(), "the waiter must wait while the key is held"
        owner.release("intersect", ["k"])  # the owner's computation failed
        thread.join(10.0)
        assert answers == [[MISSING]]  # the waiter now holds the key
        assert owner.table.claims == {("intersect", "k"): waiter}
        waiter.store("intersect", "k", "disjoint")
        assert owner.claim("intersect", ["k"])[0] == "disjoint"
        assert (waiter.hits, waiter.misses) == (0, 1)

    def test_occupancy_gauge_reads_the_table(self):
        table = MemoCache("predicate", capacity=2)
        for key in "abc":
            table.claim("sweep", [key])[0]
            table.store("sweep", key, 1)
        assert table.occupancy_gauge() == (
            ("cache_occupancy", (("cache", "predicate"),)),
            2,
        )


def _values(keys):
    """A ``memoize`` compute: each position's value, in order."""
    return lambda positions: (_value(keys[i]) for i in positions)


class TestMemoize:
    def test_repeats_are_hits_unless_claimed_beside_their_first(self):
        keys = [1, 1, 2, 1]
        looked_up, claimed = MemoCache("predicate", 8), MemoCache("verdict", 8)
        computed = []

        def compute(positions):
            computed.extend(keys[i] for i in positions)
            return _values(keys)(positions)

        assert looked_up.memoize("sweep", keys, compute) == [_value(k) for k in keys]
        assert claimed.memoize("intersect", keys, compute, claim_repeats=True) == [
            _value(k) for k in keys
        ]
        assert computed == [1, 2, 1, 2]  # each key once per table
        assert (looked_up.hits, looked_up.misses) == (2, 2)
        assert (claimed.hits, claimed.misses) == (0, 4)
        assert looked_up.table.claims == claimed.table.claims == {}

    def test_failed_compute_stores_what_it_made_and_releases_the_rest(self):
        owner = MemoCache("predicate", capacity=8)
        keys = [1, 2, 3]

        def compute(positions):
            yield _value(keys[positions[0]])
            raise RuntimeError("simulated fault")

        with pytest.raises(RuntimeError, match="simulated fault"):
            owner.memoize("sweep", keys, compute)
        assert owner.table.claims == {}
        later = owner.share()
        assert later.memoize("sweep", keys, _values(keys)) == [_value(k) for k in keys]
        assert (later.hits, later.misses) == (1, 2)

    def test_waiter_computes_the_keys_a_failed_claimer_released(self, monkeypatch):
        owner = MemoCache("predicate", capacity=8)
        waiter = owner.share()
        keys = [1, 2]
        started, waiting = threading.Event(), threading.Event()
        original = MemoCache.wait

        def failing(positions):
            started.set()
            assert waiting.wait(10.0), "the other handle never waited"
            raise RuntimeError("simulated fault")

        def watched_wait(self, op, slots):
            waiting.set()
            return original(self, op, slots)

        monkeypatch.setattr(MemoCache, "wait", watched_wait)
        answers, errors = [], []

        def claimer():
            try:
                owner.memoize("sweep", keys, failing)
            except RuntimeError as exc:
                errors.append(exc)

        def second():
            assert started.wait(10.0)
            answers.append(waiter.memoize("sweep", keys, _values(keys)))

        _run_threads([claimer, second])
        assert len(errors) == 1
        assert answers == [[_value(k) for k in keys]]
        assert (waiter.hits, waiter.misses) == (0, 2)
        assert owner.table.claims == {}

    def test_hammered_small_table_memoizes_only_stored_values(self):
        table = MemoCache("predicate", capacity=8)
        handles = [table.share() for _ in range(6)]
        wrong, positions = [], [0] * len(handles)

        def hammer(n):
            handle, rng = handles[n], random.Random(n)
            for _ in range(400):
                keys = [rng.randrange(40) for _ in range(rng.randrange(1, 7))]
                positions[n] += len(keys)
                for key, value in zip(keys, handle.memoize("sweep", keys, _values(keys))):
                    if value != _value(key):
                        wrong.append((key, value))

        _run_threads([lambda n=n: hammer(n) for n in range(len(handles))])
        assert wrong == []
        assert table.table.claims == {}
        assert table.table.evictions > 0
        # A repeat whose key another handle took after an eviction is not
        # tallied; every other position is one hit or one miss.
        assert 0 < sum(h.hits + h.misses for h in handles) <= sum(positions)
