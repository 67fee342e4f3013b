"""Tests for the per-request context (trace id, attributes, deadline)."""

import threading
import time

import pytest

from repro.obs import RequestContext, current_scope, new_trace_id, use_scope


class TestTraceId:
    def test_format(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)  # hex

    def test_unique(self):
        assert len({new_trace_id() for _ in range(1000)}) == 1000


def _context(**fields):
    return RequestContext(trace_id=new_trace_id(), **fields)


class TestRequestContext:
    def test_frozen(self):
        ctx = _context()
        with pytest.raises(AttributeError):
            ctx.trace_id = "other"

    def test_no_deadline(self):
        ctx = _context()
        assert ctx.remaining_s() is None
        assert not ctx.expired()

    def test_deadline_in_future(self):
        ctx = _context(deadline_unix_s=time.time() + 60)
        remaining = ctx.remaining_s()
        assert remaining is not None and 0 < remaining <= 60
        assert not ctx.expired()

    def test_deadline_in_past(self):
        ctx = _context(deadline_unix_s=time.time() - 1)
        assert ctx.expired()


class TestScoping:
    def test_default_is_none(self):
        assert current_scope().request is None

    def test_use_context_restores(self):
        ctx = _context()
        with use_scope(request=ctx):
            assert current_scope().request is ctx
        assert current_scope().request is None

    def test_nested_scopes_unwind(self):
        outer, inner = _context(), _context()
        with use_scope(request=outer):
            with use_scope(request=inner):
                assert current_scope().request is inner
            assert current_scope().request is outer

    def test_explicit_none_clears(self):
        with use_scope(request=_context()):
            with use_scope(request=None):
                assert current_scope().request is None

    def test_threads_are_isolated(self):
        seen = {}
        barrier = threading.Barrier(2)

        def worker(name):
            ctx = _context(attributes={"name": name})
            with use_scope(request=ctx):
                barrier.wait()  # both threads inside their scopes at once
                seen[name] = current_scope().request.trace_id

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen["t0"] != seen["t1"]
