"""Tests for the per-request trace id a served request's spans share."""

from repro.obs import new_trace_id


class TestTraceId:
    def test_format(self):
        tid = new_trace_id()
        assert len(tid) == 16
        int(tid, 16)  # hex

    def test_unique(self):
        assert len({new_trace_id() for _ in range(1000)}) == 1000
