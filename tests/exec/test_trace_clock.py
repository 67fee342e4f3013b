"""Clock-consistency tests for the tracer.

``Tracer.record`` used to mix a fresh ``time.time()`` read with a
monotonic ``duration_s``: a wall-clock step (NTP, DST) between sibling
spans skewed their start+duration interval math.  Every timestamp now
derives from one wall+monotonic anchor pair captured at tracer
construction.
"""

import time

from repro.obs import Tracer, current_scope, use_tracer


class TestClockConsistency:
    def test_record_backdates_by_duration(self):
        tracer = Tracer()
        before = tracer._now_unix_s()
        span = tracer.record("external", duration_s=10.0)
        after = tracer._now_unix_s()
        # start = now - duration, with "now" between the bracketing reads.
        assert before - 10.0 <= span.start_unix_s <= after - 10.0

    def test_anchor_tracks_wall_clock_at_construction(self):
        tracer = Tracer()
        assert abs(tracer._now_unix_s() - time.time()) < 5.0

    def test_wall_clock_step_does_not_skew_spans(self, monkeypatch):
        tracer = Tracer()
        span_before = tracer.record("a", duration_s=0.0)
        # Simulate an NTP step: time.time() jumps an hour backwards.
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() - 3600.0)
        span_after = tracer.record("b", duration_s=0.0)
        # Derived timestamps come from the monotonic clock, so span order
        # survives the step.
        assert span_after.start_unix_s >= span_before.start_unix_s

    def test_span_and_record_share_one_timeline(self):
        tracer = Tracer()
        with tracer.span("stage"):
            time.sleep(0.01)
            tracer.record("stage.batch", duration_s=0.005)
        stage = tracer.find("stage")[0]
        batch = tracer.find("stage.batch")[0]
        assert batch.parent_id == stage.span_id
        # The batch interval nests inside the stage interval (small
        # tolerance for bookkeeping between the clock reads).
        assert batch.start_unix_s >= stage.start_unix_s - 1e-3
        assert (
            batch.start_unix_s + batch.duration_s
            <= stage.start_unix_s + stage.duration_s + 1e-3
        )


class TestScopedTracer:
    def test_nested_scopes_restore(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert current_scope().tracer is inner
            assert current_scope().tracer is outer
        assert current_scope().tracer is None

    def test_scoped_none_suppresses_installed(self):
        base = Tracer()
        with use_tracer(base):
            with use_tracer(None):
                assert current_scope().tracer is None
            assert current_scope().tracer is base
