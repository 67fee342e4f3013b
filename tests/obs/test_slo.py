"""SLO burn rates and the alert state machine, driven by a fake clock."""

import io

import pytest

from repro.obs.records import MAX_RECORDS, RecordLog
from repro.obs.slo import (
    ALERTS_SCHEMA,
    SLOConfig,
    SLObjective,
    SLOTracker,
    default_objectives,
    load_alert_log,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _tracker(clock, objectives=None, burn_threshold=2.0, min_events=1):
    """Fast window 2 s / slow window 12 s, all on the fake clock."""
    return SLOTracker(
        objectives
        if objectives is not None
        else (SLObjective(name="avail", kind="availability", target=0.9),),
        SLOConfig.scaled(
            2.0,
            12.0,
            clock=clock,
            burn_threshold=burn_threshold,
            min_events=min_events,
        ),
    )


class TestSLObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="weird", target=0.9)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="availability", target=1.0)
        with pytest.raises(ValueError):
            SLObjective(name="x", kind="latency", target=0.9)  # no threshold
        with pytest.raises(ValueError):
            SLObjective(
                name="x", kind="availability", target=0.9, threshold_s=1.0
            )

    def test_availability_classification(self):
        o = SLObjective(name="a", kind="availability", target=0.99)
        assert o.classify("ok", 10.0) is True
        assert o.classify("error", 0.0) is False
        assert o.classify("shed", 0.0) is False
        assert o.budget == pytest.approx(0.01)

    def test_latency_classification_excludes_failures(self):
        o = SLObjective(name="l", kind="latency", target=0.9, threshold_s=1.0)
        assert o.classify("ok", 0.5) is True
        assert o.classify("ok", 2.0) is False
        assert o.classify("error", 0.1) is None  # availability's problem


class TestSLOConfig:
    @pytest.mark.parametrize("burn_threshold", [float("nan"), float("inf"), 0.0])
    def test_burn_threshold_must_be_positive_and_finite(self, burn_threshold):
        # NaN compares false, so it silently disabled alerting.
        with pytest.raises(ValueError, match="burn_threshold"):
            SLOConfig.scaled(2.0, 12.0, clock=FakeClock(), burn_threshold=burn_threshold)

    @pytest.mark.parametrize("fast_s", [float("nan"), float("inf")])
    def test_window_spans_must_be_finite(self, fast_s):
        with pytest.raises(ValueError, match="width_s"):
            SLOConfig.scaled(fast_s, 12.0, clock=FakeClock())

    def test_nan_latency_threshold_refused(self):
        with pytest.raises(ValueError, match="threshold_s > 0"):
            SLObjective(name="l", kind="latency", target=0.9, threshold_s=float("nan"))

    def test_fast_must_be_shorter(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            SLOConfig.scaled(10.0, 10.0, clock=clock)

    def test_unique_objective_names(self):
        objs = (
            SLObjective(name="a", kind="availability", target=0.9),
            SLObjective(name="a", kind="availability", target=0.8),
        )
        with pytest.raises(ValueError):
            SLOTracker(objs)


class TestStateMachine:
    def test_firing_then_resolved_transition_sequence(self):
        clock = FakeClock()
        t = _tracker(clock)  # budget 0.1, threshold 2 => fire above 20% bad
        # Healthy baseline: no transitions.
        for _ in range(20):
            assert t.record("selection", "ok", 0.01) == []
        assert t.firing() == []

        # Error burst: 50% bad = burn 5.0 in both windows -> fires once.
        events = []
        for _ in range(20):
            events += t.record("selection", "error", 0.0)
        assert [e["transition"] for e in events] == ["firing"]
        assert events[0]["slo"] == "avail"
        assert events[0]["schema"] == ALERTS_SCHEMA
        assert events[0]["burn_fast"] > 2.0
        assert t.firing() == ["avail"]

        # Recovery: step the clock past the fast window so the burst
        # retires, then a poll (no new traffic needed) resolves it.
        clock.advance(3.0)
        resolved = t.evaluate()
        assert [e["transition"] for e in resolved] == ["resolved"]
        assert t.firing() == []

        # The log kept the full story, in order.
        log = [e["transition"] for e in t.alert_log.records()]
        assert log == ["firing", "resolved"]

    def test_slow_window_guards_against_blips(self):
        """A burst that fills the fast window but not the slow one does
        not fire: both windows must burn."""
        clock = FakeClock()
        t = _tracker(clock)
        # A long healthy history dominating the slow window.
        for _ in range(200):
            t.record("join", "ok", 0.01)
        # A short total-outage blip: fast burn is huge, slow burn tiny.
        for _ in range(4):
            t.record("join", "error", 0.0)
        assert t.firing() == []

    def test_min_events_suppresses_lone_failure(self):
        clock = FakeClock()
        t = _tracker(clock, min_events=5)
        t.record("selection", "error", 0.0)
        assert t.firing() == []  # one bad event in an idle service: no page

    def test_latency_objective_fires_on_slow_ok_requests(self):
        clock = FakeClock()
        t = _tracker(
            clock,
            objectives=(
                SLObjective(
                    name="lat", kind="latency", target=0.9, threshold_s=0.1
                ),
            ),
        )
        events = []
        for _ in range(10):
            events += t.record("selection", "ok", 5.0)  # ok but slow
        assert [e["transition"] for e in events] == ["firing"]

    def test_per_op_scoping(self):
        clock = FakeClock()
        t = _tracker(
            clock,
            objectives=(
                SLObjective(
                    name="join-avail",
                    kind="availability",
                    target=0.9,
                    op="join",
                ),
            ),
        )
        for _ in range(10):
            t.record("selection", "error", 0.0)  # out of scope
        assert t.firing() == []
        for _ in range(10):
            t.record("join", "error", 0.0)
        assert t.firing() == ["join-avail"]

    def test_burn_rates_view(self):
        clock = FakeClock()
        t = _tracker(clock)
        t.record("selection", "ok", 0.01)
        t.record("selection", "error", 0.0)
        rates = t.burn_rates()
        assert set(rates) == {"avail"}
        entry = rates["avail"]
        # 50% bad over a 10% budget = burn 5.
        assert entry["burn_fast"] == pytest.approx(5.0)
        assert entry["burn_slow"] == pytest.approx(5.0)
        assert entry["fast_events"] == 2
        assert entry["state"] in ("ok", "firing")


class TestAlertLog:
    def test_bounded_with_eviction_accounting(self):
        """The tracker's transitions live in the bounded record log whose
        counts the health envelope reports as ``alert_log``."""
        t = _tracker(FakeClock())
        for i in range(MAX_RECORDS + 3):
            t.alert_log.append({"schema": ALERTS_SCHEMA, "i": i})
        assert len(t.alert_log) == MAX_RECORDS
        assert t.alert_log.added == MAX_RECORDS + 3
        assert t.alert_log.evicted == 3
        assert t.alert_log.records()[0]["i"] == 3

    def test_export_and_load_round_trip(self, tmp_path):
        clock = FakeClock()
        t = _tracker(clock)
        for _ in range(10):
            t.record("selection", "error", 0.0)
        clock.advance(3.0)
        t.evaluate()
        path = str(tmp_path / "alerts.jsonl")
        count = t.alert_log.export(path)
        assert count == 2
        events = load_alert_log(path)
        assert [e["transition"] for e in events] == ["firing", "resolved"]
        assert all(e["schema"] == ALERTS_SCHEMA for e in events)
        # Timestamps come from the injected clock, not wall time.
        assert events[0]["at_s"] == 0.0
        assert events[1]["at_s"] == 3.0

    def test_export_to_stream(self):
        log = RecordLog()
        log.append({"schema": ALERTS_SCHEMA, "transition": "firing"})
        buf = io.StringIO()
        assert log.export(buf) == 1
        assert '"transition": "firing"' in buf.getvalue()

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema": "other"}\n')
        with pytest.raises(ValueError):
            load_alert_log(str(path))


class TestDefaults:
    def test_default_objectives_shape(self):
        objs = default_objectives()
        assert [o.name for o in objs] == ["availability", "latency"]
        assert objs[1].threshold_s == 2.5
