"""The health layer: windowed families, SLO verdicts, the ``top`` poll.

The acceptance scenario lives in :class:`TestAcceptanceScenario`: a
clock-controlled error/latency burst drives the SLO state machine through
firing -> resolved, the health verdict through ready -> degraded -> ready,
and shows the windowed p99 recovering while the cumulative histogram stays
inflated.
"""

import asyncio
import json
import sys
import threading

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry, metric_key
from repro.obs.slo import load_alert_log
from repro.serve import (
    AdmissionConfig,
    HEALTH_SCHEMA,
    HealthConfig,
    QueryRequest,
    QueryService,
    ServeFrontend,
    ServiceHealth,
    build_health,
)
from repro.serve.__main__ import main as serve_main
from tests.obs.test_slo import PausedWriter


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _monitor(clock):
    """A tightly-scaled monitor: 2 s telemetry window, 2 s / 12 s SLO."""
    config = HealthConfig(
        window_width_s=1.0,
        window_buckets=2,
        slo_fast_s=2.0,
        slo_slow_s=12.0,
        clock=clock,
    )
    return ServiceHealth(config)


class _Harness:
    """Mimics QueryService._finish accounting: cumulative + windowed."""

    def __init__(self, clock):
        self.registry = MetricsRegistry()
        self.monitor = _monitor(clock)

    def record(self, status, total_s, op="selection", worker=0):
        acc = self.registry.accumulator()
        acc.add(metric_key("serve_requests", op=op, status=status))
        if status == "ok":
            acc.observe(metric_key("serve_request_duration_s", op=op), total_s)
        self.monitor.record(op, status, total_s, worker=worker)

    def health(self, queue_depth=0, inflight=0, max_queue=64):
        return build_health(
            self.monitor,
            queue_depth=queue_depth,
            inflight=inflight,
            max_queue=max_queue,
            workers=[{"worker": 0, "requests_served": 0}],
        )


class TestHealthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(window_width_s=0)
        with pytest.raises(ValueError):
            HealthConfig(window_buckets=0)
        with pytest.raises(ValueError):
            HealthConfig(objectives=())

    @pytest.mark.parametrize(
        "field", ["window_width_s", "slo_fast_s", "slo_slow_s", "burn_threshold"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            HealthConfig(**{field: value})


class TestBuildHealth:
    def test_without_monitor_still_answers(self):
        doc = build_health(
            None, queue_depth=1, inflight=2, max_queue=64, workers=[]
        )
        assert doc["schema"] == HEALTH_SCHEMA
        assert doc["ready"] is True
        assert doc["verdict"] == "ready"
        assert doc["windowed"] is False
        assert "window" not in doc and "slo" not in doc

    def test_closed_service_is_degraded(self):
        doc = build_health(
            None, queue_depth=0, inflight=0, max_queue=64, workers=[], closed=True
        )
        assert doc["verdict"] == "degraded"
        assert any("closed" in r for r in doc["degraded_reasons"])

    def test_full_queue_is_degraded(self):
        doc = build_health(
            None, queue_depth=64, inflight=3, max_queue=64, workers=[]
        )
        assert doc["verdict"] == "degraded"
        assert any("queue full" in r for r in doc["degraded_reasons"])


class TestAcceptanceScenario:
    def test_burst_fires_resolves_and_windows_recover(self, tmp_path):
        clock = FakeClock()
        h = _Harness(clock)

        # -- phase 1: healthy baseline -------------------------------------
        for _ in range(20):
            h.record("ok", 0.01)
        doc = h.health()
        assert doc["verdict"] == "ready"
        assert doc["firing_alerts"] == []

        # -- phase 2: error + latency burst --------------------------------
        for _ in range(10):
            h.record("error", 0.0)  # availability bleeds
        for _ in range(10):
            h.record("ok", 5.0)  # ok but far over the 2.5 s bound
        doc = h.health()
        assert doc["verdict"] == "degraded"
        assert sorted(doc["firing_alerts"]) == ["availability", "latency"]
        assert any("SLO burn-rate" in r for r in doc["degraded_reasons"])
        win = doc["window"]["histograms"][
            "serve_window_request_duration_s{op=selection}"
        ]
        assert win["p99"] >= 5.0  # the windowed view shows the burst

        # -- phase 3: bleeding stops, clock leaves the fast window ---------
        clock.advance(3.0)
        for _ in range(20):
            h.record("ok", 0.01)
        doc = h.health()
        # The poll itself resolved the alerts (fast window drained).
        assert doc["verdict"] == "ready"
        assert doc["firing_alerts"] == []
        win = doc["window"]["histograms"][
            "serve_window_request_duration_s{op=selection}"
        ]
        assert win["p99"] < 1.0  # windowed p99 recovered...
        cumulative = h.registry.histogram(
            "serve_request_duration_s", op="selection"
        )
        assert cumulative.quantile(0.99) >= 4.0  # ...the lifetime one did not

        # -- the alert log kept the whole story, exportable ----------------
        transitions = [
            (e["slo"], e["transition"])
            for e in h.monitor.slo.alert_log.records()
        ]
        assert sorted(t for t in transitions if t[1] == "firing") == [
            ("availability", "firing"),
            ("latency", "firing"),
        ]
        assert sorted(t for t in transitions if t[1] == "resolved") == [
            ("availability", "resolved"),
            ("latency", "resolved"),
        ]
        path = str(tmp_path / "alerts.jsonl")
        assert h.monitor.slo.alert_log.export(path) == 4
        assert len(load_alert_log(path)) == 4

    def test_alert_resolves_on_poll_without_new_traffic(self):
        clock = FakeClock()
        h = _Harness(clock)
        for _ in range(10):
            h.record("error", 0.0)
        assert h.health()["firing_alerts"] == ["availability"]
        clock.advance(3.0)  # nothing arrives; the window just drains
        assert h.health()["firing_alerts"] == []

    def test_heartbeats_ride_the_worker_roster(self):
        clock = FakeClock()
        h = _Harness(clock)
        h.record("ok", 0.01, worker=0)
        clock.advance(1.5)
        doc = h.health()
        (entry,) = doc["workers"]
        assert entry["worker"] == 0
        assert entry["last_seen_s_ago"] == pytest.approx(1.5)


class TestWholeRecords:
    """A health read sees whole request records."""

    def test_a_read_while_the_writer_is_paused_mid_record(self, monkeypatch):
        # The writer pauses at each clock read and each histogram write it
        # makes while recording an ok request.  Under the frozen clock every
        # record stays in every window, so a whole record keeps each op's
        # windowed ok total equal to its duration count and each objective's
        # fast events equal to its slow events.
        paused = PausedWriter()

        def clock():
            paused.hook()
            return 5.0

        histogram_add = Histogram._add

        def add(hist, value):
            paused.hook()
            histogram_add(hist, value)

        monkeypatch.setattr(Histogram, "_add", add)

        def build():
            monitor = _monitor(clock)
            monitor.record("selection", "ok", 0.01, worker=0)
            return monitor

        def health(monitor):
            return build_health(monitor, queue_depth=0, inflight=0, max_queue=64, workers=[])

        for point, doc in paused.reads(
            build, lambda m: m.record("selection", "ok", 3.0, worker=0), health
        ):
            window = doc["window"]
            ok = window["counters"]["serve_window_requests{op=selection,status=ok}"]["total"]
            durations = window["histograms"]["serve_window_request_duration_s{op=selection}"]
            assert ok == durations["count"], (point, window)
            for name, entry in doc["slo"].items():
                assert entry["fast_events"] == entry["slow_events"], (point, name, entry)

    def test_concurrent_records_all_land(self):
        # Eight writers record at once with a short switch interval: under
        # the frozen clock nothing retires, so every count ends exact.
        monitor = _monitor(FakeClock(5.0))
        barrier = threading.Barrier(8)

        def write():
            barrier.wait()
            for _ in range(300):
                monitor.record("selection", "ok", 0.01, worker=0)
                monitor.record("join", "error", 0.0, worker=1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=write) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        doc = build_health(monitor, queue_depth=0, inflight=0, max_queue=64, workers=[])
        counters = doc["window"]["counters"]
        assert counters["serve_window_requests{op=selection,status=ok}"]["total"] == 2400
        assert counters["serve_window_requests{op=join,status=error}"]["total"] == 2400
        assert doc["window"]["histograms"]["serve_window_request_duration_s{op=selection}"]["count"] == 2400
        events = {name: entry["fast_events"] for name, entry in doc["slo"].items()}
        assert events == {"availability": 4800, "latency": 2400}
        assert all(entry["slow_events"] == entry["fast_events"] for entry in doc["slo"].values())


class TestServiceIntegration:
    """Through a real QueryService executing real queries."""

    @pytest.fixture(scope="class")
    def windowed_service(self):
        # A clock that never moves keeps every request in the window.
        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(max_queue=100),
            health=HealthConfig(clock=FakeClock()),
        )
        yield svc
        svc.close()

    def test_health_reflects_served_requests(self, windowed_service):
        svc = windowed_service
        for i in range(3):
            assert svc.submit(QueryRequest(op="selection", query_index=i)).status == "ok"
        doc = svc.health()
        assert doc["windowed"] is True
        assert doc["verdict"] == "ready"
        counters = doc["window"]["counters"]
        assert (
            counters["serve_window_requests{op=selection,status=ok}"]["total"]
            >= 3
        )
        hists = doc["window"]["histograms"]
        assert hists["serve_window_request_duration_s{op=selection}"]["count"] >= 3
        (entry,) = doc["workers"]
        assert entry["requests_served"] >= 3
        assert "last_seen_s_ago" in entry

    def test_windowed_observations_mirror_counter(self, windowed_service):
        # Under the frozen clock the windowed outcome counters' totals
        # cover the service's whole life, so they must equal what the
        # cumulative registry counted: the windowed layer saw every request.
        svc = windowed_service
        svc.submit(QueryRequest(op="selection", query_index=0))
        svc.submit(QueryRequest(op="selection", query_index=99_999))  # error
        served = {
            k.split("{", 1)[1]: v
            for k, v in svc.metrics_snapshot()["counters"].items()
            if k.startswith("serve_requests{")
        }
        windowed = {
            k.split("{", 1)[1]: v["total"]
            for k, v in svc.health()["window"]["counters"].items()
            if k.startswith("serve_window_requests{")
        }
        assert {"op=selection,status=ok}", "op=selection,status=error}"} <= set(served)
        assert windowed == served

    def test_describe_reports_windowed(self, windowed_service, service):
        assert windowed_service.describe()["windowed"] is True
        assert service.describe()["windowed"] is False

    def test_export_alerts_requires_monitor(self, service, tmp_path):
        with pytest.raises(RuntimeError):
            service.export_alerts(str(tmp_path / "alerts.jsonl"))


class TestOffByDefault:
    def test_default_service_has_no_windowed_families(self, service):
        """Windowing off must leave the CI-gated registry untouched."""
        service.submit(QueryRequest(op="selection", query_index=0))
        snap = service.metrics_snapshot()
        windowed = [
            k
            for section in ("counters", "gauges", "histograms")
            for k in snap.get(section, {})
            if "window" in k
        ]
        assert windowed == []
        doc = service.health()
        assert doc["windowed"] is False
        assert doc["verdict"] == "ready"

    def test_health_on_adds_no_key_to_the_gated_registry(self):
        """The converse: windowing on leaves the registry's keys as off."""

        def keys(health):
            svc = QueryService(
                workers=1, admission=AdmissionConfig(max_queue=100), health=health
            )
            try:
                svc.submit(QueryRequest(op="selection", query_index=0))
                svc.submit(QueryRequest(op="selection", query_index=99_999))
                snap = svc.metrics_snapshot()
            finally:
                svc.close()
            return {
                section: set(snap[section])
                for section in ("counters", "gauges", "histograms")
            }

        assert keys(HealthConfig(clock=FakeClock())) == keys(None)


class TestTopDashboard:
    def _with_frontend(self, service, client_fn):
        results = {}

        async def main():
            frontend = ServeFrontend(service)
            host, port = await frontend.start()
            thread = threading.Thread(
                target=lambda: results.update(client_fn(host, port))
            )
            thread.start()
            await asyncio.wait_for(frontend.serve_until_shutdown(), timeout=60)
            await frontend.stop()
            thread.join()

        asyncio.run(main())
        return results

    def test_top_once_over_the_wire(self, capsys):
        from repro.serve.server import send_envelope

        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(max_queue=100),
            health=HealthConfig(),
        )
        try:
            svc.submit(QueryRequest(op="selection", query_index=0))

            def client(host, port):
                out = {"rc": serve_main(["top", "--port", str(port)])}
                out["health"] = send_envelope(host, port, {"kind": "health"})["health"]
                out["metrics"] = send_envelope(host, port, {"kind": "metrics"})["snapshot"]
                send_envelope(host, port, {"kind": "shutdown"})
                return out

            res = self._with_frontend(svc, client)
        finally:
            svc.close()
        assert res["rc"] == 0  # ready
        out = capsys.readouterr().out
        # stdout is one JSON document: the two envelopes' bodies.
        doc = json.loads(out)
        assert sorted(doc) == ["health", "metrics"]
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert doc["health"]["windowed"] is True
        assert doc["metrics"] == res["metrics"]
        assert doc["metrics"]["counters"]["serve_requests{op=selection,status=ok}"] == 1
        # Nothing moved between the polls but the heartbeat's age.
        for entry in doc["health"]["workers"] + res["health"]["workers"]:
            entry.pop("last_seen_s_ago", None)
        assert doc["health"] == res["health"]

    def test_top_connection_refused_is_exit_2(self, capsys):
        assert serve_main(["top", "--port", "1", "--timeout", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
