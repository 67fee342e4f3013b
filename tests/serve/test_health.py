"""The health layer: windowed families, SLO verdicts, the dashboard.

The acceptance scenario lives in :class:`TestAcceptanceScenario`: a
clock-controlled error/latency burst drives the SLO state machine through
firing -> resolved, the health verdict through ready -> degraded -> ready,
and shows the windowed p99 recovering while the cumulative histogram stays
inflated - with ``top`` rendering both all along.
"""

import asyncio
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
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
from repro.serve.top import fetch_snapshot, render, run_top


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _monitor(clock, registry=None):
    """A tightly-scaled monitor: 2 s telemetry window, 2 s / 12 s SLO."""
    config = HealthConfig(
        window_width_s=1.0,
        window_buckets=2,
        slo_fast_s=2.0,
        slo_slow_s=12.0,
        clock=clock,
    )
    return ServiceHealth(config, registry=registry)


class _Harness:
    """Mimics QueryService._finish accounting: cumulative + windowed."""

    def __init__(self, clock):
        self.registry = MetricsRegistry()
        self.monitor = _monitor(clock, registry=self.registry)

    def record(self, status, total_s, op="selection", worker=0):
        self.registry.counter("serve_requests", op=op, status=status).inc()
        if status == "ok":
            self.registry.histogram(
                "serve_request_duration_s", op=op
            ).observe(total_s)
        self.monitor.record(op, status, total_s, worker=worker)

    def health(self, queue_depth=0, inflight=0, max_queue=64):
        return build_health(
            self.monitor,
            queue_depth=queue_depth,
            inflight=inflight,
            max_queue=max_queue,
            workers=[{"worker": 0, "requests_served": 0}],
        )

    def doc(self):
        return {"health": self.health(), "metrics": self.registry.snapshot()}


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
        frame = render(h.doc())
        assert "[READY]" in frame

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
        frame = render(h.doc())
        assert "[DEGRADED]" in frame
        assert "availability" in frame and "latency" in frame

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
        frame = render(h.doc())
        assert "[READY]" in frame

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


class TestServiceIntegration:
    """Through a real QueryService executing real queries."""

    @pytest.fixture(scope="class")
    def windowed_service(self):
        svc = QueryService(
            workers=1,
            admission=AdmissionConfig(max_queue=100),
            health=HealthConfig(),
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
        # The deterministic cumulative mirror proves the windowed layer
        # saw every request the cumulative layer counted.
        snap = windowed_service.metrics_snapshot()
        served = {
            k.split("{", 1)[1]: v
            for k, v in snap["counters"].items()
            if k.startswith("serve_requests{")
        }
        mirrored = {
            k.split("{", 1)[1]: v
            for k, v in snap["counters"].items()
            if k.startswith("serve_windowed_observations{")
        }
        assert mirrored == served

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
                out = {}
                out["doc"] = fetch_snapshot(host, port)
                out["rc"] = run_top(host, port, once=True)
                out["rc_json"] = run_top(host, port, once=True, as_json=True)
                send_envelope(host, port, {"kind": "shutdown"})
                return out

            res = self._with_frontend(svc, client)
        finally:
            svc.close()
        assert res["doc"]["health"]["windowed"] is True
        assert "serve_requests" in str(res["doc"]["metrics"]["counters"])
        assert res["rc"] == 0  # ready
        assert res["rc_json"] == 0
        out = capsys.readouterr().out
        assert "[READY]" in out  # the rendered frame
        assert '"health"' in out  # the --json document
        assert "selection" in out

    def test_top_connection_refused_is_exit_2(self):
        assert run_top("127.0.0.1", 1, once=True, timeout=0.5) == 2

    def test_render_degraded_frame_shows_reasons(self):
        clock = FakeClock()
        h = _Harness(clock)
        for _ in range(10):
            h.record("error", 0.0)
        frame = render(h.doc())
        assert "[DEGRADED]" in frame
        assert "!!" in frame
        assert "burn_fast" in frame

    def test_render_of_a_fixed_snapshot_is_pinned(self):
        # The cumulative columns are Histogram.quantile over the snapshot
        # entries: zero bucket, six log buckets, clamping to max (40 ms), and
        # an op with requests but no latency histogram.
        doc = {
            "health": {
                "verdict": "degraded",
                "degraded_reasons": ["SLO burn-rate alert firing: availability"],
                "queue_depth": 3,
                "max_queue": 64,
                "inflight": 2,
                "windowed": True,
                "window": {
                    "window_s": 2.0,
                    "counters": {
                        "serve_window_requests{op=selection,status=ok}": {"rate": 20.5},
                        "serve_window_requests{op=selection,status=shed}": {"rate": 0.5},
                        "serve_window_requests{op=join,status=ok}": {"rate": 1.5},
                    },
                    "histograms": {
                        "serve_window_request_duration_s{op=selection}": {
                            "p50": 0.03125, "p95": 0.04, "p99": 0.04
                        },
                        "serve_window_request_duration_s{op=join}": {
                            "p50": 2.0, "p95": 2.0, "p99": 2.0
                        },
                    },
                },
                "slo": {
                    "availability": {
                        "state": "firing", "burn_fast": 4.35, "burn_slow": 4.35, "budget": 0.01
                    }
                },
                "firing_alerts": ["availability"],
                "alert_log": {"events": 1},
                "workers": [{"worker": 0, "requests_served": 45, "last_seen_s_ago": 0.25}],
            },
            "metrics": {
                "counters": {
                    "serve_requests{op=selection,status=ok}": 41,
                    "serve_requests{op=selection,status=shed}": 1,
                    "serve_requests{op=join,status=ok}": 3,
                    "serve_requests{op=within_distance,status=error}": 1,
                },
                "histograms": {
                    # One zero, then 40 observations spread over six buckets.
                    "serve_request_duration_s{op=selection}": {
                        "count": 41, "zeros": 1, "min": 0.0, "max": 0.04,
                        "buckets": {"-9": 1, "-8": 2, "-7": 4, "-6": 8, "-5": 16, "-4": 9},
                        "sum": 0.82, "sum_parts": [0.82],
                    },
                    "serve_request_duration_s{op=join}": {
                        "count": 3, "zeros": 0, "min": 2.0, "max": 2.0,
                        "buckets": {"2": 3}, "sum": 6.0, "sum_parts": [6.0],
                    },
                },
            },
        }
        assert render(doc).split("\n") == [
            "repro.serve  [DEGRADED]",
            "  !! SLO burn-rate alert firing: availability",
            "queue 3/64   inflight 2   windowed on",
            "",
            "op                rate/s    w_p50    w_p95    w_p99 |   total    c_p50    c_p95    c_p99  (2s window, latencies ms)",
            "join                1.50   2000.0   2000.0   2000.0 |       3   2000.0   2000.0   2000.0",
            "selection          21.00     31.2     40.0     40.0 |      42     31.2     40.0     40.0",
            "within_distance     0.00      0.0      0.0      0.0 |       1      0.0      0.0      0.0",
            "",
            "SLO              state    burn_fast burn_slow  budget",
            "availability     firing        4.35      4.35   0.010",
            "alerts firing: availability   (log: 1 event(s))",
            "",
            "worker     served  last seen",
            "0              45     0.2s ago",
        ]
