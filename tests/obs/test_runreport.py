"""Tests for the RunReport artifact: entries, assembly, round-trip."""

import pytest

from repro.bench.result import ExperimentResult
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.runreport import (
    RUN_REPORT_SCHEMA,
    build_run_report,
    environment_fingerprint,
    experiment_entry,
    load_run_report,
    write_run_report,
)


def make_result(exp_id="fig12"):
    return ExperimentResult(
        experiment_id=exp_id,
        title="Join cost vs resolution",
        params={"scale": "tiny", "resolutions": (32, 64)},
        columns=("resolution", "total_s"),
        rows=[(32, 0.5), (64, 0.7)],
    )


def make_snapshot():
    reg = MetricsRegistry()
    acc = reg.accumulator()
    acc.observe(metric_key("stage_duration_s", stage="mbr_filter"), 0.125)
    acc.observe(metric_key("stage_duration_s", stage="geometry"), 1.5)
    acc.add(metric_key("funnel", pipeline="join", stage="refined"), 420)
    acc.add(metric_key("refinement", field="hw_tests"), 300)
    acc.add(metric_key("gpu", counter="draw_calls"), 600)
    acc.add(metric_key("unrelated"), 7)
    acc.observe(metric_key("pairs_compared", pipeline="join"), 420)
    return reg.snapshot()


class TestEnvironmentFingerprint:
    def test_core_fields(self):
        env = environment_fingerprint(scale="tiny")
        assert env["python"]
        assert env["numpy"]
        assert env["scale"] == "tiny"
        assert "git_sha" in env
        assert "platform" in env


class TestExperimentEntry:
    def test_carries_rows_sections_and_metrics(self):
        snap = make_snapshot()
        entry = experiment_entry(make_result(), snap, wall_s=2.5)
        assert entry["experiment_id"] == "fig12"
        assert entry["rows"] == [[32, 0.5], [64, 0.7]]
        assert entry["wall_s"] == 2.5
        assert entry["metrics"] == snap
        # Every number once: nothing the rows or the snapshot determine
        # is stored beside them.
        assert set(entry) == {
            "experiment_id",
            "title",
            "params",
            "columns",
            "exact_columns",
            "rows",
            "wall_s",
            "metrics",
        }

    def test_params_jsonable(self):
        entry = experiment_entry(make_result(), make_snapshot(), wall_s=0.1)
        assert entry["params"]["resolutions"] == [32, 64]


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        snap = make_snapshot()
        report = build_run_report(
            [experiment_entry(make_result(), snap, wall_s=1.0)],
            scale="tiny",
        )
        assert report["schema"] == RUN_REPORT_SCHEMA
        assert report["environment"]["scale"] == "tiny"
        assert set(report) == {"schema", "created_unix_s", "environment", "experiments"}
        path = tmp_path / "run.json"
        write_run_report(str(path), report)
        loaded = load_run_report(str(path))
        assert loaded["experiments"][0]["experiment_id"] == "fig12"
        assert loaded["experiments"][0]["metrics"] == snap

    def test_load_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/thing@9"}')
        with pytest.raises(ValueError, match="unsupported run-report schema"):
            load_run_report(str(path))

    def test_load_refuses_a_v1_report(self, tmp_path):
        # An @1 report carries copies an @2 reader would not gate; the
        # refusal names both schemas so the fix is evident.
        path = tmp_path / "old.json"
        path.write_text('{"schema": "repro.obs/run-report@1", "experiments": []}')
        with pytest.raises(ValueError) as exc:
            load_run_report(str(path))
        assert "repro.obs/run-report@1" in str(exc.value)
        assert "repro.obs/run-report@2" in str(exc.value)
