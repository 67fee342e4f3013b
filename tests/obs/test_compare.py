"""Tests for RunReport comparison and the regression gate's exit codes."""

import copy
import json
import math
from pathlib import Path

import pytest

from repro.bench import ALL_EXPERIMENTS, run_experiment
from repro.bench.runner import exact
from repro.obs.__main__ import main as obs_main
from repro.obs.compare import Finding, compare_reports
from repro.obs.metrics import MetricsRegistry, metric_key
from repro.obs.runreport import build_run_report, experiment_entry
from tests.obs.test_runreport import make_result, make_snapshot


def make_report():
    return build_run_report(
        [experiment_entry(make_result(), make_snapshot(), wall_s=1.0)],
        scale="tiny",
        environment={"python": "3.11.0", "numpy": "1.26.0", "scale": "tiny"},
    )


def scale_timings(report, factor):
    """Every wall-clock value of the report's first entry, times factor."""
    entry = report["experiments"][0]
    entry["wall_s"] *= factor
    for key, hist in entry["metrics"]["histograms"].items():
        if key.startswith("stage_duration_s"):
            for field in ("sum", "min", "max"):
                hist[field] *= factor
            hist["sum_parts"] = [part * factor for part in hist["sum_parts"]]


def counters(report):
    return report["experiments"][0]["metrics"]["counters"]


class TestFinding:
    def test_severities(self):
        assert Finding("mismatch", "p", 1, 2).fails
        assert not Finding("warning", "p", 1, 2).fails


class TestCompare:
    def test_self_compare_passes(self):
        report = make_report()
        comparison = compare_reports(report, copy.deepcopy(report))
        assert comparison.ok
        assert comparison.experiments_compared == 1
        assert comparison.failures == []

    def test_injected_10x_timing_passes(self):
        # Wall time is judged by the benchmark ledger, not by this gate.
        baseline = make_report()
        current = copy.deepcopy(baseline)
        scale_timings(current, 10.0)
        comparison = compare_reports(baseline, current)
        assert comparison.ok, comparison.format()
        assert comparison.findings == []

    def test_faster_never_fails(self):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        scale_timings(current, 0.1)
        assert compare_reports(baseline, current).ok

    def test_counter_mismatch_fails(self):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        counters(current)["refinement{field=hw_tests}"] += 1
        comparison = compare_reports(baseline, current)
        assert not comparison.ok
        assert any("hw_tests" in f.path for f in comparison.failures)

    @pytest.mark.parametrize(
        "nan_sides, ok",
        [((0,), False), ((1,), False), ((0, 1), True)],
        ids=["baseline", "current", "both"],
    )
    def test_nan_matches_only_nan(self, nan_sides, ok):
        reports = [make_report(), make_report()]
        for i in nan_sides:
            counters(reports[i])["refinement{field=hw_tests}"] = math.nan
        comparison = compare_reports(*reports)
        assert [f.path for f in comparison.failures] == (
            []
            if ok
            else ["experiments[fig12].metrics.counters.refinement{field=hw_tests}"]
        )

    @pytest.mark.parametrize(
        "section, key",
        [("counters", "gpu{counter=new_counter}"), ("histograms", "new_stage_s")],
    )
    def test_key_only_in_current_fails(self, section, key):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        current["experiments"][0]["metrics"][section][key] = 0.5
        comparison = compare_reports(baseline, current)
        assert [(f.path, f.detail) for f in comparison.failures] == [
            (f"experiments[fig12].metrics.{section}.{key}", "not in baseline")
        ]

    def test_a_dropped_row_fails(self):
        # make_report's table declares no exact column: only its length gates.
        baseline = make_report()
        current = copy.deepcopy(baseline)
        current["experiments"][0]["rows"].pop()
        comparison = compare_reports(baseline, current)
        assert [f.path for f in comparison.failures] == [
            "experiments[fig12].len(rows)"
        ]

    def test_missing_experiment_fails(self):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        current["experiments"] = []
        comparison = compare_reports(baseline, current)
        assert not comparison.ok
        assert comparison.experiments_compared == 0

    def test_extra_experiment_fails(self):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        extra = copy.deepcopy(current["experiments"][0])
        extra["experiment_id"] = "extra"
        current["experiments"].append(extra)
        comparison = compare_reports(baseline, current)
        assert [f.path for f in comparison.failures] == ["experiments.extra"]
        assert comparison.experiments_compared == 1

    def test_environment_differences_warn_not_fail(self):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        current["environment"]["numpy"] = "2.0.0"
        comparison = compare_reports(baseline, current)
        assert comparison.ok
        assert any("environment.numpy" in f.path for f in comparison.findings)

    def test_non_timing_histogram_gates_on_content(self):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        hist = current["experiments"][0]["metrics"]["histograms"][
            "pairs_compared{pipeline=join}"
        ]
        hist["sum"] += 1.0
        assert not compare_reports(baseline, current).ok

    def test_timing_histogram_gates_on_count_only(self):
        reg = MetricsRegistry()
        reg.accumulator().observe(metric_key("stage_duration_s", stage="geometry"), 0.5)
        entry = experiment_entry(make_result(), reg.snapshot(), wall_s=1.0)
        baseline = build_run_report([entry], scale="tiny")
        current = copy.deepcopy(baseline)
        hist = current["experiments"][0]["metrics"]["histograms"][
            "stage_duration_s{stage=geometry}"
        ]
        hist["sum"] *= 10  # slower, same call count: not a gate failure
        assert compare_reports(baseline, current).ok
        hist["count"] += 1
        assert not compare_reports(baseline, current).ok


class TestExactCells:
    """The gate reads the tables, not their length."""

    @pytest.fixture(scope="class")
    def figure(self):
        result = run_experiment("ablation-minmax", "tiny", resolution=8)
        entry = experiment_entry(result, MetricsRegistry().snapshot(), wall_s=0.1)
        return build_run_report([entry], scale="tiny", environment={})

    def cell(self, report, row, column):
        entry = report["experiments"][0]
        return entry["rows"][row], entry["columns"].index(column)

    def test_entry_lists_the_exact_columns(self, figure):
        assert figure["experiments"][0]["exact_columns"] == [
            "variant",
            "model_ms",
            "overlaps",
        ]

    def test_one_changed_exact_cell_fails(self, figure):
        current = copy.deepcopy(figure)
        row, j = self.cell(current, 1, "model_ms")
        row[j] = math.nextafter(row[j], math.inf)  # one ulp
        comparison = compare_reports(figure, current)
        assert [f.path for f in comparison.failures] == [
            "experiments[ablation-minmax].rows[1].model_ms"
        ]

    def test_nan_exact_cell_matches_only_nan(self, figure):
        base = copy.deepcopy(figure)
        row, j = self.cell(base, 1, "model_ms")
        row[j] = math.nan
        assert compare_reports(base, copy.deepcopy(base)).ok
        assert not compare_reports(base, figure).ok
        assert not compare_reports(figure, base).ok

    def test_a_changed_wall_cell_passes(self, figure):
        current = copy.deepcopy(figure)
        row, j = self.cell(current, 0, "wall_ms")
        row[j] *= 3.0
        assert compare_reports(figure, current).ok

    def test_a_vanished_exact_column_fails(self, figure):
        current = copy.deepcopy(figure)
        entry = current["experiments"][0]
        entry["columns"][entry["columns"].index("overlaps")] = "renamed"
        comparison = compare_reports(figure, current)
        assert any(f.baseline == "overlaps" for f in comparison.failures)

    def test_a_baseline_without_the_key_gates_as_before(self, figure):
        # Artifacts written before the key existed still load and compare.
        old = copy.deepcopy(figure)
        del old["experiments"][0]["exact_columns"]
        current = copy.deepcopy(figure)
        row, j = self.cell(current, 1, "model_ms")
        row[j] += 1.0
        assert compare_reports(old, current).ok

    def test_committed_baseline_gates_every_experiment(self):
        root = Path(__file__).resolve().parents[2]
        with open(root / "benchmarks/baselines/run-report-tiny.json") as f:
            baseline = json.load(f)
        entries = {e["experiment_id"]: e for e in baseline["experiments"]}
        assert set(entries) == set(ALL_EXPERIMENTS)
        for experiment_id, declared in ALL_EXPERIMENTS.items():
            assert entries[experiment_id]["exact_columns"] == [
                c for c in declared.columns if isinstance(c, exact)
            ]


class TestCli:
    def write(self, path, report):
        path.write_text(json.dumps(report))

    def test_pass_exit_zero(self, tmp_path, capsys):
        report = make_report()
        self.write(tmp_path / "a.json", report)
        self.write(tmp_path / "b.json", report)
        code = obs_main(
            ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_counter_mismatch_exit_one(self, tmp_path, capsys):
        baseline = make_report()
        current = copy.deepcopy(baseline)
        counters(current)["refinement{field=hw_tests}"] += 1
        self.write(tmp_path / "a.json", baseline)
        self.write(tmp_path / "b.json", current)
        code = obs_main(
            ["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_flag_is_gone(self, tmp_path, capsys):
        self.write(tmp_path / "a.json", make_report())
        path = str(tmp_path / "a.json")
        with pytest.raises(SystemExit) as exc:
            obs_main(["compare", path, path, "--tolerance", "1"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_unreadable_exit_two(self, tmp_path, capsys):
        self.write(tmp_path / "a.json", make_report())
        code = obs_main(
            ["compare", str(tmp_path / "a.json"), str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
