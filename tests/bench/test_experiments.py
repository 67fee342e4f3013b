"""Smoke and shape tests for the experiment runner (tiny workloads).

These are correctness tests of the *harness*: every declared experiment must
run through ``run_experiment``, return well-formed rows, and satisfy the
invariants that do not depend on workload size (engines agree, exact cells
repeat, counters monotone, both clocks populated).  Paper-shape assertions
live in benchmarks/.
"""

import functools

import pytest

from repro.bench import ALL_EXPERIMENTS, run_experiment
from repro.bench.result import ExperimentResult
from repro.bench.runner import RunContext, exact, wall
from repro.cache import CacheConfig

#: Axes that keep each experiment to a second or two at tiny scale; an id
#: missing here runs its registered defaults.
REDUCED_AXES = {
    "fig10": dict(datasets=("PRISM",), levels=(0, 3)),
    "fig11": dict(datasets=("PRISM",), resolutions=(4, 16)),
    "fig12": dict(pairs=(("LANDC", "LANDO"),), resolutions=(2, 8)),
    "fig13": dict(resolutions=(8,), thresholds=(0, 100, 10_000)),
    "fig14": dict(pairs=(("LANDC", "LANDO"),), factors=(0.5, 1.0)),
    "fig15": dict(pairs=(("LANDC", "LANDO"),), resolutions=(8,)),
    "fig16": dict(pairs=(("LANDC", "LANDO"),), factors=(0.5, 2.0)),
    "ext-distance-field": dict(pair=("LANDC", "LANDO"), factors=(1.0,)),
    "ext-containment": dict(resolutions=(8,)),
    "ext-voronoi-nn": dict(query_count=8),
    "ablation-mindist": dict(pair=("LANDC", "LANDO")),
    "ablation-minmax": dict(resolution=8),
    "batch-refine": dict(resolutions=(8,)),
}


@functools.lru_cache(maxsize=None)
def tiny(experiment_id: str) -> ExperimentResult:
    """One reduced-axes run per id, shared by every test below."""
    return run_experiment(experiment_id, "tiny", **REDUCED_AXES.get(experiment_id, {}))


def records(experiment_id: str):
    return tiny(experiment_id).records()


class TestRegistry:
    def test_all_experiments_present(self):
        expected = {
            "table2",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "ext-containment",
            "ext-distance-field",
            "ext-voronoi-nn",
            "ablation-hull-filter",
            "ablation-restricted-sweep",
            "ablation-mindist",
            "ablation-minmax",
            "ablation-overlap-methods",
            "ablation-projection",
            "batch-refine",
            "cache",
            "intervals",
        }
        assert set(ALL_EXPERIMENTS) == expected
        assert set(REDUCED_AXES) <= expected

    def test_reduced_axes_are_declared_axes(self):
        for experiment_id, axes in REDUCED_AXES.items():
            assert set(axes) <= set(ALL_EXPERIMENTS[experiment_id].axes)

    def test_unknown_axis_is_refused(self):
        with pytest.raises(TypeError):
            run_experiment("table2", "tiny", resolutions=(8,))


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
class TestEveryExperiment:
    def test_rows_match_the_declared_columns(self, experiment_id):
        result = tiny(experiment_id)
        declared = ALL_EXPERIMENTS[experiment_id]
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id
        assert tuple(result.columns) == declared.columns
        assert all(isinstance(c, (exact, wall)) for c in declared.columns)
        assert result.rows
        for row in result.rows:
            assert len(row) == len(result.columns)
        assert "params:" in result.format()

    def test_exact_cells_repeat(self, experiment_id):
        # Catches a timing declared exact; the second run also exercises
        # the runner's own engines-agree checks once more.
        first = tiny(experiment_id)
        again = run_experiment(
            experiment_id, "tiny", **REDUCED_AXES.get(experiment_id, {})
        )
        assert again.params == first.params
        assert len(again.rows) == len(first.rows)
        for before, after in zip(first.records(), again.records()):
            for column in first.exact_columns:
                assert after[column] == before[column], column


class TestTable2:
    def test_rows_and_format(self):
        result = tiny("table2")
        assert len(result.rows) == 5
        text = result.format()
        assert "LANDC" in text and "paper_mean" in text
        assert "params:" in text

    def test_row_width_matches_columns(self):
        result = tiny("table2")
        for row in result.rows:
            assert len(row) == len(result.columns)


class TestJoinDrivers:
    def test_fig12_speedup_columns_populated(self):
        hw_rows = [r for r in records("fig12") if r["engine"] == "hardware"]
        assert len(hw_rows) == 2
        for r in hw_rows:
            assert r["wall_ms"] > 0.0
            assert r["model_ms"] > 0.0
            assert 0.0 <= r["hw_filter_rate"] <= 1.0

    def test_fig13_bypasses_monotone(self):
        hw = [r for r in records("fig13") if r["engine"] == "hardware"]
        bypasses = [r["bypasses"] for r in hw]
        assert bypasses == sorted(bypasses)
        # At a huge threshold everything bypasses: no hardware tests remain.
        assert bypasses[-1] > 0

    def test_fig16_improvement_consistent(self):
        for r in records("fig16"):
            expected = (1.0 - r["hw_model_ms"] / r["sw_model_ms"]) * 100.0
            assert r["improvement_%"] == pytest.approx(expected, abs=0.1)


class TestSelectionDriver:
    def test_fig11_rows_shape(self):
        rows = records("fig11")
        assert [r["engine"] for r in rows] == ["software", "hardware", "hardware"]
        rates = [r["hw_filter_rate"] for r in rows if r["engine"] == "hardware"]
        assert rates[1] >= rates[0]  # finer window filters no less


class TestAblations:
    def test_restricted_sweep_identical_hits(self):
        assert len({r["hits"] for r in records("ablation-restricted-sweep")}) == 1

    def test_minmax_agrees(self):
        rows = {r["variant"]: r for r in records("ablation-minmax")}
        assert rows["minmax"]["overlaps"] == rows["readback"]["overlaps"]
        # modeled bus cost
        assert rows["readback"]["model_ms"] > rows["minmax"]["model_ms"]

    def test_overlap_methods_differ_in_buffer_traffic(self):
        # Regression: run through the atlas, every method printed the same
        # accum_ops/buffer_clears row; the mechanisms only exist per pair.
        rows = {r["method"]: r for r in records("ablation-overlap-methods")}
        assert len({r["hw_rejects"] for r in rows.values()}) == 1
        assert [m for m, r in rows.items() if r["accum_ops"] > 0] == ["accum"]
        # the extra depth clear
        assert rows["depth"]["buffer_clears"] > rows["blend"]["buffer_clears"]

    def test_projection_focused_filters_more(self):
        rows = {r["variant"]: r for r in records("ablation-projection")}
        assert (
            rows["intersection-window"]["hw_rejects"]
            >= rows["union-window"]["hw_rejects"]
        )


class TestTheCompareLoop:
    def test_a_changed_answer_is_refused(self):
        ctx = RunContext("tiny", CacheConfig.disabled())
        runs = [ctx.run(ctx.software(), lambda e: answer) for answer in ([1], [2])]
        with pytest.raises(AssertionError, match="answers differ"):
            ctx.compare(runs)

    def test_changed_stats_are_refused_only_when_claimed(self):
        ctx = RunContext("tiny", CacheConfig.disabled())
        same, counted = ctx.software(), ctx.software()
        counted.stats.pairs_tested += 1
        runs = [ctx.run(engine, lambda e: [1]) for engine in (same, counted)]
        assert len(ctx.compare(runs)) == 2
        with pytest.raises(AssertionError, match="RefinementStats differ"):
            ctx.compare(runs, stats=True)


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table2" in out
        # id, title and the default axes
        assert "Intersection join geometry comparison by resolution" in out
        assert "resolutions=(1, 2, 4, 8, 16, 32)" in out

    def test_unknown_experiment(self, capsys):
        from repro.bench.__main__ import main

        assert main(["fig99"]) == 2

    def test_run_one(self, capsys, tmp_path):
        from repro.bench.__main__ import main

        out_file = tmp_path / "results.txt"
        assert main(["table2", "--scale", "tiny", "--out", str(out_file)]) == 0
        assert "LANDC" in out_file.read_text()

    def test_run_many(self, capsys):
        from repro.bench.__main__ import main

        assert main(["table2", "ablation-minmax", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "paper_mean" in out and "minmax" in out

    def test_cache_flag_reaches_the_runs_engines_and_no_others(self, capsys, tmp_path):
        import json

        from repro.bench.__main__ import main
        from repro.core import HardwareEngine, SoftwareEngine

        def cache_counters(*flags):
            out = tmp_path / "run.json"
            argv = ["ext-containment", "--scale", "tiny", "--report-out", str(out)]
            assert main(argv + list(flags)) == 0
            (entry,) = json.loads(out.read_text())["experiments"]
            return {k for k in entry["metrics"]["counters"] if k.startswith("cache_")}

        # Both the software and the hardware engines of the run carry it...
        assert {
            "cache_misses{cache=predicate,op=sweep}",
            "cache_misses{cache=verdict,op=intersect}",
        } <= cache_counters("--cache")
        # ...and nothing outlives the run: the next run, and an engine built
        # without a cache argument, have every layer off.
        assert cache_counters() == set()
        assert HardwareEngine().caches.stats() == {}
        assert SoftwareEngine().caches.stats() == {}
