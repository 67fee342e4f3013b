"""Smoke and shape tests for the experiment drivers (tiny workloads).

These are correctness tests of the *harness*: every driver must run, return
well-formed rows, and satisfy the invariants that do not depend on workload
size (engines agree, counters monotone, both clocks populated).  Paper-shape
assertions live in benchmarks/.
"""

import pytest

from repro.bench import (
    ALL_EXPERIMENTS,
    ablation_minmax,
    ablation_overlap_methods,
    ablation_projection,
    ablation_restricted_sweep,
    fig11_selection_resolution,
    fig12_join_resolution,
    fig13_sw_threshold,
    fig16_distance_sweep,
    table2,
)
from repro.bench.result import ExperimentResult


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
            "exec-parallel",
            "batch-refine",
            "cache",
            "intervals",
        }
        assert set(ALL_EXPERIMENTS) == expected


class TestTable2:
    def test_rows_and_format(self):
        result = table2(scale="tiny")
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 5
        text = result.format()
        assert "LANDC" in text and "paper_mean" in text
        assert "params:" in text

    def test_row_width_matches_columns(self):
        result = table2(scale="tiny")
        for row in result.rows:
            assert len(row) == len(result.columns)


class TestJoinDrivers:
    def test_fig12_speedup_columns_populated(self):
        result = fig12_join_resolution(
            scale="tiny", pairs=(("LANDC", "LANDO"),), resolutions=(2, 8)
        )
        hw_rows = [r for r in result.rows if r[1] == "hardware"]
        assert len(hw_rows) == 2
        for r in hw_rows:
            assert r[3] > 0.0  # wall_ms
            assert r[4] > 0.0  # model_ms
            assert 0.0 <= r[5] <= 1.0  # filter rate

    def test_fig13_bypasses_monotone(self):
        result = fig13_sw_threshold(
            scale="tiny", resolutions=(8,), thresholds=(0, 100, 10_000)
        )
        hw = [r for r in result.rows if r[1] == "hardware"]
        bypasses = [r[6] for r in hw]
        assert bypasses == sorted(bypasses)
        # At a huge threshold everything bypasses: no hardware tests remain.
        assert bypasses[-1] > 0

    def test_fig16_improvement_consistent(self):
        result = fig16_distance_sweep(
            scale="tiny", pairs=(("WATER", "PRISM"),), factors=(0.5, 2.0)
        )
        for r in result.rows:
            expected = (1.0 - r[3] / r[2]) * 100.0
            assert r[4] == pytest.approx(expected, abs=0.1)


class TestSelectionDriver:
    def test_fig11_rows_shape(self):
        result = fig11_selection_resolution(
            scale="tiny", datasets=("PRISM",), resolutions=(4, 16)
        )
        engines = [r[1] for r in result.rows]
        assert engines == ["software", "hardware", "hardware"]
        rates = [r[5] for r in result.rows if r[1] == "hardware"]
        assert rates[1] >= rates[0]  # finer window filters no less


class TestAblations:
    def test_restricted_sweep_identical_hits(self):
        result = ablation_restricted_sweep(scale="tiny")
        hits = {r[5] for r in result.rows}
        assert len(hits) == 1

    def test_minmax_agrees(self):
        result = ablation_minmax(scale="tiny", resolution=8)
        overlaps = {r[3] for r in result.rows}
        assert len(overlaps) == 1
        readback = next(r for r in result.rows if r[0] == "readback")
        minmax = next(r for r in result.rows if r[0] == "minmax")
        assert readback[2] > minmax[2]  # modeled bus cost

    def test_overlap_methods_differ_in_buffer_traffic(self):
        # Regression: run through the atlas, every method printed the same
        # accum_ops/buffer_clears row; the mechanisms only exist per pair.
        result = ablation_overlap_methods(scale="tiny")
        rows = {r[0]: r for r in result.rows}
        assert len({r[3] for r in result.rows}) == 1  # identical hw_rejects
        assert [m for m, r in rows.items() if r[4] > 0] == ["accum"]
        assert rows["depth"][5] > rows["blend"][5]  # the extra depth clear

    def test_projection_focused_filters_more(self):
        result = ablation_projection(scale="tiny")
        focused = next(r for r in result.rows if r[0] == "intersection-window")
        naive = next(r for r in result.rows if r[0] == "union-window")
        assert focused[2] >= naive[2]


class TestCli:
    def test_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out and "table2" in out

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

    def test_cache_flags_are_exclusive(self, capsys):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["table2", "--cache", "--no-cache"])

    def test_cache_flag_sets_and_restores_default(self, capsys):
        from repro.cache import CacheConfig, default_cache_config
        from repro.bench.__main__ import main

        assert default_cache_config() == CacheConfig.disabled()
        assert main(["ablation-minmax", "--scale", "tiny", "--cache"]) == 0
        # Restored on exit so in-process callers (tests, notebooks) are
        # never left with a silently different process default.
        assert default_cache_config() == CacheConfig.disabled()
