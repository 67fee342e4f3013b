"""EXPLAIN ANALYZE funnel tests.

The funnel is only worth printing if it is *exact*: every stage count must
agree with the engine's RefinementStats, the identities must hold for
serial and batched execution of the same query set, and the two execution
modes must produce the same funnel.  A run's funnel is the one its
pipeline's observer publishes (``result.funnel``); :func:`explained` runs a
query under a private registry to get it.
"""

import json

import pytest

from repro.bench.experiments import per_pair_engine
from repro.core import HardwareConfig, HardwareEngine, SoftwareEngine
from repro.obs.__main__ import main as obs_main
from repro.obs import CAPTURE_SCHEMA, CommandRecorder, use_recorder
from repro.obs.records import write_jsonl
from repro.obs.explain import (
    FUNNEL_STAGES,
    QueryFunnel,
    funnel_from_deltas,
    funnels_from_snapshot,
    render_funnel,
    render_funnels,
)
from repro.obs import MetricsRegistry, use_registry
from repro.obs.runreport import build_run_report, experiment_entry, write_run_report
from repro.query import (
    ContainmentSelection,
    IntersectionJoin,
    WithinDistanceJoin,
)
from tests.obs.test_runreport import make_result


def hw_engine(**kwargs):
    return HardwareEngine(HardwareConfig(resolution=8, **kwargs))


def explained(run):
    """``run()`` under a private metrics registry: (result, its funnel)."""
    with use_registry(MetricsRegistry()):
        result = run()
    return result, result.funnel


class TestQueryFunnelUnits:
    def balanced(self):
        return QueryFunnel(
            pipeline="join",
            candidates=10,
            interior_filter_hits=2,
            refined=8,
            prefilter_drops=1,
            pip_resolved=2,
            hw_proven_disjoint=1,
            sw_exact=4,
            threshold_skipped=1,
            hw_needs_sweep=2,
            hw_overflow_fallbacks=1,
            hw_false_positives=1,
            results=3,
        )

    def balanced_with_intervals(self):
        """Same funnel, with three candidates resolved interval-side."""
        funnel = self.balanced()
        funnel.candidates += 3
        funnel.interval_proven_intersecting = 2
        funnel.interval_proven_disjoint = 1
        return funnel

    def test_identities_hold_for_balanced_funnel(self):
        assert self.balanced().check() == []

    def test_identities_hold_with_interval_stages(self):
        assert self.balanced_with_intervals().check() == []

    def test_interval_stages_render(self):
        text = render_funnel(self.balanced_with_intervals())
        assert "interval proven intersecting" in text
        assert "interval proven disjoint" in text

    def test_each_identity_detected_when_broken(self):
        for stage, fragment in (
            ("hull_proven_disjoint", "candidates =="),
            ("interior_filter_hits", "candidates =="),
            ("interval_proven_intersecting", "candidates =="),
            ("interval_proven_disjoint", "candidates =="),
            ("pip_resolved", "refined =="),
            ("sw_direct", "sw_exact =="),
            ("threshold_skipped", "sw_exact =="),
        ):
            funnel = self.balanced()
            setattr(funnel, stage, getattr(funnel, stage) + 1)
            violations = funnel.check()
            assert violations, stage
            assert any(fragment in v for v in violations), stage

    def test_false_positives_bounded_by_maybe_verdicts(self):
        funnel = self.balanced()
        funnel.hw_false_positives = funnel.hw_needs_sweep + 1
        assert any("hw_false_positives" in v for v in funnel.check())

    def test_derived_quantities(self):
        funnel = self.balanced()
        assert funnel.hw_tests == 1 + 2 + 1
        assert funnel.hw_false_positive_rate == pytest.approx(0.5)
        assert QueryFunnel(pipeline="x").hw_false_positive_rate == 0.0

    def test_to_dict_carries_every_stage(self):
        doc = self.balanced().to_dict()
        for stage in FUNNEL_STAGES:
            assert stage in doc
        assert doc["hw_tests"] == 4
        derived = {"pipeline", "hw_tests", "hw_false_positive_rate"}
        assert set(doc) == derived | set(FUNNEL_STAGES)

    def test_render_reports_ok_or_violation(self):
        ok = render_funnel(self.balanced())
        assert "funnel identities: OK" in ok
        broken = self.balanced()
        broken.refined += 1
        assert "IDENTITY VIOLATED" in render_funnel(broken)

    def test_funnel_from_deltas_without_cost(self):
        deltas = {
            "pairs_tested": 6,
            "prefilter_drops": 1,
            "pip_hits": 1,
            "threshold_bypasses": 0,
            "hw_tests": 4,
            "hw_rejects": 2,
            "width_limit_fallbacks": 0,
            "sw_segment_tests": 2,
            "sw_distance_tests": 0,
            "hw_false_positives": 1,
            "positives": 2,
        }
        funnel = funnel_from_deltas("loop", deltas)
        assert funnel.candidates == funnel.refined == 6
        assert funnel.hw_needs_sweep == 2
        assert funnel.results == 2
        assert funnel.check() == []


def assert_funnel_matches_stats(funnel, stats):
    """Satellite: the funnel is the RefinementStats, restated and checked."""
    assert funnel.refined == stats.pairs_tested
    assert funnel.prefilter_drops == stats.prefilter_drops
    assert funnel.pip_resolved == stats.pip_hits
    assert funnel.threshold_skipped == stats.threshold_bypasses
    assert funnel.hw_proven_disjoint == stats.hw_rejects
    assert funnel.hw_overflow_fallbacks == stats.width_limit_fallbacks
    assert funnel.hw_needs_sweep == (
        stats.hw_tests - stats.hw_rejects - stats.width_limit_fallbacks
    )
    assert funnel.hw_false_positives == stats.hw_false_positives
    assert funnel.sw_exact == stats.sw_segment_tests + stats.sw_distance_tests
    assert funnel.check() == []


class TestExplainRunConsistency:
    """Serial and batched runs yield one and the same funnel."""

    def run_join(self, dataset_a, dataset_b, mode):
        # "serial" is the paper-literal tester: one submission per pair.
        engine = (
            per_pair_engine(HardwareConfig(resolution=8))
            if mode == "serial"
            else hw_engine()
        )
        result, funnel = explained(
            lambda: IntersectionJoin(dataset_a, dataset_b, engine).run()
        )
        return engine, result, funnel

    @pytest.mark.parametrize("mode", ["serial", "batched"])
    def test_funnel_matches_refinement_stats(self, dataset_a, dataset_b, mode):
        engine, result, funnel = self.run_join(dataset_a, dataset_b, mode)
        assert_funnel_matches_stats(funnel, engine.stats)
        assert funnel.candidates == result.cost.candidates_after_mbr
        assert funnel.refined == result.cost.pairs_compared
        assert funnel.results == len(result.pairs)

    def test_modes_agree_exactly(self, dataset_a, dataset_b):
        funnels = [
            self.run_join(dataset_a, dataset_b, mode)[2].to_dict()
            for mode in ("serial", "batched")
        ]
        assert funnels[0] == funnels[1]

    def test_within_distance_and_containment_funnels(
        self, dataset_a, dataset_b
    ):
        engine = hw_engine()
        _, wd = explained(
            lambda: WithinDistanceJoin(dataset_a, dataset_b, engine).run(1.5)
        )
        assert_funnel_matches_stats(wd, engine.stats)
        engine2 = hw_engine()
        selection = ContainmentSelection(dataset_b, engine2)
        _, ct = explained(lambda: selection.run(dataset_a.polygons[0]))
        assert_funnel_matches_stats(ct, engine2.stats)

    def test_long_lived_engine_attributes_deltas(self, dataset_a, dataset_b):
        # A second identical run on the same engine must see its own work,
        # not the cumulative stats.
        engine = hw_engine()
        run = lambda: IntersectionJoin(dataset_a, dataset_b, engine).run()  # noqa: E731
        _, first = explained(run)
        _, second = explained(run)
        assert first == second


class TestEveryCandidateHasAStage:
    """Software-engine runs and hull-filtered runs close the identities."""

    def test_software_and_hardware_runs_share_one_funnel(
        self, dataset_a, dataset_b
    ):
        # Experiments run one pipeline on both engines under one registry.
        registry = MetricsRegistry()
        software = SoftwareEngine()
        with use_registry(registry):
            IntersectionJoin(dataset_a, dataset_b, software).run()
            IntersectionJoin(dataset_a, dataset_b, hw_engine()).run()
        funnel = funnels_from_snapshot(registry.snapshot())["join"]
        assert funnel.check() == []
        assert funnel.sw_direct == software.stats.sw_segment_tests > 0
        assert funnel.sw_direct < funnel.sw_exact

    def test_hull_filter_drops_are_a_stage(self, dataset_a, dataset_b):
        engine = hw_engine()
        join = IntersectionJoin(dataset_a, dataset_b, engine, use_hull_filter=True)
        result, funnel = explained(join.run)
        assert funnel.check() == []
        assert funnel.hull_proven_disjoint == result.cost.hull_drops > 0
        assert funnel.hull_proven_disjoint == funnel.candidates - funnel.refined

    def test_hardware_engine_violation_is_still_reported(
        self, dataset_a, dataset_b
    ):
        # An exact test no hardware outcome accounts for must not be
        # absorbed by ``sw_direct``: that stage is zero for a hardware engine.
        engine = hw_engine()
        refine = engine.refine

        def refine_and_miscount(*args, **kwargs):
            keys = refine(*args, **kwargs)
            engine.stats.sw_segment_tests += 1
            return keys

        engine.refine = refine_and_miscount
        _, funnel = explained(
            lambda: IntersectionJoin(dataset_a, dataset_b, engine).run()
        )
        assert funnel.sw_direct == 0
        assert any("sw_exact ==" in v for v in funnel.check())


class TestFunnelsFromSnapshot:
    def snapshot_for(self, dataset_a, dataset_b, run):
        registry = MetricsRegistry()
        with use_registry(registry):
            run()
        return registry.snapshot()

    def test_funnel_family_reconstructed(self, dataset_a, dataset_b):
        engine = hw_engine()
        snap = self.snapshot_for(
            dataset_a,
            dataset_b,
            lambda: IntersectionJoin(dataset_a, dataset_b, engine).run(),
        )
        funnels = funnels_from_snapshot(snap)
        assert set(funnels) == {"join"}
        funnel = funnels["join"]
        assert_funnel_matches_stats(funnel, engine.stats)
        assert funnel.candidates == snap["histograms"][
            "candidates_after_mbr{pipeline=join}"
        ]["sum"]

    def test_two_pipelines_stay_separate(self, dataset_a, dataset_b):
        def run():
            IntersectionJoin(dataset_a, dataset_b, hw_engine()).run()
            WithinDistanceJoin(dataset_a, dataset_b, hw_engine()).run(1.5)

        funnels = funnels_from_snapshot(
            self.snapshot_for(dataset_a, dataset_b, run)
        )
        assert set(funnels) == {"join", "within_distance_join"}
        for funnel in funnels.values():
            assert funnel.check() == []

    def test_empty_snapshot_yields_no_funnels(self):
        assert funnels_from_snapshot({"counters": {}}) == {}
        # Only the funnel family is read; nothing is synthesized from others.
        assert funnels_from_snapshot(
            {"counters": {"refinement{field=pairs_tested}": 4}}
        ) == {}
        assert "no funnel metrics" in render_funnels({})


class TestLineWidthOverflow:
    """Satellite: the 10px-limit fallback is counted and surfaced."""

    def overflow_run(self, dataset_a, dataset_b, batched):
        # High resolution + a query distance comparable to the window makes
        # Equation (1)'s width exceed the 10px device limit (section 4.4).
        # Both the atlas and the per-pair tester must count the fallback.
        config = HardwareConfig(resolution=32)
        engine = HardwareEngine(config) if batched else per_pair_engine(config)
        registry = MetricsRegistry()
        with use_registry(registry):
            WithinDistanceJoin(dataset_a, dataset_b, engine).run(25.0)
        return engine, registry.snapshot()

    @pytest.mark.parametrize("batched", [False, True])
    def test_overflow_counter_matches_fallbacks(
        self, dataset_a, dataset_b, batched
    ):
        engine, snap = self.overflow_run(dataset_a, dataset_b, batched)
        assert engine.stats.width_limit_fallbacks > 0
        key = "hw_line_width_overflow{method=accum,op=within_distance}"
        assert snap["counters"][key] == engine.stats.width_limit_fallbacks

    def test_overflow_surfaced_in_funnel(self, dataset_a, dataset_b):
        engine, snap = self.overflow_run(dataset_a, dataset_b, True)
        funnel = funnels_from_snapshot(snap)["within_distance_join"]
        assert funnel.hw_overflow_fallbacks == engine.stats.width_limit_fallbacks
        assert funnel.check() == []
        assert "line-width overflow" in render_funnel(funnel)


class TestCli:
    def report_file(self, tmp_path, runs):
        """A RunReport with one entry per (experiment id -> query run)."""
        entries = []
        for experiment_id, run in runs.items():
            registry = MetricsRegistry()
            with use_registry(registry):
                run()
            entries.append(
                experiment_entry(make_result(experiment_id), registry.snapshot(), 0.1)
            )
        path = tmp_path / "report.json"
        write_run_report(str(path), build_run_report(entries, environment={}))
        return path

    def test_explain_cli_on_report(self, tmp_path, capsys, dataset_a, dataset_b):
        path = self.report_file(
            tmp_path,
            {"j": lambda: IntersectionJoin(dataset_a, dataset_b, hw_engine()).run()},
        )
        assert obs_main(["explain", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "EXPLAIN ANALYZE: join" in printed
        assert "funnel identities: OK" in printed

    def test_explain_cli_exits_1_on_a_broken_identity(
        self, tmp_path, capsys, dataset_a, dataset_b
    ):
        path = self.report_file(
            tmp_path,
            {"j": lambda: IntersectionJoin(dataset_a, dataset_b, hw_engine()).run()},
        )
        report = json.loads(path.read_text())
        counters = report["experiments"][0]["metrics"]["counters"]
        counters["funnel{pipeline=join,stage=candidates}"] += 1
        path.write_text(json.dumps(report))
        assert obs_main(["explain", str(path)]) == 1
        assert "IDENTITY VIOLATED: join: candidates ==" in capsys.readouterr().out

    def test_explain_merges_every_entry(self, tmp_path, capsys, dataset_a, dataset_b):
        # The report stores no run totals: explain merges the entries, and
        # the per-experiment funnels add up to the merged ones stage by stage.
        def join_and_distance():
            IntersectionJoin(dataset_a, dataset_b, SoftwareEngine()).run()
            WithinDistanceJoin(dataset_a, dataset_b, hw_engine()).run(1.5)

        path = self.report_file(
            tmp_path,
            {
                "a": lambda: IntersectionJoin(dataset_a, dataset_b, hw_engine()).run(),
                "b": join_and_distance,
            },
        )

        entries = {
            entry["experiment_id"]: entry["metrics"]
            for entry in json.loads(path.read_text())["experiments"]
        }

        def printed(*experiment, snapshots):
            # The command prints the funnels of the entries it reads.
            capsys.readouterr()
            assert obs_main(["explain", str(path), *experiment]) == 0
            assert capsys.readouterr().out == render_funnels(
                funnels_from_snapshot(*snapshots)
            ) + "\n"
            return {
                name: funnel.to_dict()
                for name, funnel in funnels_from_snapshot(*snapshots).items()
            }

        merged = printed(snapshots=entries.values())
        a = printed("--experiment", "a", snapshots=[entries["a"]])
        b = printed("--experiment", "b", snapshots=[entries["b"]])
        assert set(merged) == {"join", "within_distance_join"} == set(a) | set(b)
        for pipeline, funnel in merged.items():
            for stage in FUNNEL_STAGES:
                parts = [f[pipeline][stage] for f in (a, b) if pipeline in f]
                assert funnel[stage] == sum(parts), (pipeline, stage)
        assert merged["join"]["sw_direct"] == b["join"]["sw_direct"] > 0

    def test_explain_cli_rejects_funnel_free_artifact(self, tmp_path, capsys):
        path = self.report_file(tmp_path, {"idle": lambda: None})
        assert obs_main(["explain", str(path)]) == 2

    def test_explain_cli_refuses_a_bare_snapshot(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(MetricsRegistry().snapshot()))
        assert obs_main(["explain", str(path)]) == 2
        assert "unsupported run-report schema" in capsys.readouterr().err

    def test_explain_cli_missing_file(self, tmp_path, capsys):
        assert obs_main(["explain", str(tmp_path / "nope.json")]) == 2

    def test_replay_cli_round_trip(self, tmp_path, capsys, dataset_a, dataset_b):
        path = tmp_path / "cap.jsonl"
        recorder = CommandRecorder(str(path))
        with use_recorder(recorder):
            IntersectionJoin(dataset_a, dataset_b, hw_engine()).run()
        assert obs_main(["replay", str(path)]) == 0
        assert "MATCH" in capsys.readouterr().out
        events = json.loads(json.dumps(recorder.events))
        tampered = [e for e in events if e["cmd"] == "tile_batch"]
        assert tampered
        tampered[0]["atlas_digest"] = "0" * 64
        write_jsonl(str(path), [{"schema": CAPTURE_SCHEMA}, *events])
        assert obs_main(["replay", str(path)]) == 1
        assert "DIVERGED" in capsys.readouterr().out
