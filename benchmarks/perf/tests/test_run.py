"""End-to-end behaviour of the runner, in smoke mode (two segments)."""

import json
import os
import subprocess
import sys

import pytest
from conftest import PERF, ROOT

import direct
import measure
import run
import served
import spec
import timing

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace, seed=5):
    """Run the driver's form of the command; returns its last-line JSON."""
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--smoke",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_on_every_workload(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    for entry in declared:
        emitted = result["metrics"][entry["name"]]
        assert emitted["unit"] == entry["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_fills_the_layers_its_workload_uses():
    values = {k: v["value"] for k, v in _smoke("wd-ll", 1)["metrics"].items()}
    for name in (
        "filters.object_bounds_ms", "geometry.mindist_ms", "gpu.tile_batch_ms",
        "core.hw_batch_ms", "index.mbr_join_ms", "datasets.generate_s",
        "query.intermediate_filter_ms", "modeled_ms_per_op",
    ):
        assert values[name] > 0, name
    for name in ("geometry.sweep_ms", "filters.intervals_classify_ms",
                 "serve.exec_p50_ms", "index.rtree_search_ms"):
        assert values[name] == 0, name


def test_modeled_clock_is_identical_across_runs_and_seeds():
    first = _smoke("join-wp-intervals", 1, seed=5)["metrics"]["modeled_ms_per_op"]
    again = _smoke("join-wp-intervals", 1, seed=5)["metrics"]["modeled_ms_per_op"]
    other = _smoke("join-wp-intervals", 1, seed=6)["metrics"]["modeled_ms_per_op"]
    assert first["value"] == again["value"] == other["value"] > 0


def test_seed_changes_the_inputs_but_not_the_work():
    a = direct.build("wd-ll", 1)
    b = direct.build("wd-ll", 2)
    a.build_oracle()
    b.build_oracle()
    assert a.oracle != b.oracle
    assert len(a.oracle[0]) == len(b.oracle[0])
    assert a.run_op(0)[0] == a.oracle[0]


def test_a_wrong_oracle_entry_fails_the_run(capsys):
    with timing.Sampler() as sampler:
        instance, raw_s, cal_s = measure.set_up("wd-ll", 3, 1, sampler)
        instance.build_oracle()
        instance.oracle[0] = instance.oracle[0][:-1]
        segments = measure.measure(instance, 2, sampler)
    report = measure.end_to_end_report(
        "wd-ll", 3, 1.0, instance, raw_s, cal_s, segments, 1.0
    )
    assert report["failed"] == report["attempted"] > 0
    assert report["metrics"]["failed_frac"]["value"] == 1.0
    assert report["correct"] is False
    assert run.emit(report, ["op_p50_cms"], None) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_an_unstable_modeled_clock_fails_the_run():
    with timing.Sampler() as sampler:
        instance, raw_s, cal_s = measure.set_up("wd-ll", 3, 1, sampler)
        instance.build_oracle()
        segments = measure.measure(instance, 2, sampler)
    segments[-1].extra["modeled_ms"] += 1e-9
    report = measure.end_to_end_report(
        "wd-ll", 3, 1.0, instance, raw_s, cal_s, segments, 1.0
    )
    assert report["failed"] == 0 and report["correct"] is False


def test_server_is_stopped_when_the_workload_raises(monkeypatch):
    built = []
    real_build = served.build

    def recording_build(name, seed):
        built.append(real_build(name, seed))
        return built[-1]

    def broken_oracle(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(served, "build", recording_build)
    monkeypatch.setattr(served.ServedInstance, "build_oracle", broken_oracle)
    affinity = os.sched_getaffinity(0)
    with pytest.raises(RuntimeError, match="injected"):
        measure.end_to_end("serve-sel", 1, 1.0, repetitions=1)
    assert len(built) == 1
    assert built[0].server.process.poll() is not None
    # The runner pinned itself for the workload and is free again.
    assert os.sched_getaffinity(0) == affinity


def test_a_server_that_ignores_shutdown_is_killed(monkeypatch):
    monkeypatch.setattr(served, "SHUTDOWN_TIMEOUT_S", 0.5)
    server = served.ServerProcess.__new__(served.ServerProcess)
    server.port = None
    server.process = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(600)"],
        stdout=subprocess.PIPE, text=True,
    )
    server.stop()
    assert server.process.poll() is not None


def test_outside_a_checkout_the_runner_fails_without_a_result(tmp_path):
    lone = tmp_path / "benchmarks" / "perf"
    lone.mkdir(parents=True)
    for source in PERF.glob("*.py"):
        (lone / source.name).write_text(source.read_text())
    done = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "sel-water",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
