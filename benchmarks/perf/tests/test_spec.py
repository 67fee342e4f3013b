"""``BENCHMARK.json`` and ``spec.py`` name the same things."""

import json
import re

from conftest import ROOT

import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_has_exactly_the_contract_keys():
    manifest = _manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/perf"]
    assert manifest["command"] == ["python3", "benchmarks/perf/run.py"]
    assert manifest["run_seconds"] == spec.DEFAULT_SECONDS


def test_workloads_match():
    manifest = _manifest()
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS.values()
    ]
    assert set(spec.WORKLOADS) == set(spec.DIRECT + spec.SERVED)
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match():
    manifest = _manifest()
    declared = [m for m in spec.END_TO_END if m.in_driver]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in declared
    ]
    setup = spec.E2E_BY_NAME["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in declared)
    assert all(0.0 < m.bound <= 0.25 for m in declared)
    # The full report carries all eight.
    assert len(spec.END_TO_END) == 8


def test_per_layer_metrics_match():
    manifest = _manifest()
    assert manifest["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better}
        for layer in spec.PER_LAYER
    ]
    assert 1 <= len(manifest["per_layer"]) <= 128


def test_names_and_units_are_well_formed_and_used_once():
    manifest = _manifest()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for key in ("end_to_end", "per_layer"):
        for entry in manifest[key]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")


def test_layer_predictions_name_real_metrics_and_workloads():
    for layer in spec.PER_LAYER:
        for metric, workload in layer.moves:
            assert metric in spec.E2E_BY_NAME, layer.name
            assert workload in spec.WORKLOADS, layer.name


def test_segment_counts_scale_with_seconds_only():
    assert spec.segments_for("join-wp", spec.DEFAULT_SECONDS) == 12
    assert spec.segments_for("join-wp", 2 * spec.DEFAULT_SECONDS) == 24
    assert spec.segments_for("join-wp", 0.1) == 2
