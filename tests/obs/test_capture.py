"""Flight-recorder tests: capture, persistence, merge, and replay.

The load-bearing guarantee is *bit-identity*: replaying a captured command
stream against freshly constructed pipelines reproduces every recorded
Minmax answer and every buffer digest exactly, for all five overlap-search
methods and for the tiled atlas path.  A capture that replays is a proof
the run was deterministic; a mismatch pinpoints the first diverging
command.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import per_pair_engine
from repro.core import OVERLAP_METHODS, HardwareConfig, HardwareEngine
from repro.core.hardware_test import HardwareSegmentTest
from repro.obs import (
    CAPTURE_SCHEMA,
    CommandRecorder,
    current_scope,
    load_capture,
    replay_capture,
    replay_events,
    use_recorder,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.capture import write_events
from repro.query import IntersectionJoin, IntersectionSelection

from ..strategies import polygon_pairs_nearby


def hw_test(method="accum", **kwargs):
    return HardwareSegmentTest(
        HardwareConfig(resolution=8, method=method, **kwargs)
    )


def pair_window(a, b):
    return a.mbr.union(b.mbr).expand(1.0)


def record_pair_test(method, a, b, snapshot=True):
    """One per-pair hardware test under a fresh recorder."""
    test = hw_test(method)
    recorder = CommandRecorder()
    with use_recorder(recorder):
        verdict = test.intersection_verdict(a, b, pair_window(a, b))
        plane = "stencil" if method == "stencil" else "color"
        test.pipeline.read_pixels(plane)
        if snapshot:
            recorder.snapshot_framebuffer(test.pipeline)
    return recorder, verdict


class HookSpy(CommandRecorder):
    """Notes every ``on_*`` hook the pipelines fetch from the recorder."""

    def __init__(self):
        super().__init__()
        self.fired = set()

    def __getattribute__(self, name):
        if name.startswith("on_"):
            object.__getattribute__(self, "fired").add(name)
        return object.__getattribute__(self, name)


def test_every_capture_hook_is_fired_by_a_hardware_path(dataset_a, dataset_b):
    """The recorder's vocabulary is what the hardware paths issue, no more.

    A hook stays only while some entry point of the hardware test reaches
    it; the replayer dispatching a command, or another hook naming it, is
    not traffic - which a static name search cannot tell apart.
    """
    a, b = dataset_a.polygons[0], dataset_b.polygons[0]
    window = pair_window(a, b)
    d = window.width / 16.0  # half a pixel at resolution 8: within the limit
    spy = HookSpy()
    with use_recorder(spy):
        for method in OVERLAP_METHODS:
            hw_test(method).intersection_verdict(a, b, window)
        test = hw_test()
        test.overlap_image(a, b, window)
        assert test.distance_verdict(a, b, window, d).value != "unsupported"
        test.distance_field_verdict(a, b, window, d)
        test.intersection_verdicts_batch([(a, b, window)])
    assert spy.fired == {n for n in vars(CommandRecorder) if n.startswith("on_")}
    replay_events(spy.events).assert_ok()


class TestZeroOverheadDefault:
    def test_no_recorder_installed_by_default(self):
        assert current_scope().recorder is None

    def test_uninstalled_recorder_sees_nothing(self, dataset_a):
        recorder = CommandRecorder()  # created but never installed
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        hw_test().intersection_verdict(a, b, pair_window(a, b))
        assert recorder.events == []


class TestRecorderRing:
    def test_max_events_bounds_memory(self, dataset_a, dataset_b):
        recorder = CommandRecorder(max_events=5)
        a, b = dataset_a.polygons[0], dataset_b.polygons[0]
        test = hw_test()
        with use_recorder(recorder):
            test.intersection_verdict(a, b, pair_window(a, b))
        assert len(recorder.events) == 5
        assert recorder.dropped > 0
        # Sequence numbers stay global: the tail of the full stream.
        seqs = [e["seq"] for e in recorder.events]
        assert seqs == sorted(seqs)
        assert seqs[-1] == recorder.dropped + len(recorder.events) - 1

    def test_bad_max_events_rejected(self):
        with pytest.raises(ValueError):
            CommandRecorder(max_events=0)

    def test_truncated_capture_fails_loudly_on_replay(self, dataset_a):
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        recorder, _ = record_pair_test("accum", a, b)
        # Drop the init event: the pid is now used before construction.
        with pytest.raises(ValueError, match="before its init"):
            replay_events(recorder.events[1:])


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path, dataset_a):
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        recorder, _ = record_pair_test("accum", a, b)
        path = tmp_path / "cap.jsonl"
        write_events(str(path), recorder.events)
        loaded = load_capture(str(path))
        assert loaded == json.loads(json.dumps(recorder.events))
        replay_events(loaded).assert_ok()

    def test_capture_with_retired_init_key_still_replays(self, dataset_a):
        # Captures written while ``raster_backend`` was a pipeline knob
        # carry it on their init events.
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        recorder, _ = record_pair_test("accum", a, b)
        events = json.loads(json.dumps(recorder.events))
        events[0]["raster_backend"] = "vector"
        replay_events(events).assert_ok()

    def test_schema_header_written_and_checked(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        write_events(str(path), CommandRecorder().events)
        first = path.read_text().splitlines()[0]
        assert json.loads(first) == {"schema": CAPTURE_SCHEMA}
        path.write_text('{"schema": "repro.obs/capture@99"}\n')
        with pytest.raises(ValueError, match="schema"):
            load_capture(str(path))

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "cap.jsonl"
        path.write_text(
            json.dumps({"schema": CAPTURE_SCHEMA}) + "\nnot json\n"
        )
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            load_capture(str(path))

    def test_streaming_capture_replayable(self, tmp_path, dataset_a):
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        path = tmp_path / "stream.jsonl"
        recorder = CommandRecorder(stream=str(path))
        test = hw_test()
        with use_recorder(recorder):
            test.intersection_verdict(a, b, pair_window(a, b))
        recorder.close()
        assert load_capture(str(path)) == json.loads(
            json.dumps(recorder.events)
        )
        replay_capture(str(path)).assert_ok()


class TestReplayDivergence:
    """A tampered capture must be *reported*, not silently accepted."""

    def test_tampered_digest_detected(self, dataset_a):
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        recorder, _ = record_pair_test("accum", a, b)
        events = json.loads(json.dumps(recorder.events))
        (minmax,) = [e for e in events if e["cmd"] == "minmax"]
        minmax["digest"] = "0" * 64
        result = replay_events(events)
        assert not result.ok
        assert any("minmax.digest" in m for m in result.mismatches)
        with pytest.raises(AssertionError, match="diverged"):
            result.assert_ok()

    def test_tampered_minmax_answer_detected(self, dataset_a):
        a, b = dataset_a.polygons[0], dataset_a.polygons[1]
        recorder, _ = record_pair_test("accum", a, b)
        events = json.loads(json.dumps(recorder.events))
        (minmax,) = [e for e in events if e["cmd"] == "minmax"]
        minmax["result"] = [-1.0, 99.0]
        result = replay_events(events)
        assert any("minmax.result" in m for m in result.mismatches)

    def test_unknown_command_rejected(self):
        with pytest.raises(ValueError, match="unknown capture command"):
            replay_events([{"seq": 0, "cmd": "warp_drive"}])


_HEADER = {"schema": CAPTURE_SCHEMA}
_INIT = {
    "seq": 0, "cmd": "init", "pid": "p0", "width": 8, "height": 8,
    "limits": {"max_aa_line_width": 10.0, "max_point_size": 10.0, "max_viewport": 2048},
    "state": {}, "window": [0.0, 0.0, 8.0, 8.0],
}


@pytest.mark.parametrize(
    "lines, complaint",
    [
        ([_HEADER, {"cmd": "init"}], "init event lacks pid, width"),
        (
            [_HEADER, _INIT, {"cmd": "clear", "pid": "p0", "buffer": "nope", "value": 0}],
            "seq 1: unknown buffer 'nope'",
        ),
        (
            [_HEADER, _INIT, {"cmd": "accum", "pid": "p0", "op": "__init__", "scale": 1}],
            "seq 1: unknown op '__init__'",
        ),
        ([_HEADER, [1, 2]], "seq 0: event is not a JSON object"),
        (
            [_HEADER, {**_INIT, "state": {"bogus": 1, "line_width": "wide"}}],
            "unknown raster-state field 'bogus'",
        ),
        ([_HEADER, {**_INIT, "state": {"line_width": "wide"}}], "cannot be 'wide'"),
        ([_HEADER, {**_INIT, "width": "8"}], "seq 0: malformed init event"),
        (
            [{"schema": "repro.obs/capture@1"}, _INIT],
            f"'repro.obs/capture@1' is not {CAPTURE_SCHEMA!r}",
        ),
    ],
    ids=[
        "missing-fields", "unknown-buffer", "unknown-accum-op", "not-an-object",
        "unknown-state-key", "state-value-type", "field-value-type", "schema-1",
    ],
)
def test_replay_cli_reports_a_malformed_capture_as_an_error(
    tmp_path, capsys, lines, complaint
):
    """A capture is outside data: *error* (exit 2) is a third outcome beside
    MATCH and DIVERGED - never a traceback, never a silent MATCH."""
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    assert obs_main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and complaint in captured.err
    assert "MATCH" not in captured.out


@pytest.mark.parametrize("method", OVERLAP_METHODS)
class TestCaptureReplayAllMethods:
    """Satellite: capture -> replay bit-identity across every overlap method.

    Each overlap method exercises a different slice of the pipeline's
    command vocabulary (accumulation transfers, blending, logic ops, depth
    test, stencil increments), so a replay divergence in any raster path
    shows up as a digest mismatch here.
    """

    @given(pair=polygon_pairs_nearby())
    @settings(max_examples=10, deadline=None)
    def test_per_pair_capture_replays_bit_identical(self, method, pair):
        a, b = pair
        recorder, verdict = record_pair_test(method, a, b)
        cmds = {e["cmd"] for e in recorder.events}
        assert {"init", "clear", "draw_edges", "minmax", "read_pixels"} <= cmds
        assert "fb_snapshot" in cmds
        replay_events(recorder.events).assert_ok()
        # And a second replay of the same events is just as deterministic.
        replay_events(json.loads(json.dumps(recorder.events))).assert_ok()

    @given(
        pairs=st.lists(polygon_pairs_nearby(), min_size=1, max_size=5),
        batch_tiles=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_tiled_batch_capture_replays_bit_identical(
        self, method, pairs, batch_tiles
    ):
        test = hw_test(method, batch_tiles=batch_tiles)
        triples = [(a, b, pair_window(a, b)) for a, b in pairs]
        recorder = CommandRecorder()
        with use_recorder(recorder):
            verdicts = test.intersection_verdicts_batch(triples)
        assert len(verdicts) == len(pairs)
        batches = [e for e in recorder.events if e["cmd"] == "tile_batch"]
        assert batches
        assert sum(len(e["flags"]) for e in batches) == len(pairs)
        assert recorder.events[0]["cmd"] == "tiled_init"
        replay_events(recorder.events).assert_ok()


class TestQueryCaptureReplay:
    """Acceptance: a recorded selection query replays bit-identically."""

    def test_selection_query_round_trip(self, tmp_path, dataset_a, dataset_b):
        engine = HardwareEngine(HardwareConfig(resolution=8))
        selection = IntersectionSelection(dataset_b, engine)
        query = dataset_a.polygons[0]
        recorder = CommandRecorder()
        with use_recorder(recorder):
            result = selection.run(query)
        assert recorder.events  # the query actually reached the hardware
        path = tmp_path / "selection.jsonl"
        write_events(str(path), recorder.events)
        replay = replay_capture(str(path))
        replay.assert_ok()
        assert replay.checks > 0
        assert result.ids == selection.run(query).ids  # engine still sane

    def test_per_pair_engine_join_round_trip(self, dataset_a, dataset_b):
        recorder = CommandRecorder()
        with use_recorder(recorder):
            IntersectionJoin(
                dataset_a,
                dataset_b,
                per_pair_engine(HardwareConfig(resolution=8)),
            ).run()
        cmds = {e["cmd"] for e in recorder.events}
        # The per-pair loop drives the full command vocabulary.
        assert {"init", "set_window", "clear", "draw_edges", "accum", "minmax"} <= cmds
        replay_events(recorder.events).assert_ok()
