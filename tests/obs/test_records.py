"""The one record log and the one JSONL reader every retained record shares."""

import io
import json
import re
import sys
import threading

import pytest

from repro.obs.capture import load_capture
from repro.obs.records import MAX_RECORDS, RecordLog, read_jsonl
from repro.obs.report import load_spans
from repro.obs.slo import load_alert_log
from repro.serve import load_slowlog


class TestRecordLog:
    def test_bound_eviction_and_counts(self):
        log = RecordLog()
        for i in range(MAX_RECORDS + 3):
            log.append({"i": i})
        assert len(log) == MAX_RECORDS
        assert log.added == MAX_RECORDS + 3
        assert log.evicted == 3
        records = log.records()
        assert records[0] == {"i": 3}
        assert records[-1] == {"i": MAX_RECORDS + 2}

    def test_export_writes_the_retained_records(self, tmp_path):
        log = RecordLog()
        assert log.export(str(tmp_path / "empty.jsonl")) == 0
        assert (tmp_path / "empty.jsonl").read_text() == ""
        log.append({"b": 1, "a": [2]})
        log.append({"c": None})
        path = str(tmp_path / "out.jsonl")
        assert log.export(path) == 2
        assert read_jsonl(path) == log.records()
        buf = io.StringIO()
        assert log.export(buf) == 2
        assert buf.getvalue().splitlines()[0] == '{"a": [2], "b": 1}'

    def test_file_backed_log_appends_to_what_is_there(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"earlier": true}\n')
        log = RecordLog(str(path))
        log.append({"i": 0})
        log.append({"i": 1})
        assert read_jsonl(str(path)) == [{"earlier": True}, {"i": 0}, {"i": 1}]

    def test_thread_hammer_on_a_file_backed_log(self, tmp_path):
        """Concurrent appenders never interleave partial lines, and the
        file holds exactly one line per counted record."""
        path = tmp_path / "hammer.jsonl"
        log = RecordLog(str(path))
        payload = "x" * 4096  # longer than one buffered write

        def append(worker):
            for i in range(200):
                log.append({"worker": worker, "i": i, "payload": payload})

        threads = [threading.Thread(target=append, args=(w,)) for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        lines = path.read_text().splitlines()
        assert len(lines) == log.added == 1600
        records = [json.loads(line) for line in lines]
        for worker in range(8):
            assert [r["i"] for r in records if r["worker"] == worker] == list(range(200))


# One line each format's writer produced before the formats shared a writer
# and a reader (a shed request, so the slowlog record is short).
SPAN = (
    '{"attributes": {"op": "join", "status": "shed"}, "duration_s": 2.3399999918183312e-05,'
    ' "name": "request", "parent_id": null, "span_id": "5eed0000c0ffee00:1",'
    ' "start_unix_s": 1792107027.5535486, "trace_id": "5eed0000c0ffee00"}'
)
SLOWLOG = (
    '{"exec_s": 0.0, "logged_unix_s": 1792107027.553597, "op": "join",'
    ' "over_deadline_stages": [], "queue_depth": 0, "request": {"op": "join",'
    ' "schema": "repro.serve/request@1", "trace_id": "5eed0000c0ffee00"},'
    ' "schema": "repro.serve/slowlog@1", "spans": [{"attributes": {"op": "join",'
    ' "status": "shed"}, "duration_s": 2.3399999918183312e-05, "name": "request",'
    ' "parent_id": null, "span_id": 1, "start_unix_s": 1792107027.5535486,'
    ' "trace_id": "5eed0000c0ffee00"}], "status": "shed", "total_s": 5.825100015499629e-05,'
    ' "trace_id": "5eed0000c0ffee00", "wait_s": 0.0}'
)
ALERT = (
    '{"at_s": 12.5, "burn_fast": 99.99999999999991, "burn_slow": 99.99999999999991,'
    ' "burn_threshold": 2.0, "objective": {"kind": "availability", "name": "availability",'
    ' "target": 0.99}, "schema": "repro.obs/alerts@1", "slo": "availability",'
    ' "transition": "firing"}'
)
CAPTURE_HEADER = '{"schema": "repro.obs/capture@2"}'
CAPTURE_EVENT = '{"buffer": "color", "cmd": "clear", "pid": "p0", "seq": 1, "value": 0.0}'

#: loader, the lines of a good file, the records it loads, and one line
#: that breaks the format's own check with the complaint it raises.
FORMATS = {
    "spans": (load_spans, [SPAN], [SPAN], '{"span_id": 1}', "span missing keys"),
    "slowlog": (
        load_slowlog, [SLOWLOG], [SLOWLOG], '{"schema": "other"}',
        "unsupported slowlog schema 'other'",
    ),
    "alerts": (
        load_alert_log, [ALERT], [ALERT], '{"transition": "firing"}',
        "unsupported alert schema None",
    ),
    "capture": (
        load_capture, [CAPTURE_HEADER, CAPTURE_EVENT], [CAPTURE_EVENT],
        None, None,
    ),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_parent_format_lines_load_unchanged(fmt, tmp_path):
    loader, lines, records, _, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.jsonl"
    path.write_text("\n".join(lines) + "\n\n")
    assert loader(str(path)) == [json.loads(line) for line in records]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_a_bad_json_line_names_its_file_and_line(fmt, tmp_path):
    loader, lines, _, _, _ = FORMATS[fmt]
    path = tmp_path / f"{fmt}.jsonl"
    path.write_text(lines[0] + "\n\n{not json\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not valid JSON"):
        loader(str(path))


@pytest.mark.parametrize("fmt", sorted(f for f in FORMATS if FORMATS[f][3]))
def test_each_format_keeps_its_own_check(fmt, tmp_path):
    loader, lines, _, bad, complaint = FORMATS[fmt]
    path = tmp_path / f"{fmt}.jsonl"
    path.write_text(lines[0] + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {re.escape(complaint)}"):
        loader(str(path))


def test_an_open_stream_is_named_by_what_it_has():
    with pytest.raises(ValueError, match=r"^<stream>:1: not valid JSON"):
        read_jsonl(io.StringIO("nope\n"))
    assert read_jsonl(io.StringIO("1\n\n[2]\n")) == [1, [2]]
