"""A command whose stdout reader stops early ends quietly (``obs.cli``)."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import Tracer

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_closed_pipe_ends_the_command_without_a_traceback(tmp_path):
    # The --tree report of 3 000 spans is about 130 kB, more than a pipe
    # holds, so the command is still writing when its reader goes.
    tracer = Tracer()
    for op in range(1500):
        with tracer.span("bench.op", op=op):
            with tracer.span("stage.geometry"):
                pass
    spans = tmp_path / "spans.jsonl"
    tracer.export(str(spans))
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.obs", "report", str(spans), "--tree"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline().startswith(b"spans: 3000")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_a_broken_pipe_that_is_not_stdout_keeps_its_traceback():
    # stdout's reader is still there: the broken pipe is some other
    # stream's (a socket's), a failure the command must not hide.
    code = (
        "from repro.obs.cli import run_main\n"
        "def main():\n"
        "    print('before')\n"
        "    raise BrokenPipeError(32, 'Broken pipe')\n"
        "raise SystemExit(run_main(main))\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == b"before\n"
    err = proc.stderr.decode()
    assert "Traceback" in err and "BrokenPipeError" in err, err
