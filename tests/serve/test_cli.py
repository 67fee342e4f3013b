"""The serve CLI refuses an out-of-range or removed flag or command as a
usage error (exit 2), and a client command names a server that drops its
connection."""

import os
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.serve.__main__ import main as serve_main

#: Flags the service no longer takes: no caller set any of them to a value
#: other than its default, which is now fixed.  Each is refused by name.
#: The keys of the value-checked ones name the value the flag once refused.
REMOVED_FLAGS = {
    "engine": ["--engine", "software"],
    "warm": ["--warm"],
    "cache": ["--cache"],
    "trace": ["--trace"],
    "out": ["--out", os.devnull],
    "interval-level-13": ["--interval-level", "13"],
    "resolution-0": ["--resolution", "0"],
    "window-buckets-0": ["--window-buckets", "0"],
    "slo-availability-1.5": ["--slo-availability", "1.5"],
    "window-width-nan": ["--window-width", "nan"],
    "window-width-inf": ["--window-width", "inf"],
    "slo-fast-nan": ["--slo-fast", "nan"],
    "slo-slow": ["--slo-slow", "60"],
    "slo-latency-nan": ["--slo-latency", "nan"],
    "burn-threshold-nan": ["--burn-threshold", "nan"],
    "burn-threshold-inf": ["--burn-threshold", "inf"],
}

BAD_FLAGS = {
    "workers-0": (["--workers", "0"], "pool size"),
    "max-queue-negative": (["--max-queue", "-1"], "max_queue"),
    "slow-threshold-nan": (
        ["--slowlog-out", os.devnull, "--slow-threshold", "nan"], "threshold_s"
    ),
    # NaN compares false with every bound: the check must still refuse it.
    "timeout-nan": (["--timeout", "nan"], "timeout_s"),
    # The trailing bad --max-queue makes a build that still took the
    # removed flag exit at once, instead of serving or running a load.
    **{
        case: (
            [*flags, "--max-queue", "-1"],
            f"unrecognized arguments: {' '.join(flags)}",
        )
        for case, flags in REMOVED_FLAGS.items()
    },
}


@pytest.mark.parametrize("command", ["serve", "loadgen"])
@pytest.mark.parametrize("case", sorted(BAD_FLAGS))
def test_bad_service_flag_exits_2_with_message(command, case, capsys):
    flags, message = BAD_FLAGS[case]
    with pytest.raises(SystemExit) as exit_info:
        serve_main([command, *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


#: loadgen's own flags: checked before a service is built.
BAD_LOAD_FLAGS = {
    "rate-negative": (["--rate", "-1"], "rate"),
    "rate-nan": (["--rate", "nan"], "rate"),
    "rate-inf": (["--rate", "inf"], "rate"),
    "duration-0": (["--duration", "0"], "duration_s"),
    "duration-inf": (["--duration", "inf"], "duration_s"),
}


@pytest.mark.parametrize("case", sorted(BAD_LOAD_FLAGS))
def test_bad_load_flag_exits_2_with_message(case, capsys):
    flags, message = BAD_LOAD_FLAGS[case]
    with pytest.raises(SystemExit) as exit_info:
        serve_main(["loadgen", *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"{message} must be positive and finite" in err
    assert "Traceback" not in err


#: Client flags: refused while parsing, before any connection is made.
#: ``--port 1`` has no listener, so a flag that slipped through would
#: come back as a return code rather than a usage error.
BAD_CLIENT_FLAGS = {
    "ping-timeout-negative": (["ping", "--timeout", "-1"], "argument --timeout:"),
    "ping-timeout-nan": (["ping", "--timeout", "nan"], "argument --timeout:"),
    "top-timeout-negative": (["top", "--timeout", "-1"], "argument --timeout:"),
    # Removed: the offline slowlog summary and the live dashboard's
    # flags (top is one poll that prints JSON).
    "slowlog": (["slowlog", os.devnull], "invalid choice: 'slowlog'"),
    "top-once": (["top", "--once"], "unrecognized arguments: --once"),
    "top-json": (["top", "--json"], "unrecognized arguments: --json"),
    "top-interval": (["top", "--interval", "2"], "unrecognized arguments: --interval 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_CLIENT_FLAGS))
def test_bad_client_flag_exits_2_naming_the_flag(case, capsys):
    argv, message = BAD_CLIENT_FLAGS[case]
    with pytest.raises(SystemExit) as exit_info:
        serve_main([*argv, "--port", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_top_fetch_error_goes_to_stderr(capsys):
    # top's output is parsed as JSON: an error line on stdout would turn
    # a refused connection into a parse error downstream.
    assert serve_main(["top", "--port", "1", "--timeout", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_ping_names_a_server_that_drops_the_connection():
    # The server accepts and resets the connection at once (SO_LINGER 0).
    # The command fails with the socket's error on stderr: a dead server
    # must not look like a stdout reader that stopped early.
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def drop_one():
            conn, _ = listener.accept()
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()

        dropper = threading.Thread(target=drop_one, daemon=True)
        dropper.start()
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "ping",
             "--port", str(listener.getsockname()[1]), "--timeout", "10"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        dropper.join(timeout=10)
    assert proc.returncode != 0
    assert proc.stdout == b""
    err = proc.stderr.decode()
    assert "Traceback" in err, err
    assert any(
        name in err
        for name in ("ConnectionResetError", "ConnectionError", "BrokenPipeError")
    ), err
