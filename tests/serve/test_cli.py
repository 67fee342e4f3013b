"""The serve CLI refuses an out-of-range service flag as a usage error."""

import os

import pytest

from repro.serve.__main__ import main as serve_main

BAD_FLAGS = {
    "workers-0": (["--workers", "0"], "pool size"),
    "interval-level-13": (["--interval-level", "13"], "interval_level"),
    "resolution-0": (["--resolution", "0"], "resolution"),
    "max-queue-negative": (["--max-queue", "-1"], "max_queue"),
    "window-buckets-0": (["--windowed", "--window-buckets", "0"], "window_buckets"),
    "slo-availability-1.5": (["--windowed", "--slo-availability", "1.5"], "target"),
    # NaN compares false with every bound: each of these used to pass and
    # either crash every request or silently switch a facility off.
    "window-width-nan": (["--windowed", "--window-width", "nan"], "window_width_s"),
    "window-width-inf": (["--windowed", "--window-width", "inf"], "window_width_s"),
    "slo-fast-nan": (["--windowed", "--slo-fast", "nan"], "slo_fast_s"),
    "slo-latency-nan": (["--windowed", "--slo-latency", "nan"], "threshold_s"),
    "burn-threshold-nan": (["--windowed", "--burn-threshold", "nan"], "burn_threshold"),
    "burn-threshold-inf": (["--windowed", "--burn-threshold", "inf"], "burn_threshold"),
    "slow-threshold-nan": (
        ["--slowlog-out", os.devnull, "--slow-threshold", "nan"], "threshold_s"
    ),
    "timeout-nan": (["--timeout", "nan"], "timeout_s"),
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
