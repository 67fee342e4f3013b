"""``run.py compare``: bounds, directions, and the unresolved verdict."""

import json

import compare
import run
from spec import E2E_BY_NAME


def _report(p50, spread=0.01, failed=0.0, throughput=10.0):
    return {
        "workloads": {
            "join-wp": {
                "metrics": {
                    "op_p50_cms": {"value": p50, "spread": spread},
                    "throughput_ops_s": {"value": throughput, "spread": spread},
                    "failed_frac": {"value": failed, "spread": 0.0},
                    "modeled_ms_per_op": {"value": 51.25, "spread": 0.0},
                }
            }
        }
    }


def test_worse_by_respects_direction():
    assert compare.worse_by(E2E_BY_NAME["op_p50_cms"], 100.0, 110.0) > 0
    assert compare.worse_by(E2E_BY_NAME["throughput_ops_s"], 100.0, 110.0) < 0
    assert compare.worse_by(E2E_BY_NAME["failed_frac"], 0.0, 0.0) == 0.0
    assert compare.worse_by(E2E_BY_NAME["failed_frac"], 0.0, 0.01) == float("inf")


def test_within_bound_passes_and_beyond_bound_fails():
    bound = E2E_BY_NAME["op_p50_cms"].bound
    lines, ok = compare.compare_reports(_report(100.0), _report(100.0 * (1 + bound / 2)))
    assert ok and any("unchanged" in line for line in lines)
    lines, ok = compare.compare_reports(_report(100.0), _report(100.0 * (1 + 2 * bound)))
    assert not ok and any("regressed" in line for line in lines)


def test_wide_own_spread_is_unresolved_not_unchanged():
    bound = E2E_BY_NAME["op_p50_cms"].bound
    lines, ok = compare.compare_reports(
        _report(100.0, spread=2 * bound), _report(101.0, spread=2 * bound)
    )
    assert ok
    row = next(line for line in lines if "op_p50_cms" in line)
    assert "unresolved" in row and "unchanged" not in row


def test_a_rise_in_failed_frac_or_the_modeled_clock_fails():
    _, ok = compare.compare_reports(_report(100.0), _report(100.0, failed=0.001))
    assert not ok
    changed = _report(100.0)
    changed["workloads"]["join-wp"]["metrics"]["modeled_ms_per_op"]["value"] = 51.26
    _, ok = compare.compare_reports(_report(100.0), changed)
    assert not ok


def test_cli_exit_codes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report(100.0)))
    b.write_text(json.dumps(_report(100.0)))
    assert run.main(["compare", str(a), str(b)]) == 0
    b.write_text(json.dumps(_report(200.0)))
    assert run.main(["compare", str(a), str(b)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert run.main(["compare", str(a)]) == 2


def test_merged_runs_report_medians_and_the_spread_across_runs():
    def one(seed, p50, failed):
        return {
            "workload": "join-wp", "seed": seed, "attempted": 10, "failed": failed,
            "correct": failed == 0,
            "metrics": {
                "op_p50_cms": {"value": p50, "unit": "cal_ms", "raw": 2 * p50,
                               "spread": 0.9},
                "failed_frac": {"value": failed / 10, "unit": "fraction"},
            },
        }

    runs = [one(1, 100.0, 0), one(2, 120.0, 1), one(3, 110.0, 0), one(4, 104.0, 0)]
    merged = run.merge_runs(runs)
    assert merged["seed"] == [1, 2, 3, 4]
    assert (merged["attempted"], merged["failed"], merged["correct"]) == (40, 1, False)
    p50 = merged["metrics"]["op_p50_cms"]
    assert p50["value"] == 107.0 and p50["raw"] == 214.0
    assert p50["runs"] == [100.0, 120.0, 110.0, 104.0]
    # Across the four runs, not the 0.9 one run saw across its segments.
    assert 0.0 < p50["spread"] < 0.2
    # One failed op in one run still shows.
    assert merged["metrics"]["failed_frac"]["value"] == 0.1
    assert run.merge_runs(runs[:1]) is runs[0]
