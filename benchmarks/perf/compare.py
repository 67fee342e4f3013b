"""``run.py compare A.json B.json``: did B get worse than A, and by how much.

Reads two full-run reports (``BENCH.json``) and, per workload and
end-to-end metric, prints both values, the relative difference and the
metric's bound.  Used for the A/A check (two runs of one commit must
agree) and, later, for parent against change.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from spec import END_TO_END, EndToEnd


def worse_by(metric: EndToEnd, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    if a == 0.0:
        return 0.0 if b == a else float("inf") * (1 if b > a else -1)
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def verdict(metric: EndToEnd, worse: float, own_spread: float) -> str:
    """``regressed`` / ``unresolved`` / ``better`` / ``unchanged``.

    A metric whose own inter-quartile spread across segments exceeds its
    bound cannot support "unchanged": the run could not have seen a
    change of the size the bound forbids.
    """
    if worse > metric.bound:
        return "regressed"
    if metric.bound > 0.0 and own_spread > metric.bound:
        return "unresolved"
    if worse < -metric.bound:
        return "better"
    return "unchanged"


def compare_reports(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Tuple[List[str], bool]:
    """Table lines plus whether B is acceptable against A."""
    lines = [
        f"{'workload':<18} {'metric':<18} {'A':>14} {'B':>14} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    ]
    ok = True
    for name, report_a in a["workloads"].items():
        report_b = b["workloads"].get(name)
        if report_b is None:
            lines.append(f"{name:<18} missing from B")
            ok = False
            continue
        for metric in END_TO_END:
            entry_a = report_a["metrics"].get(metric.name)
            entry_b = report_b["metrics"].get(metric.name)
            if entry_a is None and entry_b is None:
                continue
            if entry_a is None or entry_b is None:
                lines.append(f"{name:<18} {metric.name:<18} reported on one side only")
                ok = False
                continue
            worse = worse_by(metric, entry_a["value"], entry_b["value"])
            own = max(entry_a.get("spread", 0.0), entry_b.get("spread", 0.0))
            result = verdict(metric, worse, own)
            ok = ok and result != "regressed"
            lines.append(
                f"{name:<18} {metric.name:<18} {entry_a['value']:>14.6g} "
                f"{entry_b['value']:>14.6g} {worse:>+9.3f} {metric.bound:>6.2f}  "
                f"{result}"
            )
    return lines, ok


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        lines, ok = compare_reports(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print("PASS" if ok else "FAIL: a metric is worse than its bound allows")
    return 0 if ok else 1
