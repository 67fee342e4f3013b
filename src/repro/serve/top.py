"""``python -m repro.serve top``: a live terminal dashboard over the wire.

Polls a running front-end's ``health`` and ``metrics`` envelopes on an
interval and renders one screen an operator can leave open: the
readiness verdict, queue depth / inflight, the per-op **windowed**
p50/p95/p99 and request rates next to the **cumulative** ones (the pair
that makes a regression-happening-now visible while the lifetime
aggregate still looks fine), SLO burn rates with their alert states, and
the engine-pool worker roster with heartbeats.

Two one-shot modes for scripts and CI:

* ``--once`` - fetch and render a single frame, then exit (the smoke
  test: does the dashboard build against a live server?);
* ``--once --json`` - emit the raw ``{"health": ..., "metrics": ...}``
  document instead of the rendering (the machine-readable mode).

Pure stdlib, no curses: the live loop repaints with ANSI clear-screen,
so it works in any terminal CI tails.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, List, Mapping, Optional

from ..obs.metrics import Histogram, parse_key
from .server import send_envelope

#: ANSI "clear screen, cursor home" the live loop repaints with.
CLEAR = "\x1b[2J\x1b[H"


def fetch_snapshot(
    host: str, port: int, timeout: Optional[float] = 30.0
) -> Dict[str, Any]:
    """One poll: the ``health`` and ``metrics`` envelope bodies."""
    health = send_envelope(host, port, {"kind": "health"}, timeout=timeout)
    metrics = send_envelope(host, port, {"kind": "metrics"}, timeout=timeout)
    if health.get("kind") != "health":
        raise ValueError(f"unexpected reply to health poll: {health!r}")
    if metrics.get("kind") != "metrics":
        raise ValueError(f"unexpected reply to metrics poll: {metrics!r}")
    return {"health": health["health"], "metrics": metrics["snapshot"]}


# -- rendering ----------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.1f}"


def _cumulative_by_op(
    snapshot: Mapping[str, Any],
) -> Dict[str, Dict[str, Any]]:
    """Per-op lifetime stats from the registry snapshot."""
    out: Dict[str, Dict[str, Any]] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_key(key)
        if name != "serve_requests":
            continue
        d = dict(labels)
        entry = out.setdefault(d.get("op", "?"), {"requests": 0, "ok": 0})
        entry["requests"] += value
        if d.get("status") == "ok":
            entry["ok"] += value
    for key, hist in snapshot.get("histograms", {}).items():
        name, labels = parse_key(key)
        if name != "serve_request_duration_s":
            continue
        op = dict(labels).get("op", "?")
        out.setdefault(op, {"requests": 0, "ok": 0})["hist"] = Histogram.from_snapshot(hist)
    return out


def render(doc: Mapping[str, Any], now: Optional[float] = None) -> str:
    """One dashboard frame from a :func:`fetch_snapshot` document."""
    health = doc["health"]
    snapshot = doc["metrics"]
    lines: List[str] = []
    verdict = health.get("verdict", "?")
    banner = f"repro.serve  [{verdict.upper()}]"
    if now is not None:
        banner += time.strftime("  %H:%M:%S", time.localtime(now))
    lines.append(banner)
    for reason in health.get("degraded_reasons", []):
        lines.append(f"  !! {reason}")
    lines.append(
        f"queue {health.get('queue_depth', 0)}/{health.get('max_queue', 0)}"
        f"   inflight {health.get('inflight', 0)}"
        f"   windowed {'on' if health.get('windowed') else 'off'}"
    )

    # Per-op table: windowed (happening now) vs cumulative (lifetime).
    window = health.get("window", {})
    win_hists = window.get("histograms", {})
    win_counters = window.get("counters", {})
    cumulative = _cumulative_by_op(snapshot)
    ops = sorted(
        set(cumulative)
        | {dict(parse_key(k)[1]).get("op", "?") for k in win_hists}
    )
    if ops:
        window_s = window.get("window_s")
        span = f"{window_s:g}s window" if window_s else "window off"
        lines.append("")
        lines.append(
            f"{'op':<16} {'rate/s':>7} {'w_p50':>8} {'w_p95':>8} {'w_p99':>8}"
            f" | {'total':>7} {'c_p50':>8} {'c_p95':>8} {'c_p99':>8}  ({span},"
            " latencies ms)"
        )
        for op in ops:
            win = win_hists.get(f"serve_window_request_duration_s{{op={op}}}", {})
            rate = sum(
                c.get("rate", 0.0)
                for key, c in win_counters.items()
                if parse_key(key)[0] == "serve_window_requests"
                and dict(parse_key(key)[1]).get("op") == op
            )
            cum = cumulative.get(op, {})
            hist = cum.get("hist", Histogram())
            lines.append(
                f"{op:<16} {rate:>7.2f}"
                f" {_fmt_ms(win.get('p50', 0.0))} {_fmt_ms(win.get('p95', 0.0))}"
                f" {_fmt_ms(win.get('p99', 0.0))} | {cum.get('requests', 0):>7}"
                f" {_fmt_ms(hist.quantile(0.50))}"
                f" {_fmt_ms(hist.quantile(0.95))}"
                f" {_fmt_ms(hist.quantile(0.99))}"
            )

    # SLO burn rates and alerts.
    slo = health.get("slo", {})
    if slo:
        lines.append("")
        lines.append(
            f"{'SLO':<16} {'state':<8} {'burn_fast':>9} {'burn_slow':>9}"
            f" {'budget':>7}"
        )
        for name in sorted(slo):
            entry = slo[name]
            lines.append(
                f"{name:<16} {entry.get('state', '?'):<8}"
                f" {entry.get('burn_fast', 0.0):>9.2f}"
                f" {entry.get('burn_slow', 0.0):>9.2f}"
                f" {entry.get('budget', 0.0):>7.3f}"
            )
        firing = health.get("firing_alerts", [])
        log = health.get("alert_log", {})
        lines.append(
            f"alerts firing: {', '.join(firing) if firing else 'none'}"
            f"   (log: {log.get('events', 0)} event(s))"
        )

    # Worker roster.
    workers = health.get("workers", [])
    if workers:
        lines.append("")
        lines.append(f"{'worker':<8} {'served':>8}  last seen")
        for entry in workers:
            ago = entry.get("last_seen_s_ago")
            seen = f"{ago:6.1f}s ago" if ago is not None else "-"
            lines.append(
                f"{entry.get('worker', '?'):<8}"
                f" {entry.get('requests_served', 0):>8}  {seen}"
            )
    return "\n".join(lines)


# -- the loop -----------------------------------------------------------------


def run_top(
    host: str,
    port: int,
    interval_s: float = 2.0,
    once: bool = False,
    as_json: bool = False,
    timeout: Optional[float] = 30.0,
) -> int:
    """Poll and render until interrupted (or once).  Returns an exit code."""
    try:
        while True:
            try:
                doc = fetch_snapshot(host, port, timeout=timeout)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if once:
                if as_json:
                    print(json.dumps(doc, indent=2, sort_keys=True))
                else:
                    print(render(doc, now=time.time()))
                return 0 if doc["health"].get("ready") else 1
            print(CLEAR + render(doc, now=time.time()), flush=True)
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0


__all__ = ["CLEAR", "fetch_snapshot", "render", "run_top"]
