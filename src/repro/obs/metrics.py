"""Unified metrics: counters, gauges, and exactly-mergeable histograms.

The repo's telemetry was previously fragmented across ad-hoc containers
(:class:`~repro.query.costs.CostBreakdown`,
:class:`~repro.core.stats.RefinementStats`,
:class:`~repro.gpu.counters.CostCounters`, tracer spans) with no
distributions and no single mergeable artifact.  This module is the common
substrate those layers now also report into:

* :class:`Counter` - monotonically accumulating value (int or float);
* :class:`Gauge` - last-set value;
* :class:`Histogram` - **log-bucketed** distribution with *fixed* bucket
  boundaries (powers of two, derived from the value's binary exponent), so
  two histograms of the same family always share boundaries and merge
  *exactly*: merged bucket counts are integer sums, and the running sum is
  kept as Shewchuk-style exact partials, making ``merge(h1, h2)``
  indistinguishable from observing the concatenated stream - in any order;
* :class:`MetricsRegistry` - named instruments with label support
  (``registry.histogram("hw_test_duration_s", method="accum")``),
  a snapshot, a JSON exporter, and a scrape-safe
  Prometheus text exposition (``# HELP`` / ``# TYPE`` lines, label
  values quoted and escaped per the exposition format).

Instrumentation sites find the registry of the run they belong to in the
ambient :class:`~repro.obs.scope.ObsScope` (``current_scope().registry``)
and stay zero-overhead by default: with no registry in scope, the hot path
performs one ``ContextVar`` read and a ``None`` check - no allocations, no
dict lookups.

The module deliberately imports nothing from the rest of :mod:`repro`, so
every layer (gpu, core, query, bench) may depend on it without cycles.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

#: Version tag of the snapshot schema (bump on incompatible change).
SNAPSHOT_SCHEMA = "repro.obs/metrics@1"

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]


# -- exact streaming summation ----------------------------------------------


def _partials_add(partials: List[float], x: float) -> None:
    """Add ``x`` into a list of non-overlapping float partials, exactly.

    Shewchuk's algorithm (the one behind :func:`math.fsum`): after the
    update, ``partials`` represents the *exact* real sum of everything ever
    added.  Because the represented value is exact, accumulation is
    associative and commutative - the property the histogram merge
    guarantees lean on.
    """
    if not math.isfinite(x):
        raise ValueError(f"observations must be finite, got {x!r}")
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def _canonical_partials(partials: List[float]) -> List[float]:
    """Canonical non-overlapping expansion of the exact value of ``partials``.

    Repeatedly extracts the correctly-rounded remainder, so the result
    depends only on the exact real value - not on the order observations
    (or merges) arrived in.  This is what makes snapshots of equal
    histograms bit-identical.
    """
    rest = list(partials)
    out: List[float] = []
    while True:
        s = math.fsum(rest)
        if s == 0.0:
            return out
        out.append(s)
        _partials_add(rest, -s)


# -- instruments -------------------------------------------------------------


class Counter:
    """A monotonically accumulating value.

    Thread-safe: ``value += amount`` is a read-modify-write, and the
    threaded query service increments shared counters from many worker
    threads at once - an unguarded update loses counts.  Each instrument
    owns a lock; uncontended acquisition is cheap, and the
    no-registry-installed fast path never reaches an instrument at all.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount!r}")
        with self._lock:
            self.value += amount


class Gauge:
    """A last-set value."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value: Union[int, float] = 0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A log-bucketed distribution with fixed, universal bucket boundaries.

    Bucket ``e`` counts observations in ``[2**(e-1), 2**e)`` - the bucket
    index is simply the value's binary exponent (``math.frexp``), so every
    histogram in the process shares the same boundary set by construction
    and any two histograms merge without rebinning.  Zero observations land
    in a dedicated zero bucket; negative or non-finite observations raise.

    ``sum`` is accumulated as exact non-overlapping partials, so the
    reported total is the correctly-rounded exact sum of all observations -
    identical whether a stream was observed into one histogram or split
    across window buckets and merged, in any merge order.
    """

    __slots__ = ("count", "zeros", "buckets", "_partials", "min", "max", "_lock")

    def __init__(self) -> None:
        self.count: int = 0
        self.zeros: int = 0
        self.buckets: Dict[int, int] = {}
        self._partials: List[float] = []
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        value = float(value)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(
                f"histogram observations must be finite and >= 0, got {value!r}"
            )
        with self._lock:
            self.count += 1
            if value == 0.0:
                self.zeros += 1
            else:
                e = math.frexp(value)[1]
                self.buckets[e] = self.buckets.get(e, 0) + 1
                _partials_add(self._partials, value)
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def sum(self) -> float:
        """Correctly-rounded exact sum of all observations."""
        with self._lock:
            return math.fsum(self._partials)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Conservative (upper-bound) quantile estimate from the buckets.

        The bucket boundaries are fixed powers of two, so the estimate for
        a rank landing in bucket ``e`` is ``min(2**e, max)`` - never below
        the true quantile, never above the largest observation.  Good
        enough for SLO gating (is p99 under the budget?); exact per-request
        latencies stay with the load generator, which records them raw.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, math.ceil(q * self.count))
            cumulative = self.zeros
            if rank <= cumulative:
                return 0.0
            assert self.max is not None
            for e in sorted(self.buckets):
                cumulative += self.buckets[e]
                if rank <= cumulative:
                    return min(2.0**e, self.max)
            return self.max

    def summary(self) -> Dict[str, float]:
        """Count / sum / mean / min / max plus p50, p95, p99 estimates."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, Any]) -> "Histogram":
        """The histogram one snapshot entry describes (``serve top`` reads
        the server's histograms this way)."""
        hist = cls()
        hist._merge_snapshot(snap)
        return hist

    def _merge(self, other: "Histogram") -> None:
        self._merge_snapshot(other._snapshot())

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            out: Dict[str, Any] = {
                "count": self.count,
                "sum": math.fsum(self._partials),
                # Exact partials in canonical form: floats round-trip through
                # JSON bit-exactly (shortest repr), so a snapshot merge is as
                # exact as a live one, and equal histograms - however their
                # observations were split or merge-ordered - snapshot
                # identically.
                "sum_parts": _canonical_partials(self._partials),
                "zeros": self.zeros,
                "buckets": {str(e): n for e, n in sorted(self.buckets.items())},
            }
            if self.min is not None:
                out["min"] = self.min
                out["max"] = self.max
            return out

    def _merge_snapshot(self, snap: Mapping[str, Any]) -> None:
        with self._lock:
            self.count += snap["count"]
            self.zeros += snap["zeros"]
            for key, n in snap["buckets"].items():
                e = int(key)
                self.buckets[e] = self.buckets.get(e, 0) + n
            for part in snap["sum_parts"]:
                _partials_add(self._partials, part)
            if "min" in snap:
                self.min = (
                    snap["min"] if self.min is None else min(self.min, snap["min"])
                )
                self.max = (
                    snap["max"] if self.max is None else max(self.max, snap["max"])
                )


Instrument = Union[Counter, Gauge, Histogram]

_KIND_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


# -- the registry ------------------------------------------------------------


def _label_items(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, labels: LabelItems) -> str:
    """Canonical ``name{k=v,...}`` string for a metric key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> MetricKey:
    """Inverse of :func:`format_key`."""
    if "{" not in key:
        return key, ()
    name, _, rest = key.partition("{")
    if not rest.endswith("}"):
        raise ValueError(f"malformed metric key {key!r}")
    body = rest[:-1]
    labels: List[Tuple[str, str]] = []
    if body:
        for item in body.split(","):
            k, sep, v = item.partition("=")
            if not sep:
                raise ValueError(f"malformed label {item!r} in key {key!r}")
            labels.append((k, v))
    return name, tuple(labels)


class MetricsRegistry:
    """Named counters, gauges, and histograms with label support.

    Instruments are created on first use and addressed by
    ``(name, sorted labels)``; asking for an existing name with a different
    instrument kind raises (one family, one kind).
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Instrument] = {}
        # Guards instrument creation and the snapshot's copy of the
        # instrument table; the instruments themselves carry their
        # own locks for value updates, so hot-path increments never
        # contend on the registry.
        self._lock = threading.RLock()

    # -- instrument access -----------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, Any]) -> Instrument:
        key = (name, _label_items(labels))
        with self._lock:
            found = self._metrics.get(key)
            if found is None:
                found = cls()
                self._metrics[key] = found
                return found
        if type(found) is not cls:
            raise TypeError(
                f"metric {format_key(*key)!r} is a {_KIND_NAMES[type(found)]},"
                f" not a {_KIND_NAMES[cls]}"
            )
        return found

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)  # type: ignore[return-value]

    # -- snapshot ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, versioned snapshot of every instrument."""
        counters: Dict[str, Any] = {}
        gauges: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        with self._lock:
            metrics = dict(self._metrics)
        for key in sorted(metrics):
            metric = metrics[key]
            skey = format_key(*key)
            if isinstance(metric, Counter):
                counters[skey] = metric.value
            elif isinstance(metric, Gauge):
                gauges[skey] = metric.value
            else:
                histograms[skey] = metric._snapshot()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    # -- exporters ---------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def prometheus_text(self) -> str:
        """Prometheus text exposition, safe to scrape.

        Emits ``# HELP`` and ``# TYPE`` per family; label values are
        quoted with backslash (``\\``), double-quote (``"``), and
        newline escaped per the exposition format, so hostile label
        values (paths, error messages) cannot corrupt the stream.
        Histograms render cumulative ``_bucket{le="..."}`` series over
        the fixed power-of-two boundaries actually populated, plus
        ``_sum`` and ``_count``.
        """
        with self._lock:
            metrics = dict(self._metrics)
        by_family: Dict[str, List[Tuple[LabelItems, Instrument]]] = {}
        for (name, labels), metric in sorted(metrics.items()):
            by_family.setdefault(name, []).append((labels, metric))
        lines: List[str] = []
        for name, series in by_family.items():
            kind = _KIND_NAMES[type(series[0][1])]
            lines.append(f"# HELP {name} {_escape_help(metric_help(name))}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, metric in series:
                if isinstance(metric, (Counter, Gauge)):
                    lines.append(
                        f"{_prom_series(name, labels)} {_fmt_num(metric.value)}"
                    )
                    continue
                cumulative = metric.zeros
                for e in sorted(metric.buckets):
                    cumulative += metric.buckets[e]
                    le = labels + (("le", _fmt_num(2.0**e)),)
                    lines.append(
                        f"{_prom_series(name + '_bucket', le)} {cumulative}"
                    )
                inf = labels + (("le", "+Inf"),)
                lines.append(
                    f"{_prom_series(name + '_bucket', inf)} {metric.count}"
                )
                lines.append(
                    f"{_prom_series(name + '_sum', labels)} {_fmt_num(metric.sum)}"
                )
                lines.append(
                    f"{_prom_series(name + '_count', labels)} {metric.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_num(value: Union[int, float]) -> str:
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- Prometheus exposition helpers --------------------------------------------
#
# https://prometheus.io/docs/instrumenting/exposition_formats/: label
# values escape backslash, double-quote, and line-feed; HELP text escapes
# backslash and line-feed.  Anything less and a hostile label value (an
# error message, a path) splits the line and corrupts the scrape.


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_series(name: str, labels: LabelItems) -> str:
    """``name{k="escaped v",...}`` - the scrapeable series identifier."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return f"{name}{{{inner}}}"


#: Family help strings surfaced on ``# HELP`` lines; register project
#: families here (unknown names get a generic line, never a missing one).
METRIC_HELP: Dict[str, str] = {
    "serve_requests": "Terminal request outcomes by op and status.",
    "serve_wait_duration_s": "Seconds an ok request waited for an engine.",
    "serve_exec_duration_s": "Seconds an ok request spent executing.",
    "serve_request_duration_s": "Total seconds an ok request spent in the service.",
    "serve_queue_depth": "Requests currently waiting for an engine.",
    "serve_inflight": "Requests currently executing.",
    "serve_queue_capacity": "Admission queue bound (arrivals beyond it shed).",
    "serve_workers": "Engine-pool width of the service.",
    "serve_slow_requests": "Requests captured by the slow-query log.",
    "funnel": "EXPLAIN funnel stage counts by pipeline.",
    "cache_hits": "Cache hits by cache layer and op.",
    "cache_misses": "Cache misses by cache layer and op.",
    "cache_evictions": "Cache evictions by cache layer and op.",
    "hw_verdicts": "Hardware refinement verdicts by op/method/verdict.",
}


def metric_help(name: str) -> str:
    return METRIC_HELP.get(name, f"repro metric family {name}.")
