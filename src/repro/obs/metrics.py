"""Unified metrics: one aggregate table, exactly-mergeable histograms.

* :class:`Histogram` - **log-bucketed** distribution with *fixed* bucket
  boundaries (powers of two, derived from the value's binary exponent), so
  two histograms of the same family always share boundaries and merge
  *exactly*: merged bucket counts are integer sums, and the running sum is
  kept as Shewchuk-style exact partials, making ``merge(h1, h2)``
  indistinguishable from observing the concatenated stream - in any order;
* :class:`Aggregates` - the one representation of an aggregate: counter
  sums, last-set gauges and histograms keyed by :func:`metric_key` tuples,
  with one :meth:`~Aggregates.merge`.  A writer's :class:`Accumulator`, the
  registry's folded state and each bucket of a rolling window
  (:mod:`repro.obs.window`) are these tables;
* :class:`MetricsRegistry` - label-addressed series, a JSON-able
  snapshot, and a scrape-safe Prometheus text exposition.

Writers commit one record; the registry folds on read.  A site finds its
run's registry in the ambient :class:`~repro.obs.scope.ObsScope` and
commits each whole record - a run, a request, a batch - to its thread's
:class:`Accumulator` under one lock acquire, keyed by labels built once per
call site.  Every read (``snapshot``, ``prometheus_text``, ``exposition``,
``counter``/``gauge``/``histogram``) merges the pending tables into the
registry's state first, so it sees each record whole; a read hands out
values and detached copies, never a live table.  With no registry in
scope, a site costs one ``ContextVar`` read and a ``None`` check.

The module deliberately imports nothing from the rest of :mod:`repro`, so
every layer (gpu, core, query, bench) may depend on it without cycles.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

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


# -- the histogram ----------------------------------------------------------


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
        with self._lock:
            self._add(value)

    def _add(self, value: Union[int, float]) -> None:
        """:meth:`observe` for a caller that holds the lock or owns the
        histogram outright (an :class:`Accumulator`)."""
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"histogram observations must be finite and >= 0, got {value!r}"
            )
        self.count += 1
        if value:
            e = math.frexp(value)[1]
            self.buckets[e] = self.buckets.get(e, 0) + 1
            _partials_add(self._partials, value)
        else:
            self.zeros += 1
        if self.min is None:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:  # type: ignore[operator]
            self.max = value

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
                if not math.isfinite(part):
                    raise ValueError(f"sum parts must be finite, got {part!r}")
                _partials_add(self._partials, part)
            if "min" in snap:
                self.min = (
                    snap["min"] if self.min is None else min(self.min, snap["min"])
                )
                self.max = (
                    snap["max"] if self.max is None else max(self.max, snap["max"])
                )


# -- keys, the aggregate table, the registry --------------------------------


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


def metric_key(name: str, **labels: Any) -> MetricKey:
    """The ``(name, sorted labels)`` key a call site builds once and
    commits under (see :class:`Accumulator`)."""
    return name, _label_items(labels)


_SECTIONS = ("counters", "gauges", "histograms")


class Aggregates:
    """The one representation of an aggregate in :mod:`repro.obs`.

    Tables keyed by :func:`metric_key` tuples: ``counters`` (sums),
    ``gauges`` (last-set values), ``histograms`` and ``vectors`` -
    element-wise sums of records whose site names their counters when
    merged (``site.counters(sums)`` yields ``(key, amount)``).  A writer's
    :class:`Accumulator`, the registry's state and each bucket of a
    :class:`~repro.obs.window.Ring` are these tables, with :meth:`merge`
    their one merge; the owner of a table guards it.
    """

    __slots__ = ("counters", "gauges", "histograms", "vectors")

    def __init__(self) -> None:
        self.counters, self.gauges, self.histograms, self.vectors = {}, {}, {}, {}

    def add(self, key: MetricKey, amount: Union[int, float] = 1) -> None:
        counters = self.counters
        counters[key] = counters.get(key, 0) + amount

    def observe(self, key: MetricKey, value: Union[int, float]) -> None:
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist._add(value)

    def set(self, key: MetricKey, value: Union[int, float]) -> None:
        self.gauges[key] = value

    def add_vector(self, site: Any, values: Iterable[Union[int, float]]) -> None:
        sums = self.vectors.get(site)
        if sums is None:
            self.vectors[site] = list(values)
        else:
            sums[:] = map(operator.add, sums, values)

    def merge(self, other: "Aggregates") -> None:
        """Fold ``other`` in: counters add (its vectors as the counters their
        site names), histograms merge exactly, gauges take ``other``'s
        value.  Neither sums nor exact merges depend on merge order.  A
        negative counter amount raises ``ValueError``, and a key held under
        two kinds raises ``TypeError``: a series has one kind."""
        counters = self.counters
        named = (kv for site, sums in other.vectors.items() for kv in site.counters(sums))
        for key, amount in itertools.chain(other.counters.items(), named):
            if amount < 0:
                raise ValueError(f"counters only go up; {format_key(*key)!r} got {amount!r}")
            if key not in counters:
                self._claim(key, "counters")
            counters[key] = counters.get(key, 0) + amount
        for key, hist in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self._claim(key, "histograms")
                mine = self.histograms[key] = Histogram()
            mine._merge(hist)
        for key, value in other.gauges.items():
            if key not in self.gauges:
                self._claim(key, "gauges")
            self.gauges[key] = value

    def _claim(self, key: MetricKey, section: str) -> None:
        """Refuse ``key`` for ``section`` when another section holds it."""
        for other in _SECTIONS:
            if other != section and key in getattr(self, other):
                raise TypeError(
                    f"metric {format_key(*key)!r} is a {other[:-1]}, not a {section[:-1]}"
                )


class Accumulator(Aggregates):
    """One writer thread's pending writes to one registry: the writer
    commits a whole record under one ``with acc.lock:``, and the fold takes
    the lock only to swap the tables out."""

    __slots__ = ("lock", "thread")

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()
        self.thread = threading.current_thread()

    def _take(self) -> Aggregates:
        """Hand the pending tables to the fold and start empty ones."""
        taken = Aggregates()
        with self.lock:
            taken.counters, taken.gauges = self.counters, self.gauges
            taken.histograms, taken.vectors = self.histograms, self.vectors
            Aggregates.__init__(self)
        return taken


GaugeSource = Callable[[], Iterable[Tuple[MetricKey, Union[int, float]]]]

Row = Tuple[MetricKey, str, Any]


class MetricsRegistry:
    """Named counters, gauges, and histograms with label support.

    Series are addressed by ``(name, sorted labels)``; a series has one
    kind (a conflict raises).  Writers commit to their thread's
    :meth:`accumulator`; every read merges the accumulators and the gauge
    sources into the registry's own :class:`Aggregates` under its lock, so
    it sees whole records and the gauges of one moment.
    """

    def __init__(self) -> None:
        self._state = Aggregates()
        self._lock = threading.RLock()
        self._local = threading.local()
        self._accumulators: List[Accumulator] = []
        self._sources: List[GaugeSource] = []

    # -- writing ------------------------------------------------------------

    def accumulator(self) -> Accumulator:
        """The calling thread's private accumulator on this registry."""
        try:
            return self._local.accumulator
        except AttributeError:
            acc = self._local.accumulator = Accumulator()
            with self._lock:
                self._accumulators.append(acc)
            return acc

    def add_source(self, source: GaugeSource) -> None:
        """Call ``source()`` on every read, under the registry's lock, and
        set the ``(key, value)`` gauges it returns from its owner's state."""
        with self._lock:
            self._sources.append(source)

    # -- reading --------------------------------------------------------------

    def _fold(self) -> None:
        """Merge the accumulators, then the gauge sources, into the state
        (lock held): a gauge takes the last value merged.  A dead thread's
        accumulator is dropped once folded."""
        state, live = self._state, []
        for acc in self._accumulators:
            if acc.thread.is_alive():  # asked first: a dead writer writes no more
                live.append(acc)
            state.merge(acc._take())
        self._accumulators = live
        sourced = Aggregates()
        for source in self._sources:
            sourced.gauges.update(source())
        state.merge(sourced)

    def _read(self, section: str, name: str, labels: Mapping[str, Any]) -> Any:
        key = (name, _label_items(labels))
        with self._lock:
            self._fold()
            self._state._claim(key, section)
            found = getattr(self._state, section).get(key)
            if section != "histograms":
                return 0 if found is None else found
            copy = Histogram()
            if found is not None:
                copy._merge(found)
            return copy

    def counter(self, name: str, **labels: Any) -> Union[int, float]:
        """One counter's folded sum (0 before its first write)."""
        return self._read("counters", name, labels)

    def gauge(self, name: str, **labels: Any) -> Union[int, float]:
        """One gauge's folded value (0 before its first write)."""
        return self._read("gauges", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """A detached copy of one folded histogram (empty before its first
        write): writing to it changes nothing in the registry."""
        return self._read("histograms", name, labels)

    def _rows(self) -> List[Row]:
        """One fold, then ``(key, section, value)`` per series in key order
        (a histogram's value is its snapshot entry)."""
        with self._lock:
            self._fold()
            rows = [
                (key, section, value._snapshot() if section == "histograms" else value)
                for section in _SECTIONS
                for key, value in getattr(self._state, section).items()
            ]
        rows.sort(key=lambda row: row[0])
        return rows

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able, versioned snapshot of every series."""
        return _snapshot_of(self._rows())

    def prometheus_text(self) -> str:
        """Prometheus text exposition, safe to scrape (:func:`_prometheus_of`)."""
        return _prometheus_of(self._rows())

    def exposition(self) -> Tuple[Dict[str, Any], str]:
        """The snapshot and the Prometheus text of one read, which agree."""
        rows = self._rows()
        return _snapshot_of(rows), _prometheus_of(rows)


def _snapshot_of(rows: List[Row]) -> Dict[str, Any]:
    doc: Dict[str, Any] = {"schema": SNAPSHOT_SCHEMA, "counters": {}, "gauges": {}, "histograms": {}}
    for key, section, value in rows:
        doc[section][format_key(*key)] = value
    return doc


def _prometheus_of(rows: List[Row]) -> str:
    """Prometheus text exposition of one read's rows.

    Emits ``# HELP`` and ``# TYPE`` per family; label values are
    quoted with backslash (``\\``), double-quote (``"``), and
    newline escaped per the exposition format, so hostile label
    values (paths, error messages) cannot corrupt the stream.
    Histograms render cumulative ``_bucket{le="..."}`` series over
    the fixed power-of-two boundaries actually populated, plus
    ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    family = None
    for (name, labels), section, value in rows:
        if name != family:
            family = name
            lines.append(f"# HELP {name} {_escape_help(metric_help(name))}")
            lines.append(f"# TYPE {name} {section[:-1]}")
        if section != "histograms":
            lines.append(f"{_prom_series(name, labels)} {_fmt_num(value)}")
            continue
        cumulative = value["zeros"]
        for e, n in sorted((int(e), n) for e, n in value["buckets"].items()):
            cumulative += n
            le = labels + (("le", _fmt_num(2.0**e)),)
            lines.append(f"{_prom_series(name + '_bucket', le)} {cumulative}")
        inf = labels + (("le", "+Inf"),)
        lines.append(f"{_prom_series(name + '_bucket', inf)} {value['count']}")
        lines.append(f"{_prom_series(name + '_sum', labels)} {_fmt_num(value['sum'])}")
        lines.append(f"{_prom_series(name + '_count', labels)} {value['count']}")
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
