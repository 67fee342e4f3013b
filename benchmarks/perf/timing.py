"""Calibrated timing: the sampler, the segment loop, and the percentile rule.

Raw wall time on a small shared host drifts by a quarter between
back-to-back blocks of the same work, at every time scale from a few
milliseconds to minutes, so every timing the benchmark reports is in
*calibrated* units::

    calibrated = measured * (CAL_REF_MS / in-run calibration ms)

The calibration is taken *while* the timed work runs: an interval timer
interrupts the main thread every few milliseconds and runs one *slice* -
a fixed third of a millisecond of interpreted-Python, heap-object and
NumPy work.  A segment's calibration is the typical duration of the
slices that ran inside it.  A host that runs the slices 20 % slower than
the reference is assumed to have run the segment's ops 20 % slower too,
and the segment's times are scaled back.  Raw wall values stay in the
detailed report as diagnostics.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: What one calibration slice takes on the reference host, in ms.  A
#: constant of the benchmark: changing it rescales every calibrated
#: number, so baselines recorded before and after do not compare.
CAL_REF_MS = 0.3

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than ten samples beyond it."""


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean of ``values`` without the lowest and highest ``trim`` share."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class _Vertex:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


class Sampler:
    """In-flight calibration: a timer signal runs a slice every few ms.

    Bursts run before and after a segment miss what happens in between:
    on this host two adjacent blocks of identical work differ by about a
    tenth at every block length from 4 ms to 4 s, so bracketing a 0.8 s op
    leaves about that much error, while slices spread through the op see
    the same weather the op does (ten runs of ``join-wp``: inter-quartile
    spread 0.15 raw, 0.07-0.13 bracketed, 0.04-0.08 sampled).

    The slice is independent code (nothing of ``repro`` runs in it, or a
    regression there would cancel itself) shaped like the workloads: an
    interpreted arithmetic loop, a crossing-number scan over heap objects
    visited in an order that defeats the cache, and small-array NumPy
    calls, because the workloads slow down more than a tight loop does
    when the host gets busy.

    Use as a context manager, from the main thread (signal handlers run
    nowhere else).  ``clock`` stands still while a slice runs: work that
    shares the main thread with the slices is timed with it, so the
    slices' own time is never charged to an op.
    """

    PERIOD_S = 0.005
    #: Fewer slices than this cannot calibrate a block of work.
    MIN_SLICES = 5
    #: Slices in one idle burst (``bracketed``).
    BURST_SLICES = 60

    _HEAP = 50_000
    _RING = 600

    def __init__(self) -> None:
        rng = random.Random(2003)
        heap = [_Vertex(rng.random(), rng.random()) for _ in range(self._HEAP)]
        self._ring = rng.sample(heap, self._RING)
        self._small = np.linspace(0.0, 1.0, 400)
        self._slices: List[float] = []
        self._busy = 0.0
        self._previous: Any = None

    def slice(self) -> None:
        """The fixed work of one sample."""
        acc = 0
        for i in range(1500):
            acc += i * i & 0xFF
        px, py = 0.3, 0.4
        inside = False
        prev = self._ring[-1]
        for v in self._ring:
            if (v.y > py) != (prev.y > py):
                if px < (prev.x - v.x) * (py - v.y) / (prev.y - v.y) + v.x:
                    inside = not inside
            prev = v
        a = self._small
        for _ in range(4):
            steps = np.cumsum(np.floor(a * 7.3 + 0.5) > 3)
            np.minimum(a[steps % len(a)], a).max()

    def _on_alarm(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.slice()
        took = time.perf_counter() - start
        self._slices.append(took)
        self._busy += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``perf_counter`` minus all time spent in slices so far."""
        return time.perf_counter() - self._busy

    def mark(self) -> int:
        """A position in the slice log, for ``cal_ms_since``."""
        return len(self._slices)

    def cal_ms_since(self, mark: int) -> float:
        """Calibration of the work done since ``mark``: the trimmed mean
        duration, in ms, of the slices that ran inside it."""
        slices = self._slices[mark:]
        if len(slices) < self.MIN_SLICES:
            raise RuntimeError(
                f"{len(slices)} calibration slices since the mark; a timed "
                f"block needs at least {self.MIN_SLICES} "
                f"({self.MIN_SLICES * self.PERIOD_S * 1e3:g} ms of work)"
            )
        return trimmed_mean(slices) * 1e3

    def slice_s_since(self, mark: int) -> float:
        """Seconds spent in slices since ``mark``."""
        return sum(self._slices[mark:])

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn`` once on the main thread, sampled in flight:
        ``(result, raw seconds by ``clock``, calibration ms)``."""
        mark = self.mark()
        start = self.clock()
        result = fn()
        raw = self.clock() - start
        return result, raw, self.cal_ms_since(mark)

    def burst(self) -> float:
        """Run a burst of slices now, back to back; their calibration ms."""
        mark = self.mark()
        for _ in range(self.BURST_SLICES):
            self._on_alarm(signal.SIGALRM, None)
        return self.cal_ms_since(mark)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """No slices inside: for work that runs *beside* the main thread."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def bracketed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn`` once, paused, between two idle bursts; as ``timed``,
        the seconds by the wall clock."""
        with self.paused():
            before = self.burst()
            start = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - start
            after = self.burst()
        return result, raw, (before + after) / 2.0


def calibrated(measured: float, cal_ms: float) -> float:
    """Scale a measured duration (any unit) to the reference host speed."""
    if cal_ms <= 0.0:
        raise ValueError(f"calibration must be positive, got {cal_ms}")
    return measured * (CAL_REF_MS / cal_ms)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, refusing tails the sample cannot support.

    ``q`` is in (0, 100).  Above the median the rule is the benchmark's
    highest-percentile rule: at least ten samples must lie beyond the
    reported one, so p95 needs 200 samples and p99 needs 1000.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    if n == 0:
        raise TooFewSamples("no samples")
    beyond = n - max(1, math.ceil(q / 100.0 * n))
    if q > 50.0 and beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"needs {MIN_SAMPLES_BEYOND}"
        )
    return rank_percentile(samples, q)


def rank_percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile with no sample rule (diagnostics only)."""
    rank = max(1, math.ceil(q / 100.0 * len(samples)))
    return sorted(samples)[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


@dataclass
class Segment:
    """One calibrated block of timed ops."""

    #: Raw seconds of each op in the segment.
    op_s: List[float]
    #: Raw seconds from the segment's first op start to its last op end
    #: (equals ``sum(op_s)`` for one caller, less under concurrency).
    wall_s: float
    #: Calibration of the segment, ms per slice.
    cal_ms: float
    #: Free-form per-segment extras a workload wants kept (stage seconds,
    #: server-side splits); never read by the timing code.
    extra: dict = field(default_factory=dict)
    #: Seconds the sampler's slices took inside the segment.
    slice_s: float = 0.0

    @property
    def op_cms(self) -> List[float]:
        """Calibrated ms per op."""
        return [calibrated(s * 1e3, self.cal_ms) for s in self.op_s]

    @property
    def wall_cs(self) -> float:
        """Calibrated seconds the segment took."""
        return calibrated(self.wall_s, self.cal_ms)

    def inclusive_cs(self, seconds: float) -> float:
        """Calibrated value of a duration taken inside the segment by a
        clock that kept running during the slices (the program's own
        stage seconds and spans): their share is taken out first."""
        return calibrated(
            seconds * self.wall_s / (self.wall_s + self.slice_s), self.cal_ms
        )


#: A segment body: runs the segment's ops and returns
#: ``(per-op seconds, segment wall seconds, extras)``.
SegmentBody = Callable[[int], Tuple[List[float], float, dict]]


def run_segments(
    body: SegmentBody,
    count: int,
    sampler: Sampler,
    first_index: int = 0,
    beside: bool = False,
) -> List[Segment]:
    """Run ``count`` segments under ``sampler``, which must be running.

    ``beside``: the ops run beside the main thread (client threads, a
    server process), where they would slow the slices down themselves, so
    each segment is calibrated by idle bursts around it instead.
    """
    segments: List[Segment] = []
    for index in range(first_index, first_index + count):
        if beside:
            (op_s, wall_s, extra), _, cal_ms = sampler.bracketed(
                partial(body, index)
            )
            segments.append(Segment(op_s, wall_s, cal_ms, extra))
            continue
        mark = sampler.mark()
        op_s, wall_s, extra = body(index)
        segments.append(Segment(
            op_s, wall_s, sampler.cal_ms_since(mark), extra,
            sampler.slice_s_since(mark),
        ))
    return segments


@dataclass
class OpSummary:
    """End-to-end timing summary of a list of segments."""

    samples: int
    p50_cms: float
    p95_cms: Optional[float]
    p99_cms: Optional[float]
    throughput_ops_cs: float
    #: Raw-wall diagnostics, never metrics.
    raw_p50_ms: float
    raw_throughput_ops_s: float
    #: Per-segment quartiles ``[q1, median, q3]`` of each metric.
    segment_quartiles: dict
    #: Inter-quartile spread of each metric across segments.
    spreads: dict
    cal_ms: List[float]


def _optional_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return None


def summarize(segments: Sequence[Segment]) -> OpSummary:
    """Fold segments into the end-to-end timing metrics."""
    ops_cms = [v for seg in segments for v in seg.op_cms]
    ops_raw_ms = [s * 1e3 for seg in segments for s in seg.op_s]
    total_ops = len(ops_cms)
    per_segment = {
        "op_p50_cms": [statistics.median(seg.op_cms) for seg in segments],
        "op_p95_cms": [rank_percentile(seg.op_cms, 95.0) for seg in segments],
        "op_p99_cms": [rank_percentile(seg.op_cms, 99.0) for seg in segments],
        "throughput_ops_s": [len(seg.op_s) / seg.wall_cs for seg in segments],
    }
    return OpSummary(
        samples=total_ops,
        p50_cms=statistics.median(ops_cms),
        p95_cms=_optional_percentile(ops_cms, 95.0),
        p99_cms=_optional_percentile(ops_cms, 99.0),
        throughput_ops_cs=total_ops / sum(seg.wall_cs for seg in segments),
        raw_p50_ms=statistics.median(ops_raw_ms),
        raw_throughput_ops_s=total_ops / sum(seg.wall_s for seg in segments),
        segment_quartiles={k: quartiles(v) for k, v in per_segment.items()},
        spreads={k: spread(v) for k, v in per_segment.items()},
        cal_ms=[seg.cal_ms for seg in segments],
    )
