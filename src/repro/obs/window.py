"""Rolling-window telemetry: epoch-aligned rings over the exact instruments.

Every :mod:`repro.obs.metrics` instrument is lifetime-cumulative - the
right artifact for deterministic CI gating, and the wrong one for
operating a long-lived serving process: a cumulative p99 is a
since-process-start aggregate that can never show a regression
*happening now*, and a cumulative counter has no rate.  This module adds
the windowed view without touching the exact substrate:

* :class:`WindowedCounter` / :class:`WindowedHistogram` - a ring of
  **epoch-aligned** buckets (epoch ``floor(clock() / width_s)``), each
  bucket an exact count / a :class:`~repro.obs.metrics.Histogram`.
  Observations land in the current epoch's bucket; buckets older than
  the ring retire **exactly** (a bucket is in the window or it is gone -
  no decayed tails, no approximate aging), so the windowed aggregate is
  *bit-identical* to recomputing from only the observations whose epochs
  are still live (property-tested in ``tests/obs/test_window.py``);
* :class:`WindowConfig` - bucket width, ring length, and the **injected
  clock** every windowed instrument reads.  Nothing in this module calls
  ``time`` directly: tests (and the SLO state machine's transition
  tests) drive a fake clock, which is what keeps the serving baseline
  deterministic with windowing enabled;
* :class:`WindowedRegistry` - named windowed families with the same
  ``(name, sorted labels)`` addressing as :class:`MetricsRegistry`, plus
  a JSON-able :meth:`~WindowedRegistry.summary` the serve layer's
  ``health`` envelope embeds.

Because per-epoch histograms are the exactly-mergeable log-bucketed kind,
a window's statistics are one fold of its live buckets
(:meth:`WindowedHistogram.merged`), indistinguishable from one histogram
having observed only the in-window stream.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .metrics import Histogram, LabelItems, _label_items, format_key

Clock = Callable[[], float]


@dataclass(frozen=True)
class WindowConfig:
    """Shape of one rolling window: ``buckets`` rings of ``width_s`` each.

    The effective window is ``width_s * buckets`` seconds; a finer ring
    (more, narrower buckets) retires old observations more smoothly at
    the cost of more per-observation bookkeeping.  ``clock`` is any
    monotone seconds source - ``time.monotonic`` in production, a fake
    in tests.
    """

    width_s: float = 10.0
    buckets: int = 6
    clock: Clock = field(default=time.monotonic, repr=False)

    def __post_init__(self) -> None:
        if self.width_s <= 0:
            raise ValueError(f"width_s must be positive, got {self.width_s}")
        if self.buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {self.buckets}")

    @property
    def window_s(self) -> float:
        return self.width_s * self.buckets

    def epoch(self, now: Optional[float] = None) -> int:
        """The epoch index containing time ``now`` (default: the clock)."""
        if now is None:
            now = self.clock()
        return int(now // self.width_s)


class _Windowed:
    """Shared ring bookkeeping: epoch-keyed buckets with exact retirement."""

    __slots__ = ("config", "_buckets", "_lock")

    def __init__(self, config: WindowConfig) -> None:
        self.config = config
        self._buckets: Dict[int, Any] = {}
        self._lock = threading.Lock()

    def _retire(self, epoch: int) -> None:
        """Drop every bucket outside the window ending at ``epoch``.

        Must hold the lock.  Retirement is exact: a clock step that skips
        the whole ring empties it entirely (nothing "ages" partially).
        """
        oldest = epoch - self.config.buckets + 1
        if any(e < oldest for e in self._buckets):
            self._buckets = {
                e: b for e, b in self._buckets.items() if e >= oldest
            }

    def _live(self) -> List[Tuple[int, Any]]:
        """(epoch, bucket) pairs inside the window, oldest first."""
        with self._lock:
            self._retire(self.config.epoch())
            return sorted(self._buckets.items())


class WindowedCounter(_Windowed):
    """A count over the last ``window_s`` seconds, with a rate."""

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount!r}")
        epoch = self.config.epoch()
        with self._lock:
            self._retire(epoch)
            self._buckets[epoch] = self._buckets.get(epoch, 0) + amount

    def total(self) -> Union[int, float]:
        """Events inside the window right now."""
        return sum(b for _, b in self._live())

    def rate(self) -> float:
        """Events per second over the window span."""
        return self.total() / self.config.window_s

    def snapshot(self) -> Dict[str, Any]:
        return {
            "window_s": self.config.window_s,
            "total": self.total(),
            "rate": self.rate(),
        }


class WindowedHistogram(_Windowed):
    """A :class:`Histogram` view over the last ``window_s`` seconds.

    Each epoch bucket is a full exact histogram; :meth:`merged` folds the
    live buckets into a fresh one, so every derived statistic (count,
    sum, quantiles, min/max) is exactly what a histogram fed only the
    in-window observations would report - bit for bit, including the
    canonical ``sum_parts`` snapshot form.
    """

    def observe(self, value: Union[int, float]) -> None:
        epoch = self.config.epoch()
        with self._lock:
            self._retire(epoch)
            bucket = self._buckets.get(epoch)
            if bucket is None:
                bucket = self._buckets[epoch] = Histogram()
        bucket.observe(value)

    def merged(self) -> Histogram:
        """A fresh exact histogram of the in-window observations."""
        out = Histogram()
        for _, bucket in self._live():
            out._merge(bucket)
        return out

    def count(self) -> int:
        return sum(b.count for _, b in self._live())

    def rate(self) -> float:
        """Observations per second over the window span."""
        return self.count() / self.config.window_s

    def quantile(self, q: float) -> float:
        return self.merged().quantile(q)

    def summary(self) -> Dict[str, float]:
        """The merged histogram's summary plus the windowed rate."""
        out = self.merged().summary()
        out["rate"] = out["count"] / self.config.window_s
        out["window_s"] = self.config.window_s
        return out


WindowedInstrument = Union[WindowedCounter, WindowedHistogram]


class WindowedRegistry:
    """Named windowed families sharing one :class:`WindowConfig`.

    Mirrors :class:`~repro.obs.metrics.MetricsRegistry` addressing
    (``(name, sorted labels)``, one family one kind) but deliberately has
    **no merge/snapshot schema**: a window's value depends on when you
    look, so windowed families never enter RunReports or the CI-gated
    registry snapshot - they are read live, through
    :meth:`summary` (the ``health`` envelope) or the instruments
    themselves.
    """

    def __init__(self, config: Optional[WindowConfig] = None) -> None:
        self.config = config if config is not None else WindowConfig()
        self._metrics: Dict[Tuple[str, LabelItems], WindowedInstrument] = {}
        self._lock = threading.Lock()

    def _get(self, cls, name: str, labels: Mapping[str, Any]):
        key = (name, _label_items(labels))
        with self._lock:
            found = self._metrics.get(key)
            if found is None:
                found = cls(self.config)
                self._metrics[key] = found
                return found
        if type(found) is not cls:
            raise TypeError(
                f"windowed metric {format_key(*key)!r} is a "
                f"{type(found).__name__}, not a {cls.__name__}"
            )
        return found

    def counter(self, name: str, **labels: Any) -> WindowedCounter:
        return self._get(WindowedCounter, name, labels)

    def histogram(self, name: str, **labels: Any) -> WindowedHistogram:
        return self._get(WindowedHistogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def summary(self) -> Dict[str, Any]:
        """JSON-able live view: every family's windowed aggregate now."""
        with self._lock:
            metrics = dict(self._metrics)
        counters: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for key in sorted(metrics):
            metric = metrics[key]
            skey = format_key(*key)
            if isinstance(metric, WindowedCounter):
                counters[skey] = metric.snapshot()
            else:
                histograms[skey] = metric.summary()
        return {
            "window_s": self.config.window_s,
            "bucket_width_s": self.config.width_s,
            "counters": counters,
            "histograms": histograms,
        }


__all__ = [
    "WindowConfig",
    "WindowedCounter",
    "WindowedHistogram",
    "WindowedRegistry",
]
