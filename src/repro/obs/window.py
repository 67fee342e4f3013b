"""Rolling windows: one epoch ring of aggregate tables, exactly retired.

Every :class:`~repro.obs.metrics.MetricsRegistry` series is
lifetime-cumulative - right for deterministic CI gating, wrong for
operating a long-lived server: a cumulative p99 can never show a
regression *happening now*, and a cumulative counter has no rate.

* :class:`WindowConfig` - bucket width, ring length, and the **injected
  clock** every ring reads; nothing here calls ``time``, which keeps the
  SLO transition tests and the serving baseline deterministic;
* :class:`Ring` - **epoch-aligned** buckets (epoch ``floor(clock() /
  width_s)``), each an :class:`~repro.obs.metrics.Aggregates` table a
  writer commits into.  Buckets older than the ring retire **exactly**
  (in the window or gone, no decayed tails), so :meth:`~Ring.merged` -
  one merge of the live buckets - is *bit-identical* to aggregating only
  the observations whose epochs are live (property-tested in
  ``tests/obs/test_window.py``).  :meth:`~Ring.summary` is the ``window``
  section of the serve layer's ``health`` envelope.

A ring has no lock: its owner holds one lock over every ring a record
touches.  A window's value depends on when you look, so windowed series
never enter RunReports or the CI-gated registry snapshot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .metrics import Aggregates, Histogram, format_key

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
        if not 0 < self.width_s < math.inf:
            raise ValueError(
                f"width_s must be positive and finite, got {self.width_s}"
            )
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


class Ring:
    """Epoch-keyed :class:`~repro.obs.metrics.Aggregates` buckets; a series
    whose buckets have all retired stays listed, at zero."""

    __slots__ = ("config", "_buckets", "_retired")

    def __init__(self, config: WindowConfig) -> None:
        self.config = config
        self._buckets: Dict[int, Aggregates] = {}
        #: Every series a retired bucket held, at zero.
        self._retired = Aggregates()

    def _retire(self, epoch: int) -> None:
        """Drop every bucket outside the window ending at ``epoch``.

        Retirement is exact: a clock step that skips the whole ring
        empties it entirely (nothing "ages" partially).
        """
        oldest = epoch - self.config.buckets + 1
        for old in [e for e in self._buckets if e < oldest]:
            gone = self._buckets.pop(old)
            self._retired.counters.update(dict.fromkeys(gone.counters, 0))
            for key in gone.histograms:
                self._retired.histograms.setdefault(key, Histogram())

    def bucket(self) -> Aggregates:
        """The current epoch's bucket, the one a commit writes to."""
        epoch = self.config.epoch()
        self._retire(epoch)
        found = self._buckets.get(epoch)
        if found is None:
            found = self._buckets[epoch] = Aggregates()
        return found

    def merged(self) -> Aggregates:
        """The window now: the live buckets merged, oldest first, over
        every retired series at zero."""
        self._retire(self.config.epoch())
        out = Aggregates()
        out.merge(self._retired)
        for epoch in sorted(self._buckets):
            out.merge(self._buckets[epoch])
        return out

    def summary(self) -> Dict[str, Any]:
        """JSON-able live view: every series' windowed aggregate now."""
        merged = self.merged()
        window_s = self.config.window_s
        histograms: Dict[str, Any] = {}
        for key, hist in sorted(merged.histograms.items()):
            entry = histograms[format_key(*key)] = hist.summary()
            entry["rate"] = entry["count"] / window_s
            entry["window_s"] = window_s
        return {
            "window_s": window_s,
            "bucket_width_s": self.config.width_s,
            "counters": {
                format_key(*key): {"window_s": window_s, "total": total, "rate": total / window_s}
                for key, total in sorted(merged.counters.items())
            },
            "histograms": histograms,
        }


__all__ = ["Ring", "WindowConfig"]
