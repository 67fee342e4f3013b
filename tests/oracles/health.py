"""Windowed health as one instrument per series: the reference the rings
are compared against.

Before the rings, every windowed series was its own instrument with its
own epoch ring - a :class:`WindowedCounter` or a
:class:`WindowedHistogram` behind a :class:`WindowedRegistry` - and each
SLO objective counted into four :class:`WindowedCounter` (good and bad,
fast and slow).  This module keeps those instruments.
:func:`health_directly` replays an outcome sequence through them and
returns the ``window`` and ``slo`` sections a health read reports after
each step.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.obs.metrics import Histogram, LabelItems, format_key, metric_key
from repro.obs.slo import SLOConfig, SLObjective
from repro.obs.window import WindowConfig
from repro.serve import HealthConfig

#: One step: the clock moves by ``advance_s``, then each ``(op, status,
#: total_s)`` outcome is recorded.
Step = Tuple[float, Sequence[Tuple[str, str, float]]]


class _Windowed:
    """Epoch-keyed buckets with exact retirement."""

    def __init__(self, config: WindowConfig) -> None:
        self.config = config
        self._buckets: Dict[int, Any] = {}

    def _retire(self, epoch: int) -> None:
        oldest = epoch - self.config.buckets + 1
        self._buckets = {e: b for e, b in self._buckets.items() if e >= oldest}

    def _live(self) -> List[Any]:
        self._retire(self.config.epoch())
        return [b for _, b in sorted(self._buckets.items())]


class WindowedCounter(_Windowed):
    """A count over the last ``window_s`` seconds."""

    def inc(self, amount: Union[int, float] = 1) -> None:
        epoch = self.config.epoch()
        self._retire(epoch)
        self._buckets[epoch] = self._buckets.get(epoch, 0) + amount

    def total(self) -> Union[int, float]:
        return sum(self._live())

    def snapshot(self) -> Dict[str, Any]:
        total = self.total()
        return {
            "window_s": self.config.window_s,
            "total": total,
            "rate": total / self.config.window_s,
        }


class WindowedHistogram(_Windowed):
    """A :class:`Histogram` of the last ``window_s`` seconds."""

    def observe(self, value: float) -> None:
        epoch = self.config.epoch()
        self._retire(epoch)
        bucket = self._buckets.get(epoch)
        if bucket is None:
            bucket = self._buckets[epoch] = Histogram()
        bucket.observe(value)

    def summary(self) -> Dict[str, float]:
        merged = Histogram()
        for bucket in self._live():
            merged._merge(bucket)
        out = merged.summary()
        out["rate"] = out["count"] / self.config.window_s
        out["window_s"] = self.config.window_s
        return out


class WindowedRegistry:
    """Named windowed instruments sharing one :class:`WindowConfig`."""

    def __init__(self, config: WindowConfig) -> None:
        self.config = config
        self._metrics: Dict[Tuple[str, LabelItems], _Windowed] = {}

    def _get(self, cls, name: str, **labels: Any):
        key = metric_key(name, **labels)
        found = self._metrics.get(key)
        if found is None:
            found = self._metrics[key] = cls(self.config)
        return found

    def counter(self, name: str, **labels: Any) -> WindowedCounter:
        return self._get(WindowedCounter, name, **labels)

    def histogram(self, name: str, **labels: Any) -> WindowedHistogram:
        return self._get(WindowedHistogram, name, **labels)

    def summary(self) -> Dict[str, Any]:
        counters: Dict[str, Any] = {}
        histograms: Dict[str, Any] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, WindowedCounter):
                counters[format_key(*key)] = metric.snapshot()
            else:
                histograms[format_key(*key)] = metric.summary()
        return {
            "window_s": self.config.window_s,
            "bucket_width_s": self.config.width_s,
            "counters": counters,
            "histograms": histograms,
        }


class _Objective:
    """One objective's four windowed counters and its alert state."""

    def __init__(self, objective: SLObjective, config: SLOConfig) -> None:
        self.objective = objective
        self.fast_good = WindowedCounter(config.fast)
        self.fast_bad = WindowedCounter(config.fast)
        self.slow_good = WindowedCounter(config.slow)
        self.slow_bad = WindowedCounter(config.slow)
        self.state = "ok"

    def count(self, op: str, status: str, latency_s: float) -> None:
        if self.objective.op is not None and self.objective.op != op:
            return
        verdict = self.objective.classify(status, latency_s)
        if verdict is True:
            self.fast_good.inc()
            self.slow_good.inc()
        elif verdict is False:
            self.fast_bad.inc()
            self.slow_bad.inc()

    def burn(self, good: WindowedCounter, bad: WindowedCounter) -> Tuple[float, int]:
        n_bad = bad.total()
        events = good.total() + n_bad
        if events == 0:
            return 0.0, 0
        return (n_bad / events) / self.objective.budget, int(events)

    def evaluate(self, config: SLOConfig) -> None:
        fast_burn, fast_events = self.burn(self.fast_good, self.fast_bad)
        slow_burn, _ = self.burn(self.slow_good, self.slow_bad)
        threshold = config.burn_threshold
        if self.state == "ok":
            if fast_events >= config.min_events and fast_burn > threshold and slow_burn > threshold:
                self.state = "firing"
        elif fast_burn <= threshold:
            self.state = "ok"

    def view(self) -> Dict[str, Any]:
        fast_burn, fast_events = self.burn(self.fast_good, self.fast_bad)
        slow_burn, slow_events = self.burn(self.slow_good, self.slow_bad)
        return {
            "objective": self.objective.to_dict(),
            "budget": self.objective.budget,
            "burn_fast": fast_burn,
            "burn_slow": slow_burn,
            "fast_events": fast_events,
            "slow_events": slow_events,
            "state": self.state,
        }


def health_directly(config: HealthConfig, steps: Sequence[Step]) -> List[Dict[str, Any]]:
    """The ``window`` and ``slo`` sections after each of ``steps``, from one
    instrument per series.  The clock starts at 0 and moves only by the
    steps' advances (``config.clock`` is not read); the alert states
    advance after every outcome and before every read, as a monitor's do."""
    now = [0.0]

    def clock() -> float:
        return now[0]

    windows = WindowedRegistry(
        WindowConfig(width_s=config.window_width_s, buckets=config.window_buckets, clock=clock)
    )
    slo = SLOConfig.scaled(
        config.slo_fast_s,
        config.slo_slow_s,
        clock=clock,
        burn_threshold=config.burn_threshold,
        min_events=config.min_events,
    )
    objectives = [_Objective(o, slo) for o in config.objectives]
    sections = []
    for advance_s, outcomes in steps:
        now[0] += advance_s
        for op, status, total_s in outcomes:
            windows.counter("serve_window_requests", op=op, status=status).inc()
            if status == "ok":
                windows.histogram("serve_window_request_duration_s", op=op).observe(total_s)
            for objective in objectives:
                objective.count(op, status, total_s)
            for objective in objectives:
                objective.evaluate(slo)
        for objective in objectives:
            objective.evaluate(slo)
        sections.append({
            "window": windows.summary(),
            "slo": {o.objective.name: o.view() for o in objectives},
        })
    return sections
