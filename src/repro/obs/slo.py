"""SLO tracking: error budgets, multi-window burn rates, alert transitions.

An SLO turns a latency/availability stream into one operational question:
*are we spending error budget faster than we can afford?*  This module
implements the standard multi-window burn-rate construction (the one the
SRE workbook pages on) over :mod:`repro.obs.window` rings:

* :class:`SLObjective` - one objective: a ``target`` fraction of *good*
  events (``availability``: the request succeeded; ``latency``: the
  request succeeded within ``threshold_s``), optionally scoped to one
  op.  The error budget is ``1 - target``;
* :class:`SLOTracker` - one **fast** ring and one **slow** ring
  (:class:`~repro.obs.window.Ring`; 1 m / 1 h shaped in production,
  scaled way down in tests - both run off the injected clock, never wall
  time) holding every objective's good/bad counts, each outcome committed
  to both under one lock.  The burn rate of a window is
  ``bad_fraction / budget``: burn 1.0 spends exactly the whole budget by
  the end of the SLO period, burn 10 spends it ten times too fast;
* the **alert state machine** - an objective *fires* when both windows
  burn above ``burn_threshold`` (the fast window says "happening now",
  the slow window says "not just a blip") and *resolves* when the fast
  window drops back under (recovery is visible immediately; the slow
  window alone never holds an alert up once the bleeding stops);
* the **alert log** - every firing/resolved transition
  (``repro.obs/alerts@1``) in a bounded, JSONL-exportable
  :class:`~repro.obs.records.RecordLog`, kept queryable after the fact
  instead of vanishing with the process.

Everything here is deterministic given the clock: the serving layer's
clock-controlled tests drive an induced error burst through
firing -> resolved and assert the exact transition sequence.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple, Union

from .records import RecordLog, read_jsonl, schema_check
from .metrics import Aggregates, metric_key
from .window import Clock, Ring, WindowConfig

#: Version tag of the alert-event schema (bump on incompatible change).
ALERTS_SCHEMA = "repro.obs/alerts@1"

#: Objective kinds.
SLO_KINDS = ("availability", "latency")

#: Alert states.
ALERT_STATES = ("ok", "firing")


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective over the request stream."""

    #: Stable name the alert log and health envelope key on.
    name: str
    #: "availability" (good = request ok) or "latency" (good = request ok
    #: AND total latency <= threshold_s; non-ok requests are excluded from
    #: the latency denominator - they already burn the availability SLO).
    kind: str
    #: Target good fraction in [0, 1); the error budget is 1 - target.
    target: float
    #: Latency objectives only: the "fast enough" bound in seconds.
    threshold_s: Optional[float] = None
    #: Restrict to one op (None = every op).
    op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; expected one of {SLO_KINDS}"
            )
        if not 0.0 <= self.target < 1.0:
            raise ValueError(
                f"target must be in [0, 1) so the error budget is positive;"
                f" got {self.target!r}"
            )
        if self.kind == "latency":
            if self.threshold_s is None or not self.threshold_s > 0:
                raise ValueError(
                    f"latency objectives need threshold_s > 0,"
                    f" got {self.threshold_s!r}"
                )
        elif self.threshold_s is not None:
            raise ValueError("availability objectives do not take threshold_s")

    @property
    def budget(self) -> float:
        return 1.0 - self.target

    def classify(self, status: str, latency_s: float) -> Optional[bool]:
        """True = good, False = bad, None = not in this objective's scope."""
        if self.kind == "availability":
            return status == "ok"
        if status != "ok":
            return None
        assert self.threshold_s is not None
        return latency_s <= self.threshold_s

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
        }
        if self.threshold_s is not None:
            out["threshold_s"] = self.threshold_s
        if self.op is not None:
            out["op"] = self.op
        return out


@dataclass(frozen=True)
class SLOConfig:
    """Windows and threshold of the burn-rate state machine.

    The production shape is fast = 1 m / slow = 1 h; tests scale both
    down and drive the shared clock by hand.  ``min_events`` keeps a
    single bad request in an idle service from paging.
    """

    fast: WindowConfig = field(
        default_factory=lambda: WindowConfig(width_s=10.0, buckets=6)
    )
    slow: WindowConfig = field(
        default_factory=lambda: WindowConfig(width_s=600.0, buckets=6)
    )
    #: Both windows must burn above this rate for an alert to fire.
    burn_threshold: float = 2.0
    #: Fast-window events required before the objective may fire.
    min_events: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.burn_threshold < math.inf:
            raise ValueError(
                "burn_threshold must be positive and finite,"
                f" got {self.burn_threshold}"
            )
        if self.min_events < 1:
            raise ValueError(f"min_events must be >= 1, got {self.min_events}")
        if self.fast.window_s >= self.slow.window_s:
            raise ValueError(
                "the fast window must be shorter than the slow window "
                f"({self.fast.window_s}s vs {self.slow.window_s}s)"
            )

    @classmethod
    def scaled(
        cls,
        fast_s: float,
        slow_s: float,
        clock: Clock = time.monotonic,
        burn_threshold: float = 2.0,
        min_events: int = 1,
        buckets: int = 6,
    ) -> "SLOConfig":
        """Windows of the given total spans, sharing ``clock``."""
        return cls(
            fast=WindowConfig(
                width_s=fast_s / buckets, buckets=buckets, clock=clock
            ),
            slow=WindowConfig(
                width_s=slow_s / buckets, buckets=buckets, clock=clock
            ),
            burn_threshold=burn_threshold,
            min_events=min_events,
        )


def load_alert_log(source: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Read an alert-log JSONL export, validating every record's schema."""
    return read_jsonl(source, schema_check("alert", ALERTS_SCHEMA))


class _ObjectiveState:
    """One objective's ring keys and alert state."""

    __slots__ = ("objective", "good", "bad", "state")

    def __init__(self, objective: SLObjective) -> None:
        self.objective = objective
        self.good = metric_key(objective.name, verdict="good")
        self.bad = metric_key(objective.name, verdict="bad")
        self.state = "ok"

    def burn(self, window: Aggregates) -> Tuple[float, int]:
        """(burn rate, events) of one merged window."""
        n_bad = window.counters.get(self.bad, 0)
        events = window.counters.get(self.good, 0) + n_bad
        if events == 0:
            return 0.0, 0
        return (n_bad / events) / self.objective.budget, int(events)


class SLOTracker:
    """Burn-rate accounting and alerting over a stream of request outcomes.

    Thread-safe.  :meth:`record` classifies one outcome into every
    matching objective; :meth:`evaluate` advances the alert state
    machine (also called internally on every record, so transitions are
    never missed between health polls) and returns the new transition
    events, each already appended to :attr:`alert_log`.
    """

    def __init__(
        self,
        objectives: Sequence[SLObjective],
        config: Optional[SLOConfig] = None,
    ) -> None:
        if not objectives:
            raise ValueError("SLOTracker needs at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"objective names must be unique, got {names}")
        self.config = config if config is not None else SLOConfig()
        #: Every firing/resolved transition, oldest first.
        self.alert_log = RecordLog()
        self._states = [_ObjectiveState(o) for o in objectives]
        #: Held over every commit to and read of the rings; a monitor that
        #: commits to rings of its own with each outcome shares it.
        self.lock = threading.Lock()
        self._fast = Ring(self.config.fast)
        self._slow = Ring(self.config.slow)

    def record(self, op: str, status: str, latency_s: float) -> List[Dict[str, Any]]:
        """Account one request outcome; returns any alert transitions."""
        with self.lock:
            self.count(op, status, latency_s)
        return self.evaluate()

    def count(self, op: str, status: str, latency_s: float) -> None:
        """Commit one outcome's verdicts to both rings (:attr:`lock` held)."""
        fast, slow = self._fast.bucket(), self._slow.bucket()
        for state in self._states:
            objective = state.objective
            if objective.op is not None and objective.op != op:
                continue
            verdict = objective.classify(status, latency_s)
            if verdict is None:
                continue
            key = state.good if verdict else state.bad
            fast.add(key)
            slow.add(key)

    def _burns(self) -> List[Tuple[_ObjectiveState, Tuple[float, int], Tuple[float, int]]]:
        """Each objective's fast and slow (burn rate, events) now (lock held)."""
        fast, slow = self._fast.merged(), self._slow.merged()
        return [(state, state.burn(fast), state.burn(slow)) for state in self._states]

    def evaluate(self) -> List[Dict[str, Any]]:
        """Advance the state machine; returns new firing/resolved events."""
        threshold = self.config.burn_threshold
        transitions: List[Dict[str, Any]] = []
        with self.lock:
            for state, (fast_burn, fast_events), (slow_burn, _) in self._burns():
                if state.state == "ok":
                    if (
                        fast_events >= self.config.min_events
                        and fast_burn > threshold
                        and slow_burn > threshold
                    ):
                        state.state = "firing"
                        transitions.append(
                            self._event(state, "firing", fast_burn, slow_burn)
                        )
                elif fast_burn <= threshold:
                    state.state = "ok"
                    transitions.append(
                        self._event(state, "resolved", fast_burn, slow_burn)
                    )
        for event in transitions:
            self.alert_log.append(event)
        return transitions

    def _event(
        self,
        state: _ObjectiveState,
        transition: str,
        fast_burn: float,
        slow_burn: float,
    ) -> Dict[str, Any]:
        return {
            "schema": ALERTS_SCHEMA,
            "slo": state.objective.name,
            "transition": transition,
            "at_s": self.config.fast.clock(),
            "burn_fast": fast_burn,
            "burn_slow": slow_burn,
            "burn_threshold": self.config.burn_threshold,
            "objective": state.objective.to_dict(),
        }

    def burn_rates(self) -> Dict[str, Dict[str, Any]]:
        """Live per-objective burn rates and alert states (JSON-able)."""
        out: Dict[str, Dict[str, Any]] = {}
        with self.lock:
            for state, (fast_burn, fast_events), (slow_burn, slow_events) in self._burns():
                out[state.objective.name] = {
                    "objective": state.objective.to_dict(),
                    "budget": state.objective.budget,
                    "burn_fast": fast_burn,
                    "burn_slow": slow_burn,
                    "fast_events": fast_events,
                    "slow_events": slow_events,
                    "state": state.state,
                }
        return out

    def firing(self) -> List[str]:
        """Names of objectives currently in the ``firing`` state."""
        with self.lock:
            return [
                s.objective.name for s in self._states if s.state == "firing"
            ]


def default_objectives() -> Tuple[SLObjective, ...]:
    """The serving layer's objectives: 99 % of requests ok, and 99 % of
    the ok ones within 2.5 s."""
    return (
        SLObjective(name="availability", kind="availability", target=0.99),
        SLObjective(name="latency", kind="latency", target=0.99, threshold_s=2.5),
    )


__all__ = [
    "ALERTS_SCHEMA",
    "ALERT_STATES",
    "SLOConfig",
    "SLObjective",
    "SLOTracker",
    "SLO_KINDS",
    "default_objectives",
    "load_alert_log",
]
