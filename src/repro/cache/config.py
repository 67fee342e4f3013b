"""Cache configuration.

A :class:`CacheConfig` travels on :class:`~repro.core.config.HardwareConfig`
(and on engine constructors directly) so every engine - serial, batched, or
rebuilt inside a pool worker - knows exactly which caches to run and how
large.  It is frozen, hashable, and picklable: the parallel executor ships
the engine's configuration to workers, so coordinator and workers cannot
disagree about memoization.

Caching defaults to **off**: the caches only remove redundant work, but
off-by-default keeps every existing experiment and baseline bit-identical
unless a run opts in (``python -m repro.bench ... --cache``, or an explicit
``CacheConfig`` on the engine).  There is no process-wide default to
mutate: an engine built without a cache argument has every layer off.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheConfig:
    """Which memoization layers run, and how much each may retain."""

    #: Memoize hardware test verdicts per (op, method, pair, window, D).
    verdicts: bool = True
    #: Memoize per-polygon edge coverage masks per (polygon, window, width).
    renders: bool = True
    #: Memoize exact software decisions (plane sweep, minDist <= D).
    predicates: bool = True
    verdict_capacity: int = 4096
    render_capacity: int = 512
    predicate_capacity: int = 4096

    def __post_init__(self) -> None:
        for name in ("verdict_capacity", "render_capacity", "predicate_capacity"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @classmethod
    def disabled(cls) -> "CacheConfig":
        """The all-off configuration (what an unconfigured engine runs)."""
        return cls(verdicts=False, renders=False, predicates=False)

    @property
    def any_enabled(self) -> bool:
        return self.verdicts or self.renders or self.predicates


__all__ = ["CacheConfig"]
