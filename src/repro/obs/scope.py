"""The ambient observability scope: one ``ContextVar`` for every facility.

Instrumentation sites never receive a tracer, a metrics registry, a GPU
command recorder as an argument; they read the
:class:`ObsScope` of the control flow they run in and take the fields they
need::

    scope = current_scope()
    if scope.tracer is not None:
        scope.tracer.record("gpu.tile_batch", seconds)

A facility that is ``None`` is off, which is the default for all three: the
cost of disabled observability is one ``ContextVar`` read and a ``None``
check per site.

:func:`use_scope` is the only way to change the scope.  It is
token-restored, so nested scopes unwind exactly and concurrent threads and
asyncio tasks never observe each other's facilities; a new thread starts
from the blank scope, an asyncio task from a copy of its creator's.
Keyword arguments override the named facilities and inherit the rest
(an explicit ``None`` switches one off); ``blank=True`` inherits nothing,
which is what code that must be invisible to its caller's observability
uses - capture replay, whose re-executed commands must not be recorded,
traced or counted as the run's own.

Nothing here is process-global: a scope ends with its ``with`` block.

The module imports nothing from the rest of :mod:`repro` at run time, so
any layer may depend on it without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, ContextManager, Iterator, Optional

if TYPE_CHECKING:
    from .capture import CommandRecorder
    from .metrics import MetricsRegistry
    from .trace import Tracer


@dataclass(frozen=True)
class ObsScope:
    """The observability facilities in force for one control flow."""

    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    recorder: Optional[CommandRecorder] = None


_BLANK = ObsScope()
_SCOPE: ContextVar[ObsScope] = ContextVar("repro_obs_scope", default=_BLANK)


def current_scope() -> ObsScope:
    """The scope of the calling thread / asyncio task."""
    return _SCOPE.get()


@contextmanager
def use_scope(*, blank: bool = False, **facilities: Any) -> Iterator[ObsScope]:
    """Run a block under the current scope with ``facilities`` replaced.

    ``facilities`` are :class:`ObsScope` field names.  With ``blank=True``
    the fields not named are ``None`` instead of inherited.
    """
    scope = replace(_BLANK if blank else _SCOPE.get(), **facilities)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def use_tracer(tracer: Optional[Tracer]) -> ContextManager[ObsScope]:
    """``use_scope(tracer=tracer)``."""
    return use_scope(tracer=tracer)


def use_registry(registry: Optional[MetricsRegistry]) -> ContextManager[ObsScope]:
    """``use_scope(registry=registry)``."""
    return use_scope(registry=registry)


def use_recorder(recorder: Optional[CommandRecorder]) -> ContextManager[ObsScope]:
    """``use_scope(recorder=recorder)``."""
    return use_scope(recorder=recorder)


__all__ = [
    "ObsScope",
    "current_scope",
    "use_recorder",
    "use_registry",
    "use_scope",
    "use_tracer",
]
