"""Property test for the ambient observability scope.

One generated plan per control flow: a nest of ``use_scope`` steps, each
either overriding some facilities (possibly with an explicit ``None``) or
starting blank.  The plans run concurrently - once as threads meeting at a
barrier between every enter and exit, once as asyncio tasks yielding to
each other at the same points - so entries and exits of different flows
interleave, and every flow must see exactly its own model at every point.
"""

import asyncio
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import ObsScope, current_scope, use_scope

FIELDS = ("tracer", "registry", "recorder")
BLANK = dict.fromkeys(FIELDS)
JOIN_TIMEOUT_S = 30.0

steps = st.tuples(
    st.booleans(),
    st.fixed_dictionaries(
        {}, optional={name: st.sampled_from([None, "a", "b"]) for name in FIELDS}
    ),
)


@st.composite
def concurrent_plans(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    plan = st.lists(steps, min_size=depth, max_size=depth)
    return draw(st.lists(plan, min_size=2, max_size=3))


def view():
    scope = current_scope()
    return {name: getattr(scope, name) for name in FIELDS}


def walk(plan, base):
    """Enter ``plan`` step by step, yielding wherever another flow may run."""
    assert view() == base
    if not plan:
        return
    (blank, facilities), rest = plan[0], plan[1:]
    inner = {**(BLANK if blank else base), **facilities}
    with use_scope(blank=blank, **facilities):
        yield
        yield from walk(rest, inner)
        yield
        assert view() == inner
    yield
    assert view() == base


def run_in_threads(plans):
    barrier = threading.Barrier(len(plans))
    errors = []

    def flow(plan):
        try:
            # A new thread starts blank, whatever its creator has in scope.
            for _ in walk(plan, BLANK):
                barrier.wait(JOIN_TIMEOUT_S)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the test
            barrier.abort()
            errors.append(exc)

    threads = [threading.Thread(target=flow, args=(plan,)) for plan in plans]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        assert not thread.is_alive()
    failures = [e for e in errors if not isinstance(e, threading.BrokenBarrierError)]
    if failures:
        raise failures[0]


def run_in_tasks(plans, base):
    async def flow(plan):
        # A task starts from a copy of its creator's scope.
        for _ in walk(plan, base):
            await asyncio.sleep(0)

    async def main():
        await asyncio.gather(*(flow(plan) for plan in plans))

    asyncio.run(main())


@settings(max_examples=40)
@given(concurrent_plans())
@example([[(False, {"tracer": None})], [(True, {})]])
def test_every_flow_sees_exactly_its_own_nest(plans):
    outer = {"tracer": "t", "registry": "m", "recorder": "r"}
    with use_scope(**outer):
        run_in_threads(plans)
        assert view() == outer
        run_in_tasks(plans, outer)
        assert view() == outer
    assert current_scope() == ObsScope()


def test_unknown_facility_is_rejected():
    with pytest.raises(TypeError):
        with use_scope(metrics=None):
            pass
