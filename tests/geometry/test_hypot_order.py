"""The exactness argument of ``repro.geometry.hypot_order``, pinned.

The kernels rank by squared distance and take ``math.hypot`` only inside a
band of relative width ``SLACK``.  These tests hold the three things the
argument rests on: inside the band the two orders really do invert (literal
cases), a mutant without the band (``SLACK = 1.0``: a plain argmin of
squares) gets those cases wrong, and outside the range where the error
bounds hold every entry is evaluated.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.hypot_order import first_min_hypot, hypot_at_most
from tests.oracles.geometry import first_min_hypot_loop
from tests.strategies import HYPOT_FAR as FAR
from tests.strategies import HYPOT_NEAR as NEAR
from tests.strategies import lattices


def columns(*pairs):
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def test_the_literal_pair_inverts():
    assert NEAR[0] * NEAR[0] + NEAR[1] * NEAR[1] > FAR[0] * FAR[0] + FAR[1] * FAR[1]
    assert math.hypot(*NEAR) < math.hypot(*FAR)


class TestFirstMinHypot:
    def test_inverted_pair_is_ranked_by_hypot(self):
        assert first_min_hypot(*columns(FAR, NEAR, (3.0, 4.0))) == (1, math.hypot(*NEAR))

    def test_mutant_without_slack_fails_the_inverted_pair(self, no_slack):
        assert first_min_hypot(*columns(FAR, NEAR, (3.0, 4.0))) == (0, math.hypot(*FAR))

    def test_exact_ties_keep_the_first(self):
        # 3-4-5 in every sign and order: one hypot value, eight entries.
        ties = [(3.0, 4.0), (-4.0, 3.0), (4.0, -3.0), (-3.0, -4.0)] * 2
        assert first_min_hypot(*columns((6.0, 8.0), *ties)) == (1, 5.0)

    @pytest.mark.parametrize("scale", [1e-170, 1e-320, 1e160, 1e300])
    def test_guard_regimes_equal_the_loop(self, scale):
        # Squares underflow to zero / subnormals, or overflow to inf: the
        # ranking says nothing, so everything is evaluated.
        dx, dy = columns((3.0, 5.0), (3.0, 4.0), (4.0, 3.0), (2.0, 7.0))
        assert first_min_hypot(dx * scale, dy * scale) == first_min_hypot_loop(
            dx * scale, dy * scale
        )
        assert first_min_hypot(dx * scale, dy * scale)[0] == 1

    def test_zero_minimum_evaluates_every_entry(self):
        # s_min == 0 twice over: a true zero and an underflowed 1e-170.
        assert first_min_hypot(*columns((1e-170, 0.0), (0.0, 0.0), (1.0, 1.0))) == (1, 0.0)
        assert first_min_hypot(*columns((1e-170, 0.0), (2e-170, 0.0))) == (0, 1e-170)

    def test_nan_entries_are_skipped_like_the_loop(self):
        nan = math.nan
        assert first_min_hypot(*columns((nan, 1.0), (3.0, 4.0), (nan, nan))) == (1, 5.0)
        assert first_min_hypot(*columns((nan, 1.0), (1.0, nan))) == (-1, math.inf)

    @given(st.data())
    def test_equals_the_loop_on_lattices(self, data):
        cells = data.draw(lattices)
        n = data.draw(st.integers(1, 12))
        origin = data.draw(cells)
        dx = np.array([data.draw(cells) - origin for _ in range(n)])
        dy = np.array([data.draw(cells) - origin for _ in range(n)])
        assert first_min_hypot(dx, dy) == first_min_hypot_loop(dx, dy)


class TestHypotAtMost:
    def test_inverted_pair_is_decided_by_hypot(self):
        # FAR's square is <= hypot(NEAR)**2, its hypot is not <= hypot(NEAR).
        bound = math.hypot(*NEAR)
        assert hypot_at_most(*columns(FAR, NEAR, (0.1, 0.1), (3.0, 4.0)), bound).tolist() == [
            False, True, True, False,
        ]

    def test_mutant_without_slack_fails_the_inverted_pair(self, no_slack):
        assert hypot_at_most(*columns(FAR), math.hypot(*NEAR)).tolist() == [True]

    @pytest.mark.parametrize("bound", [0.0, 1e-170, 2e-170, 1e160, math.inf])
    def test_guard_regimes_equal_the_scalar_test(self, bound):
        pairs = [(0.0, 0.0), (1e-170, 0.0), (1.5e-170, 1.5e-170), (1.0, 1.0), (1e160, 1e160)]
        expected = [math.hypot(x, y) <= bound for x, y in pairs]
        assert hypot_at_most(*columns(*pairs), bound).tolist() == expected

    @given(st.data())
    def test_equals_the_scalar_test_with_the_bound_on_an_entry(self, data):
        cells = data.draw(lattices)
        n = data.draw(st.integers(1, 12))
        origin = data.draw(cells)
        dx = np.array([data.draw(cells) - origin for _ in range(n)])
        dy = np.array([data.draw(cells) - origin for _ in range(n)])
        i = data.draw(st.integers(0, n - 1))
        bound = math.hypot(dx[i], dy[i])
        for at in (bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)):
            expected = [math.hypot(x, y) <= at for x, y in zip(dx, dy)]
            assert hypot_at_most(dx, dy, at).tolist() == expected
