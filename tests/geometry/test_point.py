"""Unit tests for the Point primitive."""

import copy
import pickle

import pytest

from repro.geometry import Point


class TestConstruction:
    def test_coerces_to_float(self):
        p = Point(1, 2)
        assert isinstance(p.x, float)
        assert isinstance(p.y, float)

    def test_immutable(self):
        p = Point(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 3.0

    def test_copies_despite_immutability(self):
        # __reduce__ rebuilds through the constructor, not __setattr__.
        p = Point(1.5, -2.0)
        for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert clone == p

    def test_repr_round_numbers(self):
        assert repr(Point(1.5, -2.0)) == "Point(1.5, -2)"

    def test_as_tuple_and_iter(self):
        p = Point(3.0, 4.0)
        assert p.as_tuple() == (3.0, 4.0)
        assert tuple(p) == (3.0, 4.0)


class TestValueSemantics:
    def test_equality(self):
        assert Point(1.0, 2.0) == Point(1, 2)
        assert Point(1.0, 2.0) != Point(2.0, 1.0)

    def test_equality_against_other_types(self):
        assert Point(1.0, 2.0) != (1.0, 2.0)

    def test_hash_consistency(self):
        assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
        assert len({Point(0, 0), Point(0.0, 0.0), Point(0, 1)}) == 2


class TestArithmetic:
    def test_add_sub(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_scalar_multiplication_both_sides(self):
        assert Point(1, -2) * 3 == Point(3, -6)
        assert 3 * Point(1, -2) == Point(3, -6)

    def test_negation(self):
        assert -Point(1, -2) == Point(-1, 2)

    def test_cross(self):
        assert Point(1, 0).cross(Point(0, 1)) == 1.0
        assert Point(0, 1).cross(Point(1, 0)) == -1.0


class TestMetric:
    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)
