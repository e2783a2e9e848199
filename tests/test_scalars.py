from fractions import Fraction

import pytest

from troplane.errors import BottomArithmeticError, ParseError
from troplane.scalars import (
    BOTTOM,
    ZERO,
    TropScalar,
    plane_norm,
    t_add,
    t_mul,
    trop,
    trop_distance,
)


def test_add_is_max():
    assert t_add(trop(3), trop(-2)) == trop(3)
    assert t_add(trop(Fraction(1, 2)), trop(Fraction(2, 3))) == trop(Fraction(2, 3))
    assert t_add(BOTTOM, trop(5)) == trop(5)
    assert t_add(BOTTOM, BOTTOM) == BOTTOM


def test_mul_is_plus():
    assert t_mul(trop(3), trop(-2)) == trop(1)
    assert t_mul(trop(Fraction(1, 3)), trop(Fraction(1, 6))) == trop(Fraction(1, 2))
    assert t_mul(BOTTOM, trop(5)) == BOTTOM
    assert t_mul(trop(7), ZERO) == trop(7)


def test_negation_swaps_extremes():
    assert -trop(Fraction(5, 2)) == trop(Fraction(-5, 2))
    with pytest.raises(BottomArithmeticError):
        -BOTTOM


def test_ordering():
    assert BOTTOM < trop(-1000)
    assert trop(1) < trop(Fraction(3, 2))
    assert trop(2) <= trop(2)


def test_parse_round_trip():
    for text in ["-inf", "0", "7", "-3/4", "22/7"]:
        assert str(TropScalar.parse(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        TropScalar.parse("1/0")
    with pytest.raises(ParseError):
        TropScalar.parse("one")


def test_plane_norm_values():
    assert plane_norm(-5, -2) == 5
    assert plane_norm(-3, 5) == 8
    assert plane_norm(0, 0) == 0
    assert plane_norm(Fraction(1, 2), Fraction(-1, 2)) == 1


def test_distance_values():
    assert trop_distance((-2, -2), (0, 0)) == 2
    assert trop_distance((1, 5), (1, 5)) == 0
