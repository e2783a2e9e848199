from fractions import Fraction

import pytest

from troplane.errors import ParseError
from troplane.matrices import TropMatrix3
from troplane.scalars import (
    TropScalar,
    plane_norm,
    t_add,
    t_mul,
    trop_distance,
)


def test_add_is_max():
    assert t_add(Fraction(3), Fraction(-2)) == 3
    assert t_add(Fraction(1, 2), Fraction(2, 3)) == Fraction(2, 3)
    assert t_add(None, Fraction(5)) == 5
    assert t_add(None, None) is None


def test_mul_is_plus():
    assert t_mul(Fraction(3), Fraction(-2)) == 1
    assert t_mul(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
    assert t_mul(None, Fraction(5)) is None
    assert t_mul(Fraction(7), Fraction(0)) == 7


def test_parse_round_trip():
    for text in ["-inf", "0", "7", "-3/4", "22/7"]:
        assert str(TropScalar.parse(text)) == text


def test_matrix_from_parsed_literals():
    rows = [["0", "-inf", "1/2"], ["-3", "0", "-inf"], ["7", "-2/3", "0"]]
    m = TropMatrix3(tuple(tuple(TropScalar.parse(e) for e in r) for r in rows))
    assert m == TropMatrix3.of([[0, None, "1/2"], [-3, 0, None],
                                [7, "-2/3", 0]])
    assert str(m) == "[0 -inf 1/2; -3 0 -inf; 7 -2/3 0]"


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
