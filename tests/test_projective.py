"""Points and lines of the tropical projective plane.

Pinned values for equality, chart, cross and collinearity, and a seeded
differential test of cross, on_line, chart and str, with -inf coordinates,
against ``scalar_reference``.  Point equality is checked against its
reference once, in test_map_kernels.py.
"""

import random
from fractions import Fraction

import pytest

import scalar_reference as ref
from troplane.errors import BoundaryPointError, DegenerateError
from troplane.projective import (
    AffinePoint,
    TropLine,
    chart,
    collinear,
    cross,
    embed,
    on_line,
    point,
)
from troplane.scalars import format_value, t_mul


def test_projective_equality_mod_scaling():
    assert point(1, 2, 3) == point(0, 1, 2)
    assert point(0, 0, 0) == point(2, 2, 2)
    assert point(1, 2, 3) != point(1, 2, 4)


def test_chart_and_embed_round_trip():
    p = point(5, -1, 2)
    c = chart(p)
    assert c == AffinePoint(Fraction(3), Fraction(-3))
    assert embed(c) == p


def test_chart_requires_finite_last_coordinate():
    with pytest.raises(BoundaryPointError):
        chart(point(0, 0, None))


def test_cross_reference_values():
    assert cross(point(3, 4, 6), point(-2, 0, 8)) == point(12, 11, 3)
    assert cross(point(-2, 0, 8), point(1, 1, 0)) == point(9, 9, 1)
    third = cross(point(12, 11, 3), point(9, 9, 1))
    assert third == point(-1, 0, 8)
    assert third != point(-2, 0, 8)


def test_cross_lands_on_both_lines():
    p, q = point(0, -4, 1), point(7, 2, 0)
    line = TropLine(cross(p, q))
    assert on_line(p, line)
    assert on_line(q, line)


def test_collinear():
    p, q = point(0, 0, 0), point(4, 1, 0)
    line = TropLine(cross(p, q))
    a1, a2, a3 = line.coeffs.values
    r = point(a3 - a1, a3 - a2, 0)
    assert collinear(p, q, r)
    assert not collinear(point(0, 0, 0), point(5, 0, 0), point(0, 5, 0))


def test_point_with_all_bottom_rejected():
    with pytest.raises(DegenerateError):
        point(None, None, None)


# --- Differential test against the scalar references -----------------------
# cross, on_line, chart and str work on Fraction | None triples; cross and
# on_line are compared with ``scalar_reference``, chart with t_mul.  Equality
# is checked in test_map_kernels.py.  Coordinates are -inf with probability
# 1/4, so every -inf branch is reached.

def _raises(exc_type, message, call, *args):
    with pytest.raises(exc_type) as info:
        call(*args)
    assert str(info.value) == message


def test_point_primitives_match_scalar_reference():
    rng = random.Random(606)
    for _ in range(600):
        p, q = ref.point(rng, 0.25), ref.point(rng, 0.25)
        assert str(p) == "[" + ", ".join(map(format_value, p.values)) + "]"

        expected = ref.cross(p.values, q.values)
        if all(c is None for c in expected):
            _raises(DegenerateError, "cross product has no finite coordinate",
                    cross, p, q)
        else:
            line = TropLine(cross(p, q))
            assert line.coeffs.values == expected
            assert on_line(q, line) == ref.on_line(q.values, expected)
        assert on_line(q, TropLine(p)) == ref.on_line(q.values, p.values)

        x, y, z = p.values
        if z is None:
            _raises(BoundaryPointError,
                    "chart undefined: third coordinate is -inf", chart, p)
        elif x is None or y is None:
            _raises(BoundaryPointError,
                    "chart image would need a -inf coordinate", chart, p)
        else:
            assert chart(p) == AffinePoint(t_mul(x, -z), t_mul(y, -z))
    _raises(DegenerateError, "projective point needs a finite coordinate",
            point, None, None, None)
