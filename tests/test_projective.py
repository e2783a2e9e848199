import random
from fractions import Fraction

import pytest

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
    span_segment,
)
from troplane.scalars import BOTTOM, TropScalar, t_add, t_mul, trop


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


def test_span_segment_endpoints_on_segment():
    seg = span_segment(point(0, 0, 0), point(5, 1, 0))
    pts = seg.leg_points()
    assert pts[0] == AffinePoint(Fraction(0), Fraction(0))
    assert pts[-1] == AffinePoint(Fraction(5), Fraction(1))


def test_collinear():
    p, q = point(0, 0, 0), point(4, 1, 0)
    line = TropLine(cross(p, q))
    a1, a2, a3 = (line.coeffs[i].value for i in range(3))
    r = point(a3 - a1, a3 - a2, 0)
    assert collinear(p, q, r)
    assert not collinear(point(0, 0, 0), point(5, 0, 0), point(0, 5, 0))


def test_point_with_all_bottom_rejected():
    with pytest.raises(DegenerateError):
        point(None, None, None)


# --- Differential test against the scalar semiring -------------------------
# The point primitives work on Fraction | None triples; the reference below
# recomputes each from TropScalars with t_add/t_mul.  Coordinates are -inf
# with probability 1/4, so every -inf branch is reached.

def _rand_coord(rng):
    return None if rng.random() < 0.25 else Fraction(rng.randint(-6, 6),
                                                     rng.choice((1, 2, 3)))


def _rand_point(rng):
    while True:
        coords = [_rand_coord(rng) for _ in range(3)]
        if coords != [None] * 3:
            return point(*coords)


def _scalars(p):
    return tuple(p[i] for i in range(3))


def _ref_canonical(s):
    top = max(x for x in s if not x.is_bottom)
    return tuple(t_mul(x, -top) for x in s)


def _ref_cross(p, q):
    return tuple(t_add(t_mul(p[i], q[j]), t_mul(q[i], p[j]))
                 for i, j in ((1, 2), (0, 2), (0, 1)))


def _ref_on_line(q, line):
    terms = [t_mul(line.coeffs[j], q[j]) for j in range(3)]
    return sum(1 for t in terms if t == max(terms)) >= 2


def _raises(exc_type, message, call, *args):
    with pytest.raises(exc_type) as info:
        call(*args)
    assert str(info.value) == message


def test_point_primitives_match_scalar_reference():
    rng = random.Random(606)
    for _ in range(600):
        p, q = _rand_point(rng), _rand_point(rng)
        assert all(isinstance(x, TropScalar) for x in _scalars(p))
        assert str(p) == "[" + ", ".join(map(str, _scalars(p))) + "]"

        ref = _ref_cross(p, q)
        if all(c == BOTTOM for c in ref):
            _raises(DegenerateError, "cross product has no finite coordinate",
                    cross, p, q)
        else:
            line = TropLine(cross(p, q))
            assert _scalars(line.coeffs) == ref
            assert on_line(q, line) == _ref_on_line(q, line)
        assert on_line(q, TropLine(p)) == _ref_on_line(q, TropLine(p))

        x, y, z = _scalars(p)
        if z.is_bottom:
            _raises(BoundaryPointError,
                    "chart undefined: third coordinate is -inf", chart, p)
        elif x.is_bottom or y.is_bottom:
            _raises(BoundaryPointError,
                    "chart image would need a -inf coordinate", chart, p)
        else:
            assert chart(p) == AffinePoint(t_mul(x, -z).value,
                                           t_mul(y, -z).value)

        if p.all_finite():
            assert _scalars(-p) == tuple(-c for c in _scalars(p))
        else:
            _raises(BoundaryPointError,
                    "cannot negate a point with a -inf coordinate",
                    p.__neg__)

        shift = trop(Fraction(rng.randint(-9, 9), 2))
        for r in (q, point(*(t_mul(c, shift).value for c in _scalars(p)))):
            same = _ref_canonical(_scalars(p)) == _ref_canonical(_scalars(r))
            assert (p == r) == same
            if same:
                assert hash(p) == hash(r)
    _raises(DegenerateError, "projective point needs a finite coordinate",
            point, None, None, None)
