import itertools
import random
from fractions import Fraction

import pytest

import fraction_oracle as oracle
from troplane.errors import NonFiniteEntryError, ParameterRangeError
from troplane.matrices import (
    MonomialMatrix,
    TropMatrix3,
    is_normal,
    monomial_act,
    mul,
    power,
)
from troplane.normalform import canonical_form, make_F, make_L, params, read_params
from troplane.projective import AffinePoint, chart, point
from troplane.randgen import rand_matrix
from troplane.triangle import (
    analyze,
    hrep_idempotent,
    is_good,
    is_pinwheel,
    member,
    origin_in_soma,
    soma_dimension,
)
from troplane.verify import _column_normalizer

PINWHEEL_A = TropMatrix3.of([[0, 1, 3], [0, 3, 4], [0, 0, 0]])
TWO_ANTENNA = TropMatrix3.of([[0, -5, 0], [-7, 0, 0], [-6, -1, 0]])


def test_is_good():
    assert is_good(make_L(3, (9, 2, 4)))
    assert is_good(make_L(1, (1, 2, 3)))
    assert not is_good(PINWHEEL_A)


def test_soma_dimension():
    assert soma_dimension(params(0, (0, 0, 0))) == 0
    assert soma_dimension(params(0, (0, 0, 1))) == 1
    assert soma_dimension(params(0, (1, 0, 0))) == 1
    assert soma_dimension(params(0, (1, 2, 3))) == 2
    assert soma_dimension(params(1, (0, 0, 0))) == 2


def test_analyze_two_antenna_example():
    rep = analyze(TWO_ANTENNA)
    assert not rep.pinwheel
    assert not rep.convex
    got = sorted((a.direction, a.length, chart(a.base)) for a in rep.antennas)
    assert got == [
        ("S", Fraction(1), AffinePoint(Fraction(6), Fraction(0))),
        ("W", Fraction(4), AffinePoint(Fraction(0), Fraction(1))),
    ]


def test_analyze_antenna_tips_on_triangle():
    rep = analyze(PINWHEEL_A)
    assert rep.pinwheel
    for ant in rep.antennas:
        assert member(ant.tip, PINWHEEL_A)

    # on a canonical form the span of the square is exactly the soma,
    # so antenna tips sit on the triangle but outside it
    f = make_F(rep.params)
    for ant in analyze(f).antennas:
        assert member(ant.tip, f)
        assert not member(ant.tip, power(f, 2))


def test_is_pinwheel():
    assert is_pinwheel(PINWHEEL_A)
    assert not is_pinwheel(TWO_ANTENNA)
    assert is_pinwheel(make_L(1, (1, 1, 1)))


def test_is_pinwheel_is_universal_over_normalizations():
    # pinwheel: no admissible normalization gives a canonical candidate
    # with g > 0, checked against every candidate of the Fraction oracle
    rng = random.Random(2102)
    cube = list(itertools.product((-1, 0, 1), repeat=9))
    rng.shuffle(cube)
    inputs = [rand_matrix(rng) for _ in range(30)]
    inputs += [TropMatrix3.of([e[0:3], e[3:6], e[6:9]]) for e in cube[:30]]
    mixed = 0
    for a in inputs:
        gs = {c.params.g for c in (oracle._try_candidate(a, pi, tau)
                                   for pi, tau in oracle._admissible_pairs(a))
              if c is not None}
        assert is_pinwheel(a) == (gs == {0}), a
        mixed += 0 in gs and len(gs) > 1
    assert mixed > 0  # some inputs have candidates both with and without g


def test_pinwheel_is_not_read_off_one_normalization():
    f = make_F(params(0, (0, 0, 0), (0, 0, 1), 0))
    assert f == TropMatrix3.of([[0, 0, -1], [0, 0, 0], [0, 0, 0]])
    assert read_params(f).g == 0
    assert canonical_form(f).params == params(0, (0, 0, 0), (0, 0, 0), 1)
    assert not is_pinwheel(f)
    assert not analyze(f).pinwheel


def test_origin_in_soma():
    assert origin_in_soma(make_L(3, (9, 2, 4)))
    assert not origin_in_soma(PINWHEEL_A)
    assert origin_in_soma(TropMatrix3.of([[0] * 3] * 3))


def test_origin_in_soma_needs_distinct_row_column_maxima():
    # swapping two columns of a normal matrix keeps the origin in the soma
    # but breaks normality; the column maxima stay on distinct rows
    ident = MonomialMatrix.identity()
    swap = MonomialMatrix((1, 0, 2), (0, 0, 0))
    swapped = monomial_act(ident, make_L(3, (9, 2, 4)), swap)
    assert origin_in_soma(swapped)
    assert not is_normal(swapped)
    q = _column_normalizer(swapped)
    assert q is not None
    assert is_normal(monomial_act(ident, swapped, q))

    # the rows attaining the column maxima cover all rows, so the origin is
    # in the span, but columns 1 and 2 both peak only on row 0
    ties = TropMatrix3.of([[0, 0, 0], [0, -2, -2], [0, -2, -2]])
    assert member(point(0, 0, 0), ties)
    assert not origin_in_soma(ties)
    assert _column_normalizer(ties) is None


def test_origin_in_soma_requires_finite():
    with pytest.raises(NonFiniteEntryError):
        origin_in_soma(TropMatrix3.of([[0, None, 0], [0, 0, 0], [0, 0, 0]]))


def test_member():
    l = make_L(3, (9, 2, 4))
    for j in range(3):
        assert member(l.column(j), l)
    assert not member(point(100, -100, 0), l)


def test_hrep_reference_bounds():
    h = hrep_idempotent(3, (9, 2, 4))
    assert (h.x_min, h.x_max) == (-10, 12)
    assert (h.y_min, h.y_max) == (-7, 8)
    assert (h.diff_min, h.diff_max) == (-15, 5)
    assert h.contains(AffinePoint(Fraction(0), Fraction(0)))
    assert not h.contains(AffinePoint(Fraction(13), Fraction(0)))


def test_hrep_degenerate_point():
    h = hrep_idempotent(0, (0, 0, 0))
    assert h.contains(AffinePoint(Fraction(0), Fraction(0)))
    assert (h.x_min, h.x_max, h.y_min, h.y_max) == (0, 0, 0, 0)


def test_hrep_rejects_negative_params():
    with pytest.raises(ParameterRangeError):
        hrep_idempotent(-1, (0, 0, 0))


def test_hrep_matches_projector_membership():
    l = make_L(1, (2, 0, 1))
    h = hrep_idempotent(1, (2, 0, 1))
    for x in range(-5, 6):
        for y in range(-5, 6):
            p = AffinePoint(Fraction(x), Fraction(y))
            assert h.contains(p) == member(point(x, y, 0), l)


def test_soma_vertices_of_canonical_L():
    rep = analyze(make_L(3, (9, 2, 4)))
    assert set(rep.soma_vertices_chart) == {
        AffinePoint(Fraction(12), Fraction(-3)),
        AffinePoint(Fraction(3), Fraction(8)),
        AffinePoint(Fraction(-10), Fraction(-7)),
    }
