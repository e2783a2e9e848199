import random
from fractions import Fraction

import pytest

from troplane.errors import InvalidMatrixError, NonFiniteEntryError
from troplane.matrices import (
    CYCLIC,
    IDENTITY,
    MonomialMatrix,
    TropMatrix3,
    adjoint_hat,
    breve,
    chart0,
    is_monomial_pattern,
    is_normal,
    kleene_star,
    monomial_act,
    mul,
    power,
    scale,
    scaled,
    trop_det,
)
from troplane.projective import point
from troplane.randgen import rand_fraction, rand_monomial
from troplane.scalars import t_add, t_mul

L3924 = TropMatrix3.of([
    [0, -5, -10],
    [-15, 0, -7],
    [-12, -8, 0],
])  # make_L(3,(9,2,4)), written out
ZERO_MATRIX = TropMatrix3.of([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
P12 = MonomialMatrix((1, 0, 2), (Fraction(0),) * 3)


def test_mul_identity():
    assert mul(IDENTITY, L3924) == L3924
    assert mul(L3924, IDENTITY) == L3924


def test_power_chain_stabilizes():
    assert power(L3924, 2) == L3924  # idempotent
    a = TropMatrix3.of([[0, -1, -2], [0, 0, -2], [0, 0, 0]])
    assert power(a, 2) == power(a, 3)


def test_zero_matrix_collapses():
    p = point(4, -1, 2)
    img = mul(ZERO_MATRIX, TropMatrix3.from_columns(p, p, p))
    assert img.column(0) == point(0, 0, 0)


def test_chart0_subtracts_third_row():
    c = chart0(L3924)
    assert c.values[2] == (c.values[2][0],) * 3
    assert c.values[2][0] == 0
    assert c.values[0][0] == 12


def test_det_regularity():
    assert trop_det(IDENTITY).regular
    assert trop_det(IDENTITY).value == 0
    assert not trop_det(ZERO_MATRIX).regular


def test_normality():
    assert is_normal(L3924)
    assert is_normal(IDENTITY)
    assert not is_normal(TropMatrix3.of([[0, 1, 3], [0, 3, 4], [0, 0, 0]]))


def test_adjoint_breve_star_on_normal():
    a = TropMatrix3.of([[0, -1, -2], [0, 0, -3], [-1, 0, 0]])
    sq = power(a, 2)
    assert adjoint_hat(a) == sq
    assert a.entrywise_max(breve(a)) == sq
    assert kleene_star(a) == sq


def test_monomial_round_trip():
    m = MonomialMatrix((2, 0, 1), (Fraction(1), Fraction(-2), Fraction(3)))
    assert (m @ m.inverse()) == MonomialMatrix.identity()
    assert is_monomial_pattern(m.to_matrix())
    assert not is_monomial_pattern(L3924)


def test_monomial_apply_matches_matrix_action():
    p = point(3, -1, 0)
    assert P12.apply(p) == point(-1, 3, 0)
    assert CYCLIC.apply(p) == mul(CYCLIC.to_matrix(),
                                  TropMatrix3.from_columns(p, p, p)).column(0)


def _rand_matrix_with_bottoms(rng):
    """Valid matrix whose entries are -inf with probability 1/3."""
    while True:
        try:
            return TropMatrix3.of([[None if rng.random() < 1 / 3
                                    else rand_fraction(rng)
                                    for _ in range(3)] for _ in range(3)])
        except InvalidMatrixError:
            continue


def test_monomial_act_matches_dense_products():
    rng = random.Random(11)
    for _ in range(300):
        a = _rand_matrix_with_bottoms(rng)
        p, q = rand_monomial(rng), rand_monomial(rng)
        assert monomial_act(p, a, q) == mul(mul(p.to_matrix(), a), q.to_matrix())
        assert p.conjugate(a) == mul(mul(p.to_matrix(), a),
                                     p.inverse().to_matrix())


def _reference_mul(a, b):
    """The product written out over the scalar semiring."""
    a, b = a.values, b.values
    return TropMatrix3.of(
        [t_add(t_add(t_mul(a[i][0], b[0][j]), t_mul(a[i][1], b[1][j])),
               t_mul(a[i][2], b[2][j]))
         for j in range(3)]
        for i in range(3))


def test_mul_with_bottoms_matches_scalar_semiring():
    rng = random.Random(12)
    bottoms = 0
    for _ in range(300):
        a, b = _rand_matrix_with_bottoms(rng), _rand_matrix_with_bottoms(rng)
        got = mul(a, b)
        assert got == _reference_mul(a, b), (a, b)
        bottoms += sum(x is None for row in got.values for x in row)
    assert bottoms > 0  # some products keep a -inf entry


def test_scaled_grid_divided_by_its_scale_gives_the_values_back():
    rng = random.Random(13)
    for k in range(200):
        big = k % 2 == 0
        a = TropMatrix3.of([[None if i != j and rng.random() < 1 / 4
                             else Fraction(rng.randint(-10**12, 10**12) if big
                                           else rng.randint(-12, 12),
                                           rng.choice((1, 2, 3, 5, 7, 9, 11)))
                             for j in range(3)] for i in range(3)])
        s = scale(a)
        for mult in (1, 3):
            grid = scaled(a, mult * s)
            assert all(x is None or type(x) is int for row in grid for x in row)
            back = tuple(tuple(None if x is None else Fraction(x, mult * s)
                               for x in row) for row in grid)
            assert back == a.values


def test_require_finite():
    withinf = TropMatrix3.of([[0, None, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NonFiniteEntryError):
        withinf.require_finite("test")


def test_all_bottom_row_rejected():
    with pytest.raises(InvalidMatrixError):
        TropMatrix3.of([[None, None, None], [0, 0, 0], [0, 0, 0]])
