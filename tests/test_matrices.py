import random
from fractions import Fraction

import pytest

import scalar_reference as ref
from troplane.errors import InvalidMatrixError, NonFiniteEntryError
from troplane.matrices import (
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
from troplane.randgen import rand_monomial
from troplane.scalars import t_mul

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
    sq = TropMatrix3.of(ref.mul(a.values, a.values))
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
    rng = random.Random(707)
    for n in range(600):
        p = ref.point(rng, 0.25 if n % 2 else 0.0)
        m = rand_monomial(rng)
        got = m.apply(p).values
        assert got == tuple(t_mul(m.offsets[i], p.values[m.perm[i]])
                            for i in range(3))
        assert got == ref.apply(m.to_matrix().values, p.values)


def test_monomial_act_matches_dense_products():
    rng = random.Random(11)
    for _ in range(300):
        a = ref.matrix(rng, 1 / 3)
        p, q = rand_monomial(rng), rand_monomial(rng)
        dense_p, dense_q = p.to_matrix().values, q.to_matrix().values
        assert monomial_act(p, a, q).values == ref.mul(
            ref.mul(dense_p, a.values), dense_q)
        assert p.conjugate(a).values == ref.mul(
            ref.mul(dense_p, a.values), p.inverse().to_matrix().values)


def test_mul_with_bottoms_matches_scalar_semiring():
    rng = random.Random(12)
    bottoms = 0
    for _ in range(300):
        a, b = ref.matrix(rng, 1 / 3), ref.matrix(rng, 1 / 3)
        got = mul(a, b).values
        assert got == ref.mul(a.values, b.values), (a, b)
        bottoms += sum(x is None for row in got for x in row)
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
