import random
from fractions import Fraction

import pytest

from troplane.errors import InvalidMatrixError, NonFiniteEntryError
from troplane.matrices import (
    CYCLIC,
    IDENTITY,
    P12,
    ZERO_MATRIX,
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
    trop_det,
)
from troplane.projective import point
from troplane.randgen import rand_fraction, rand_monomial

L3924 = TropMatrix3.of([
    [0, -5, -10],
    [-15, 0, -7],
    [-12, -8, 0],
])  # make_L(3,(9,2,4)), written out


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
    assert c.rows[2] == (c.rows[2][0],) * 3
    assert c.rows[2][0].value == 0
    assert c.rows[0][0].value == 12


def test_det_regularity():
    assert trop_det(IDENTITY).regular
    assert trop_det(IDENTITY).value.value == 0
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
    assert MonomialMatrix.from_matrix(m.to_matrix()) == m
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


def test_require_finite():
    withinf = TropMatrix3.of([[0, None, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NonFiniteEntryError):
        withinf.require_finite("test")


def test_all_bottom_row_rejected():
    with pytest.raises(InvalidMatrixError):
        TropMatrix3.of([[None, None, None], [0, 0, 0], [0, 0, 0]])
