import itertools
import random
from fractions import Fraction

import pytest

from troplane.errors import (
    NotCanonicalError,
    ParameterRangeError,
)
from troplane.matrices import (
    IDENTITY,
    TropMatrix3,
    grid_act,
    is_normal,
    mul,
    power,
    scaled,
)
from troplane.normalform import (
    _idempotent,
    canonical_form,
    make_F,
    make_L,
    normalize,
    params,
    read_params,
    validate_params,
)
from troplane.randgen import rand_matrix, rand_monomial, rand_normal

PINWHEEL_A = TropMatrix3.of([[0, 1, 3], [0, 3, 4], [0, 0, 0]])
TWO_ANTENNA = TropMatrix3.of([[0, -5, 0], [-7, 0, 0], [-6, -1, 0]])


def test_make_L_entries():
    assert make_L(3, (9, 2, 4)) == TropMatrix3.of(
        [[0, -5, -10], [-15, 0, -7], [-12, -8, 0]])
    assert make_L(0, (0, 0, 0)) == TropMatrix3.of([[0] * 3] * 3)


def test_make_F_reference_value():
    f = make_F(params(Fraction(1, 3), (0, 0, 1), (0, 1, 1), 0))
    expect = TropMatrix3.of([
        [0, Fraction(-1, 3), Fraction(-8, 3)],
        [Fraction(-2, 3), 0, Fraction(-4, 3)],
        [Fraction(-1, 3), Fraction(-5, 3), 0],
    ])
    assert f == expect


def test_validate_params_catches_violations():
    assert validate_params(params(1, (0, 0, 0))) == []
    assert validate_params(params(-1, (0, 0, 0)))
    assert validate_params(params(0, (1, 0, 0), (0, 1, 0), 0))  # h2>0 needs d1=0
    assert validate_params(params(0, (0, 0, 0), (1, 0, 0), 1))  # g>0 needs h1=0


def test_normalize_produces_normal_factorization():
    n = normalize(PINWHEEL_A)
    assert is_normal(n.N)
    assert n.N == mul(mul(n.P.to_matrix(), PINWHEEL_A), n.Q.to_matrix())


def test_normalize_is_identity_on_normal_input():
    l = make_L(3, (9, 2, 4))
    n = normalize(l)
    assert n.N == l
    assert n.P.to_matrix() == IDENTITY
    assert n.Q.to_matrix() == IDENTITY
    # seeded normal inputs: off the diagonal -inf, the ties 0 and -1, or a
    # rand_normal draw, each with probability 1/4
    rng = random.Random(44)
    for _ in range(300):
        grid = [list(row) for row in rand_normal(rng).values]
        for i, j in itertools.permutations(range(3), 2):
            grid[i][j] = rng.choice((None, 0, -1, grid[i][j]))
        a = TropMatrix3.of(grid)
        n = normalize(a)
        assert (n.N, n.P.to_matrix(), n.Q.to_matrix()) == (a, IDENTITY, IDENTITY)


def test_canonical_idempotent_params():
    # the kernel runs on the grid scaled by 3 * scale(n2) = 3
    n2 = TropMatrix3.of([[0, 0, 0], [-1, 0, 0], [-2, -2, 0]])
    d, dv, mono = _idempotent(scaled(n2, 3))
    assert (d, dv) == (1, (0, 0, 3))  # (1/3, (0, 0, 1)) times 3
    assert grid_act(mono.inverse(), scaled(n2, 3), mono) == scaled(
        make_L(Fraction(1, 3), (0, 0, 1)), 3)


def test_canonical_form_pinwheel_example():
    result = canonical_form(PINWHEEL_A)
    assert result.params == params(Fraction(1, 3), (0, 0, 1), (0, 1, 1), 0)
    assert result.F == make_F(result.params)
    assert result.F == mul(mul(result.P.to_matrix(), PINWHEEL_A),
                           result.Q.to_matrix())


def test_canonical_form_two_antenna_example():
    result = canonical_form(TWO_ANTENNA)
    assert result.params == params(0, (0, 6, 1), (0, 1, 0), 4)


def test_canonical_form_invariance_sample():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_matrix(rng)
        base = canonical_form(a).params
        p, q = rand_monomial(rng), rand_monomial(rng)
        b = mul(mul(p.to_matrix(), a), q.to_matrix())
        assert canonical_form(b).params == base


def test_read_params_round_trip():
    p = params(Fraction(1, 2), (0, 1, 2), (0, 3, 0), 0)
    assert read_params(make_F(p)) == p
    p = params(0, (0, 2, 3), (0, 1, 0), 2)
    assert read_params(make_F(p)) == p


def test_read_params_rejects_non_canonical():
    with pytest.raises(NotCanonicalError):
        read_params(PINWHEEL_A)


def test_make_F_rejects_invalid_params():
    with pytest.raises(ParameterRangeError):
        make_F(params(-1, (0, 0, 0)))
    with pytest.raises(ParameterRangeError):
        make_F(params(0, (0, 0, 0), (1, 0, 0), 1))


def test_square_of_canonical_is_model():
    p = params(0, (0, 6, 1), (0, 1, 0), 4)
    assert power(make_F(p), 2) == make_L(p.d, p.dv)


def test_canonical_form_is_idempotent():
    rng = random.Random(2101)
    inputs = [rand_matrix(rng) for _ in range(300)]
    for d, d1, d2, d3, h1, h2, h3, g in itertools.product((0, 1, 2), repeat=8):
        p = params(d, (d1, d2, d3), (h1, h2, h3), g)
        if not validate_params(p):
            inputs.append(make_F(p))
    assert len(inputs) == 300 + 429
    for a in inputs:
        result = canonical_form(a)
        assert canonical_form(result.F).params == result.params, a
