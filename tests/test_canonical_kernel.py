"""The scaled-integer canonical-form kernel against the Fraction oracle.

``fraction_oracle`` is the same orbit search run on ``Fraction`` entries.
Both must return the same parameters, the same P and Q, and the same F, and
the kernel's result must pass the algebraic checks of
``fraction_oracle.first_difference`` (F = P (.) A (.) Q, F (.) F = L,
idempotency, invariance), the check ``tests/grid_sweep.py`` runs on every
matrix in {-1, 0, 1}^9.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import fraction_oracle as oracle
import scalar_reference as ref
from troplane.errors import (
    InternalInconsistencyError,
    NonFiniteEntryError,
    NotIdempotentError,
)
from troplane.matrices import MonomialMatrix, TropMatrix3, power, scale, scaled
from troplane.normalform import _idempotent, normalize
from troplane.randgen import rand_matrix

PAIR_COUNTS = (6, 12, 18, 24, 36)


def _idempotent_params(b):
    """The kernel's (d, dv, M) for B, on B's scaled grid, divided back."""
    s = 3 * scale(b)
    d, dv, mono = _idempotent(scaled(b, s))
    return (Fraction(d, s), tuple(Fraction(v, s) for v in dv),
            MonomialMatrix(mono.perm, tuple(Fraction(x, s) for x in mono.offsets)))


def _same_as_oracle(a):
    field = oracle.first_difference(a)
    assert field is None, (field, a.values)


def test_generic_matrices_match_oracle():
    rng = random.Random(41)
    for _ in range(150):
        _same_as_oracle(rand_matrix(rng))


def test_large_numerators_match_oracle():
    rng = random.Random(42)
    for _ in range(40):
        _same_as_oracle(TropMatrix3.of(
            [[ref.large(rng) for _ in range(3)] for _ in range(3)]))


def test_tie_matrices_match_oracle_at_every_pair_count():
    rng = random.Random(43)
    cube = list(itertools.product((-1, 0, 1), repeat=9))
    rng.shuffle(cube)
    seen = Counter()
    for e in cube:
        a = TropMatrix3.of([e[0:3], e[3:6], e[6:9]])
        pairs = len(list(oracle._admissible_pairs(a)))
        if seen[pairs] == 6:
            continue
        seen[pairs] += 1
        _same_as_oracle(a)
        if all(seen[k] == 6 for k in PAIR_COUNTS):
            break
    assert sorted(seen) == list(PAIR_COUNTS)
    assert all(seen[k] == 6 for k in PAIR_COUNTS)


def test_normalize_and_idempotent_match_oracle():
    rng = random.Random(44)
    for _ in range(60):
        a = rand_matrix(rng)
        rows = [list(r) for r in a.values]
        for k in rng.sample(range(9), rng.randint(0, 3)):
            if k // 3 != k % 3:  # keep the diagonal, so rows stay finite
                rows[k // 3][k % 3] = None
        b = TropMatrix3.of(rows)
        assert normalize(b) == oracle.normalize(b)
        square = power(normalize(a).N, 2)
        assert _idempotent_params(square) == oracle.canonical_idempotent(square)


def test_side_lengths_off_the_lattice_are_an_internal_error():
    # L(1/3, (0, 0, 1)) unscaled: t4 - t3 = 1, which the factor 3 of the
    # scale would have made divisible by 3
    with pytest.raises(InternalInconsistencyError):
        _idempotent([[0, 0, 0], [-1, 0, 0], [-2, -2, 0]])
    assert _idempotent([[0, 0, 0], [-3, 0, 0], [-6, -6, 0]])[:2] == (1, (0, 0, 3))


def test_canonical_idempotent_rejects_bad_input_in_order():
    # not normal: positive entry, and a -inf that the normality test sees first
    for rows in ([[0, 1, 0], [-1, 0, 0], [-1, -1, 0]],
                 [[0, 1, None], [-1, 0, 0], [-1, -1, 0]]):
        with pytest.raises(NotIdempotentError, match="normal"):
            _idempotent_params(TropMatrix3.of(rows))
    # normal, not idempotent: also with a -inf entry
    for rows in ([[0, -1, -5], [-1, 0, -1], [-1, -1, 0]],
                 [[0, -1, None], [-1, 0, -1], [-1, -1, 0]]):
        b = TropMatrix3.of(rows)
        assert power(b, 2) != b
        with pytest.raises(NotIdempotentError, match="not idempotent"):
            _idempotent_params(b)
    # normal and idempotent with a -inf entry
    for rows in ([[0, None, None], [None, 0, None], [None, None, 0]],
                 [[0, -1, None], [-1, 0, None], [-1, -1, 0]]):
        b = TropMatrix3.of(rows)
        assert power(b, 2) == b
        with pytest.raises(NonFiniteEntryError):
            _idempotent_params(b)
