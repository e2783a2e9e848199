"""Seeded random generators for matrices, points and canonical parameters.

Everything draws from a caller-supplied random.Random so that identical seeds
reproduce identical trial sequences.  Values are small-denominator rationals
to keep exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .arrangement import enumerate_cells
from .matrices import MonomialMatrix, TropMatrix3
from .normalform import CanonicalParams
from .projective import ProjPoint, point

_DENOMS = (1, 1, 1, 2, 2, 3, 4, 6)


def rand_fraction(rng: random.Random, lo: int = -12, hi: int = 12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(_DENOMS))


def rand_matrix(rng: random.Random) -> TropMatrix3:
    """All-finite matrix with small rational entries."""
    return TropMatrix3.of([[rand_fraction(rng) for _ in range(3)]
                           for _ in range(3)])


def rand_normal(rng: random.Random) -> TropMatrix3:
    """Normal matrix: zero diagonal, nonpositive entries."""
    rows = [[rand_fraction(rng, -12, 0) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        rows[i][i] = Fraction(0)
    return TropMatrix3.of(rows)


def rand_monomial(rng: random.Random) -> MonomialMatrix:
    perm = list(range(3))
    rng.shuffle(perm)
    return MonomialMatrix(tuple(perm),
                          tuple(rand_fraction(rng, -8, 8) for _ in range(3)))


def rand_point(rng: random.Random) -> ProjPoint:
    return point(rand_fraction(rng, -15, 15), rand_fraction(rng, -15, 15),
                 rand_fraction(rng, -15, 15))


def rand_nonneg(rng: random.Random, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(0, hi), rng.choice(_DENOMS))


def rand_positive(rng: random.Random, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.choice(_DENOMS))


def rand_params(rng: random.Random) -> CanonicalParams:
    """Valid canonical parameters covering the plain, h-only and g cases."""
    case = rng.randrange(3)
    if case == 0:  # no antennas
        return CanonicalParams(rand_nonneg(rng),
                               tuple(rand_nonneg(rng) for _ in range(3)),
                               (Fraction(0),) * 3, Fraction(0))
    if case == 1:  # h-antennas, g = 0
        d = rand_nonneg(rng, 4)
        dv = [rand_nonneg(rng) for _ in range(3)]
        h = [Fraction(0)] * 3
        slots = [j for j in range(3) if rng.random() < 0.6] or [rng.randrange(3)]
        for j in slots:  # h_{j+1} > 0 forces d_j = 0
            h[(j + 1) % 3] = rand_positive(rng)
            dv[j] = Fraction(0)
        return CanonicalParams(d, tuple(dv), tuple(h), Fraction(0))
    # g-antenna: d = d1 = 0, h1 = h3 = 0; optionally h2 > 0
    dv = [Fraction(0), rand_nonneg(rng), rand_nonneg(rng)]
    h = [Fraction(0)] * 3
    if rng.random() < 0.5:
        h[1] = rand_positive(rng)
    return CanonicalParams(Fraction(0), tuple(dv), tuple(h),
                           rand_positive(rng))


def rand_generic_matrix(rng: random.Random) -> TropMatrix3:
    """Matrix whose line arrangement is generic (six distinct vertices)."""
    while True:
        m = TropMatrix3.of([[Fraction(rng.randint(-99991, 99991),
                                      rng.choice((1, 2, 3, 5, 7)))
                             for _ in range(3)] for _ in range(3)])
        vertices = [c.witness for c in enumerate_cells(m).cells if c.dim == 0]
        if len(vertices) == 6 and len({(v.x, v.y) for v in vertices}) == 6:
            return m
