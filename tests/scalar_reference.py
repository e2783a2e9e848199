"""Scalar references for the map and point primitives, and the seeded inputs.

Each reference is written with ``scalars.t_add``/``t_mul`` alone, on
``Fraction | None`` values (None for -inf), with no grid code of
``troplane.matrices`` and no ``ProjPoint`` method, so a fault there cannot
also sit in the expected value.  A matrix is passed as its ``values`` grid, a
point as its ``values`` triple, and results are value tuples.  The generators
are the one seeded input family of the differential tests.  Like the two
oracles, this module is not collected by pytest.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from troplane.errors import InvalidMatrixError, NonFiniteEntryError
from troplane.matrices import TropMatrix3
from troplane.projective import ProjPoint
from troplane.scalars import t_add, t_mul

# --- references ------------------------------------------------------------

def mul(a, b):
    """Max-plus product of value grids, max_k a_ik + b_kj; b may be 3x1."""
    return tuple(tuple(reduce(t_add, map(t_mul, row, col)) for col in zip(*b))
                 for row in a)


def apply(a, p):
    """A (.) p: the product with p as a 3x1 column."""
    return tuple(x for (x,) in mul(a, [(x,) for x in p]))


def project(a, p):
    """A (.) lam with lam_j = min_i p_i - a_ij, the largest lam_j that keeps
    column j + lam_j <= p; raises as ``mapping.project`` does, matrix first."""
    if any(x is None for row in a for x in row):
        raise NonFiniteEntryError("project requires all nine entries finite")
    if any(x is None for x in p):
        raise NonFiniteEntryError("project requires a finite point")
    return apply(a, [min(t_mul(p[i], -a[i][j]) for i in range(3))
                     for j in range(3)])


def canonical(p):
    """The triple shifted so that its largest coordinate is 0."""
    top = reduce(t_add, p)
    return tuple(t_mul(x, -top) for x in p)


def equal(p, q):
    """Projective equality: the same canonical triple."""
    return canonical(p) == canonical(q)


def member(p, a):
    """Whether p is in the span of the columns of A: project(A, p) = p."""
    return equal(project(a, p), p)


def cross(p, q):
    """Tropical cross product (p2 q3 + q2 p3, p1 q3 + q1 p3, p1 q2 + q1 p2)."""
    return tuple(t_add(t_mul(p[i], q[j]), t_mul(q[i], p[j]))
                 for i, j in ((1, 2), (0, 2), (0, 1)))


def on_line(q, coeffs):
    """Whether max_j coeff_j + q_j is attained twice (all -inf counts thrice)."""
    terms = [t_mul(c, x) for c, x in zip(coeffs, q)]
    return terms.count(reduce(t_add, terms)) >= 2


def signature(a, x, y):
    """Per row of A, the set of its terms (1 = x, 2 = y, 3 = the constant)
    attaining max(a_i1 + x, a_i2 + y, a_i3) at the chart point (x, y)."""
    out = []
    for a1, a2, a3 in a:
        terms = (t_mul(a1, x), t_mul(a2, y), a3)
        top = reduce(t_add, terms)
        out.append(frozenset(j + 1 for j, t in enumerate(terms) if t == top))
    return tuple(out)


# --- seeded inputs ---------------------------------------------------------

def large(rng):
    """A rational with a 6- to 13-digit numerator, e.g. -999999999999/7."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(10**5, 10**12),
                    rng.choice((1, 2, 3, 5, 7, 9, 11)))


def value(rng):
    """A small p/q, or one draw in five a large() one."""
    if rng.random() < 0.2:
        return large(rng)
    return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6)))


def entry(rng, bottom):
    """-inf (None) with probability bottom, else a value()."""
    return None if rng.random() < bottom else value(rng)


def matrix(rng, bottom=0.0):
    """A valid matrix (a finite entry in every row and column) of entry()s."""
    while True:
        try:
            return TropMatrix3.of([[entry(rng, bottom) for _ in range(3)]
                                   for _ in range(3)])
        except InvalidMatrixError:
            continue


def point(rng, bottom=0.0):
    """A point of entry()s with at least one finite coordinate."""
    while True:
        values = tuple(entry(rng, bottom) for _ in range(3))
        if values != (None, None, None):
            return ProjPoint(values)
