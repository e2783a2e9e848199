"""The map layer on integer scales against the Fraction code it replaced.

apply, project, member, signature_at and ProjPoint equality compute on one
integer scale per call.  The references below are the earlier Fraction
versions, kept verbatim, and the new code must return exactly their values
and raise exactly their errors, on seeded inputs with -inf entries, mixed
denominators and large numerators.
"""

import random
from fractions import Fraction

import pytest

from troplane.arrangement import CellSignature, signature_at
from troplane.errors import InvalidMatrixError, NonFiniteEntryError
from troplane.mapping import apply, project
from troplane.matrices import TropMatrix3, grid_mul
from troplane.projective import AffinePoint, ProjPoint, point
from troplane.triangle import member

_DENOMS = (1, 2, 3, 4, 6)


# --- the Fraction references ----------------------------------------------

def _ref_apply(a, p):
    out = grid_mul(a.values, [[x] for x in p.values])
    return ProjPoint(tuple(x for (x,) in out))


def _ref_project(a, p):
    a.require_finite("project")
    if not p.all_finite():
        raise NonFiniteEntryError("project requires a finite point")
    v, q = a.values, p.values
    # column j scaled by the largest lam_j with a_ij + lam_j <= p_i for all i
    lam = [[min(q[i] - v[i][j] for i in range(3))] for j in range(3)]
    return ProjPoint(tuple(x for (x,) in grid_mul(v, lam)))


def _ref_eq(p, q):
    return p.canonical() == q.canonical()


def _ref_member(p, a):
    return _ref_eq(_ref_project(a, p), p)


def _ref_tie_masks(grid, x, y):
    out = []
    for a1, a2, a3 in grid:
        v1 = None if a1 is None else x + a1
        v2 = None if a2 is None else y + a2
        best = max([v for v in (v1, v2, a3) if v is not None])
        out.append((v1 == best) | (v2 == best) << 1 | (a3 == best) << 2)
    return tuple(out)


def _ref_signature_at(a, p):
    return CellSignature(*(frozenset(j + 1 for j in range(3) if m >> j & 1)
                           for m in _ref_tie_masks(a.values, p.x, p.y)))


# --- seeded inputs ----------------------------------------------------------

def _value(rng):
    if rng.random() < 0.2:  # large numerators, e.g. -999999/7
        return Fraction(rng.choice((-1, 1)) * rng.randint(10**5, 999999),
                        rng.choice(_DENOMS + (7,)))
    return Fraction(rng.randint(-12, 12), rng.choice(_DENOMS))


def _entry(rng, bottom):
    return None if rng.random() < bottom else _value(rng)


def _matrix(rng, bottom=0.0):
    while True:
        try:
            return TropMatrix3.of([[_entry(rng, bottom) for _ in range(3)]
                                   for _ in range(3)])
        except InvalidMatrixError:
            continue


def _point(rng, bottom=0.0):
    while True:
        values = [_entry(rng, bottom) for _ in range(3)]
        if any(x is not None for x in values):
            return point(*values)


def _same(new, ref):
    """Equal values, None in the same places, Fractions where ref has them."""
    return new == ref and all(type(x) is type(y) for x, y in zip(new, ref))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, type and message, with the reference
        return type(exc), str(exc)


# --- tests ----------------------------------------------------------------

def test_apply_matches_fraction_reference():
    rng = random.Random(2401)
    for _ in range(400):
        a, p = _matrix(rng, 0.3), _point(rng, 0.3)
        assert _same(apply(a, p).values, _ref_apply(a, p).values)


def test_project_and_member_match_fraction_reference():
    rng = random.Random(2402)
    for _ in range(300):
        a, p = _matrix(rng), _point(rng)
        rho = project(a, p)
        assert _same(rho.values, _ref_project(a, p).values)
        # points of the span (rho, a column image) and points off it
        for q in (p, rho, apply(a, p), a.column(rng.randrange(3))):
            assert member(q, a) == _ref_member(q, a)


def test_project_and_member_raise_as_the_reference():
    rng = random.Random(2403)
    seen = set()
    for _ in range(200):
        a, p = _matrix(rng, 0.2), _point(rng, 0.2)
        ref = _outcome(_ref_project, a, p)
        assert _outcome(lambda: project(a, p).values) == (
            ref if ref[0] != "ok" else ("ok", ref[1].values))
        assert _outcome(member, p, a) == _outcome(_ref_member, p, a)
        seen.add(ref if ref[0] != "ok" else "ok")
    assert seen == {
        "ok",
        (NonFiniteEntryError, "project requires all nine entries finite"),
        (NonFiniteEntryError, "project requires a finite point"),
    }
    # the matrix is checked before the point
    bad = TropMatrix3.of([[0, None, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(NonFiniteEntryError,
                       match="^project requires all nine entries finite$"):
        project(bad, point(None, 0, 0))


def test_signature_at_matches_fraction_reference():
    rng = random.Random(2404)
    for _ in range(300):
        a = _matrix(rng, 0.3)
        rows = a.values
        i, j = rng.randrange(3), rng.randrange(3)
        # off the lines, and on the tie lines x = a_i3 - a_i1, y = a_j3 - a_j2
        x = _value(rng)
        y = _value(rng)
        tie_x = (x if None in (rows[i][0], rows[i][2])
                 else rows[i][2] - rows[i][0])
        tie_y = (y if None in (rows[j][1], rows[j][2])
                 else rows[j][2] - rows[j][1])
        for q in (AffinePoint(x, y), AffinePoint(tie_x, y),
                  AffinePoint(tie_x, tie_y), AffinePoint(tie_x, tie_x)):
            assert signature_at(a, q) == _ref_signature_at(a, q)


def test_point_equality_matches_canonical_triples():
    rng = random.Random(2405)
    for _ in range(500):
        p = _point(rng, 0.3)
        shift = _value(rng)
        moved = [None if x is None else x + shift for x in p.values]
        nudged = list(moved)
        k = rng.randrange(3)
        nudged[k] = None if rng.random() < 0.3 else _value(rng)
        candidates = [_point(rng, 0.3), point(*moved)]
        if any(x is not None for x in nudged):
            candidates.append(point(*nudged))
        for q in candidates:
            same = _ref_eq(p, q)
            assert (p == q) == same and (q == p) == same
            assert (p != q) == (not same)
            if same:
                assert hash(p) == hash(q)
    assert point(1, 2, 3) != (1, 2, 3)
