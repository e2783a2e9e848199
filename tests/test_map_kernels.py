"""The map layer and point equality against the scalar references.

apply, project, member and signature_at compute on one integer scale per
call, and ProjPoint equality compares the shifts between two triples.  Each
must return exactly the value of its reference in ``scalar_reference``, which
is written with t_add/t_mul alone, and raise exactly its errors, on seeded
inputs with -inf entries, mixed denominators and large numerators.
"""

import random

import pytest

import scalar_reference as ref
from troplane.arrangement import signature_at
from troplane.errors import NonFiniteEntryError
from troplane.mapping import apply, project
from troplane.matrices import TropMatrix3
from troplane.projective import AffinePoint, point
from troplane.triangle import member


def _same(new, expected):
    """Equal values, None in the same places, Fractions where expected has them."""
    return new == expected and all(type(x) is type(y)
                                   for x, y in zip(new, expected))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, type and message, with the reference
        return type(exc), str(exc)


def test_apply_matches_fraction_reference():
    rng = random.Random(2401)
    for _ in range(400):
        a, p = ref.matrix(rng, 0.3), ref.point(rng, 0.3)
        assert _same(apply(a, p).values, ref.apply(a.values, p.values))


def test_project_and_member_match_fraction_reference():
    rng = random.Random(2402)
    for _ in range(300):
        a, p = ref.matrix(rng), ref.point(rng)
        rho = project(a, p)
        assert _same(rho.values, ref.project(a.values, p.values))
        # points of the span (rho, a column image) and points off it
        for q in (p, rho, apply(a, p), a.column(rng.randrange(3))):
            assert member(q, a) == ref.member(q.values, a.values)


def test_project_and_member_raise_as_the_reference():
    rng = random.Random(2403)
    seen = set()
    for _ in range(200):
        a, p = ref.matrix(rng, 0.2), ref.point(rng, 0.2)
        expected = _outcome(ref.project, a.values, p.values)
        assert _outcome(lambda: project(a, p).values) == expected
        assert _outcome(member, p, a) == _outcome(ref.member, p.values, a.values)
        seen.add("ok" if expected[0] == "ok" else expected)
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
        a = ref.matrix(rng, 0.3)
        rows = a.values
        i, j = rng.randrange(3), rng.randrange(3)
        # off the lines, and on the tie lines x = a_i3 - a_i1, y = a_j3 - a_j2
        x = ref.value(rng)
        y = ref.value(rng)
        tie_x = (x if None in (rows[i][0], rows[i][2])
                 else rows[i][2] - rows[i][0])
        tie_y = (y if None in (rows[j][1], rows[j][2])
                 else rows[j][2] - rows[j][1])
        for q in (AffinePoint(x, y), AffinePoint(tie_x, y),
                  AffinePoint(tie_x, tie_y), AffinePoint(tie_x, tie_x)):
            assert signature_at(a, q).rows() == ref.signature(rows, q.x, q.y)


def test_point_equality_matches_canonical_triples():
    rng = random.Random(2405)
    for _ in range(500):
        p = ref.point(rng, 0.3)
        shift = ref.value(rng)
        moved = [None if x is None else x + shift for x in p.values]
        nudged = list(moved)
        k = rng.randrange(3)
        nudged[k] = None if rng.random() < 0.3 else ref.value(rng)
        candidates = [ref.point(rng, 0.3), point(*moved)]
        if any(x is not None for x in nudged):
            candidates.append(point(*nudged))
        for q in candidates:
            same = ref.equal(p.values, q.values)
            assert (p == q) == same and (q == p) == same
            assert (p != q) == (not same)
            if same:
                assert hash(p) == hash(q)
    assert point(1, 2, 3) != (1, 2, 3)
