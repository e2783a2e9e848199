"""The map of a matrix: pinned apply and project values, their laws, and
piecewise_report.

apply and project are checked against the scalar references, value for value
and error for error, in test_map_kernels.py.
"""

import random
from fractions import Fraction

import pytest

from troplane import mapping
from troplane.arrangement import Arrangement, Cell, enumerate_cells
from troplane.errors import (
    InternalInconsistencyError,
    NonFiniteEntryError,
    NotCanonicalError,
)
from troplane.mapping import (
    BIJECTIVE,
    COLLAPSE,
    IDENTITY_ON_SOMA,
    NON_BIJECTIVE,
    PROJECTION,
    apply,
    classify,
    is_fixed,
    piecewise_report,
    project,
)
from troplane.matrices import IDENTITY, MonomialMatrix, TropMatrix3, power
from troplane.normalform import make_F, make_L, params
from troplane.projective import point
from troplane.randgen import rand_matrix, rand_point

L3924 = make_L(3, (9, 2, 4))
PINWHEEL_F = make_F(params(Fraction(1, 3), (0, 0, 1), (0, 1, 1), 0))
TWO_ANT_F = make_F(params(0, (0, 6, 1), (0, 1, 0), 4))
P12 = MonomialMatrix((1, 0, 2), (Fraction(0),) * 3)


def test_apply_reference_values():
    assert apply(L3924, point(-12, 0, 0)) == point(-5, 0, 0)
    assert apply(IDENTITY, point(3, -1, 7)) == point(3, -1, 7)
    assert apply(L3924, point(0, -100, -100)) == L3924.column(0)


def test_project_reference_value():
    assert project(L3924, point(-12, 0, 0)) == point(-10, -5, 0)


def test_apply_differs_from_project():
    p = point(-12, 0, 0)
    assert apply(L3924, p) != project(L3924, p)


def test_project_rejects_point_with_bottom_coordinate():
    with pytest.raises(NonFiniteEntryError) as info:
        project(L3924, point(None, 0, 0))
    assert not isinstance(info.value, InternalInconsistencyError)


def test_project_is_idempotent_and_fixes_columns():
    rng = random.Random(2)
    for _ in range(20):
        a, p = rand_matrix(rng), rand_point(rng)
        rho = project(a, p)
        assert project(a, rho) == rho
    for j in range(3):
        assert project(L3924, L3924.column(j)) == L3924.column(j)


def test_is_fixed():
    sq = power(PINWHEEL_F, 2)
    assert is_fixed(PINWHEEL_F, sq.column(0))
    assert sq.column(0) == point(0, Fraction(-2, 3), Fraction(-1, 3))
    tip = point(Fraction(4, 3) + 1, Fraction(5, 3) + 1, 0)  # NE antenna tip
    assert not is_fixed(PINWHEEL_F, tip)


def test_classify():
    assert classify(P12.to_matrix()) == BIJECTIVE
    assert classify(IDENTITY) == BIJECTIVE
    assert classify(L3924) == NON_BIJECTIVE


def test_piecewise_report_idempotent():
    rep = piecewise_report(L3924)
    behaviors = [e.behavior for e in rep.entries]
    assert behaviors.count(IDENTITY_ON_SOMA) == 1
    assert behaviors.count(PROJECTION) == 9
    assert len(behaviors) == 10


def test_piecewise_report_with_antennas():
    for f, n_collapse in ((PINWHEEL_F, 2), (TWO_ANT_F, 2)):
        rep = piecewise_report(f)
        behaviors = [e.behavior for e in rep.entries]
        assert behaviors.count(IDENTITY_ON_SOMA) == 1
        assert behaviors.count(COLLAPSE) == n_collapse
        assert behaviors.count(PROJECTION) == 7
        assert len(behaviors) == 10


def test_piecewise_report_requires_canonical():
    with pytest.raises(NotCanonicalError):
        piecewise_report(TropMatrix3.of([[0, 1, 3], [0, 3, 4], [0, 0, 0]]))


def test_piecewise_report_applies_the_map_once_per_sample(monkeypatch):
    """Each sample is mapped once; only the shifted points of the
    direction check add calls."""
    calls = []
    monkeypatch.setattr(mapping, "apply",
                        lambda a, p: calls.append(p) or apply(a, p))
    for f in (L3924, PINWHEEL_F, TWO_ANT_F):
        calls.clear()
        rep = piecewise_report(f)
        bound = sum(len(e.samples) * (1 + len(e.cell.recession_dirs)
                                      * (e.behavior == PROJECTION))
                    for e in rep.entries)
        assert len(calls) <= bound


def test_far_sample_outside_its_cell_is_an_internal_error(monkeypatch):
    """A recession direction that leaves its cell is reported, not skipped."""
    arr = enumerate_cells(TWO_ANT_F)
    flipped = Arrangement(tuple(
        Cell(c.signature, c.dim, c.bounded, c.witness,
             tuple((-u, -v) for u, v in c.recession_dirs))
        if c.dim == 2 else c for c in arr.cells))
    monkeypatch.setattr(mapping, "enumerate_cells", lambda f: flipped)
    with pytest.raises(InternalInconsistencyError, match="leaves the cell"):
        piecewise_report(TWO_ANT_F)


def test_corner_sample_projection_value():
    # deep in the southern unbounded cell, the image snaps to the boundary
    assert apply(L3924, point(0, -20, 0)) == point(0, -7, 0)


def test_antenna_cell_sample_maps_to_antenna():
    # point of the north-east antenna cell: maps into the antenna segment
    img = apply(PINWHEEL_F, point(1, 2, 0))
    assert img == point(1, Fraction(4, 3), 0)


def test_composition_law():
    rng = random.Random(4)
    for _ in range(30):
        a, p = rand_matrix(rng), rand_point(rng)
        assert apply(a, apply(a, p)) == apply(power(a, 2), p)

