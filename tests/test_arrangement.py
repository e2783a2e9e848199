import random
from fractions import Fraction

from troplane.arrangement import (
    antenna_cell,
    bounded_complex,
    enumerate_cells,
    signature_at,
)
from troplane.matrices import TropMatrix3
from troplane.normalform import make_F, make_L, params
from troplane.projective import AffinePoint
from troplane.randgen import rand_generic_matrix

L3924 = make_L(3, (9, 2, 4))
# three lines in generic position (tripod vertices distinct, all six
# pairwise stable intersections distinct): 31 cells
GENERIC = rand_generic_matrix(random.Random(2024))


def test_zero_matrix_has_seven_cells():
    arr = enumerate_cells(TropMatrix3.of([[0] * 3] * 3))
    assert arr.counts() == (1, 3, 3)
    assert len(arr.cells) == 7


def test_generic_census():
    arr = enumerate_cells(GENERIC)
    n0, n1, n2 = arr.counts()
    assert (len(arr.cells), n0, n1, n2) == (31, 6, 15, 10)
    assert n0 - n1 + n2 == 1


def test_signature_at_locates_cells():
    rng = random.Random(3)
    arr = enumerate_cells(L3924)
    for _ in range(50):
        p = AffinePoint(Fraction(rng.randint(-60, 60), 3),
                        Fraction(rng.randint(-60, 60), 3))
        cell = arr.find(signature_at(L3924, p))
        assert cell is not None


def test_signature_at_reference_point():
    sig = signature_at(L3924, AffinePoint(Fraction(0), Fraction(-20)))
    assert (sig.s1, sig.s2, sig.s3) == (frozenset({1}), frozenset({3}),
                                        frozenset({3}))


def test_cell_witness_matches_signature():
    arr = enumerate_cells(GENERIC)
    for cell in arr.cells:
        assert signature_at(GENERIC, cell.witness) == cell.signature


def test_bounded_complex_of_idempotent():
    cell, vertices = bounded_complex(L3924)
    assert cell is not None
    assert cell.dim == 2 and cell.bounded
    assert len(vertices) == 6


def test_bounded_complex_absent_for_segment_soma():
    cell, vertices = bounded_complex(make_L(0, (0, 0, 1)))
    assert cell is None
    assert len(vertices) == 0


def test_antenna_cell_bounds():
    pinwheel_f = make_F(params(Fraction(1, 3), (0, 0, 1), (0, 1, 1), 0))
    ac = antenna_cell(pinwheel_f, "h2")
    checks = [
        (Fraction(1), Fraction(2)),      # inside
        (Fraction(0), Fraction(1)),      # x too small
        (Fraction(1), Fraction(3)),      # above the strip
    ]
    results = [all(iq.holds(AffinePoint(x, y)) for iq in ac.inequalities)
               for x, y in checks]
    assert results == [True, False, False]
    assert ac.cell is not None and ac.cell.dim == 2


def test_antenna_cell_g():
    f = make_F(params(0, (0, 6, 1), (0, 1, 0), 4))
    ac = antenna_cell(f, "g")
    assert all(iq.holds(AffinePoint(Fraction(-3), Fraction(-4))) for iq in ac.inequalities)
    assert not all(iq.holds(AffinePoint(Fraction(0), Fraction(-1))) for iq in ac.inequalities)


def test_random_generic_always_31(subtests=None):
    rng = random.Random(9)
    for _ in range(20):
        m = rand_generic_matrix(rng)
        assert len(enumerate_cells(m).cells) == 31
