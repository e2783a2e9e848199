"""The vertex-probe arrangement enumerator against the brute-force oracle.

``arrangement_oracle`` tests all 343 candidate signatures.  Both must return
the same cells, in the same order, with the same dimensions, witnesses and
recession directions.  ``tests/arrangement_sweep.py`` runs the same
comparison on every matrix in {-1, 0, 1}^9.
"""

import itertools
import random
from fractions import Fraction

import pytest

import arrangement_oracle as oracle
from troplane import arrangement
from troplane.arrangement import enumerate_cells
from troplane.errors import InternalInconsistencyError
from troplane.matrices import TropMatrix3
from troplane.randgen import rand_fraction, rand_matrix


def _same_as_oracle(a):
    assert enumerate_cells(a) == oracle.enumerate_cells(a), a.values


def _large(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(10**5, 10**12),
                    rng.choice((1, 2, 3, 5, 7, 9, 11)))


def test_generic_matrices_match_oracle():
    rng = random.Random(51)
    for _ in range(80):
        _same_as_oracle(rand_matrix(rng))


def test_tie_matrices_match_oracle():
    rng = random.Random(52)
    for e in rng.sample(list(itertools.product((-1, 0, 1), repeat=9)), 120):
        _same_as_oracle(TropMatrix3.of([e[0:3], e[3:6], e[6:9]]))


def test_large_numerators_match_oracle():
    rng = random.Random(53)
    for _ in range(30):
        _same_as_oracle(TropMatrix3.of(
            [[_large(rng) for _ in range(3)] for _ in range(3)]))


@pytest.mark.parametrize("k", range(7))
def test_minus_infinity_entries_match_oracle(k):
    """k entries are -inf; k = 6 leaves a monomial pattern, one term per row."""
    rng = random.Random(f"arrangement-oracle:{k}")
    seen = 0
    two_term_rows = 0
    while seen < 30:
        grid = [[rng.choice((rand_fraction(rng), rng.randint(-1, 1)))
                 for _ in range(3)] for _ in range(3)]
        for pos in rng.sample(range(9), k):
            grid[pos // 3][pos % 3] = None
        if any(all(e is None for e in line)
               for line in (*grid, *zip(*grid))):
            continue  # a row or column with no finite entry is invalid
        a = TropMatrix3.of(grid)
        assert sum(e is None for row in a.values for e in row) == k
        two_term_rows += sum(row.count(None) == 1 for row in a.values)
        _same_as_oracle(a)
        seen += 1
    assert (two_term_rows > 0) == (1 <= k <= 5)


def test_one_closure_per_cell(monkeypatch):
    """Only the probed signatures reach the difference-bound test."""
    calls = []
    feasible = arrangement._feasible_cell
    monkeypatch.setattr(arrangement, "_feasible_cell",
                        lambda *args: calls.append(1) or feasible(*args))
    arr = enumerate_cells(rand_matrix(random.Random(54)))
    assert len(calls) == len(arr.cells) == 31


def test_infeasible_probe_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(arrangement, "_feasible_cell", lambda *args: None)
    with pytest.raises(InternalInconsistencyError, match="infeasible"):
        enumerate_cells(rand_matrix(random.Random(55)))


def test_escaping_witness_is_an_internal_error(monkeypatch):
    feasible = arrangement._feasible_cell

    def far_witness(*args):
        dim, bounded, _, rec = feasible(*args)
        return dim, bounded, arrangement.AffinePoint(Fraction(10**6),
                                                     Fraction(1, 4)), rec

    monkeypatch.setattr(arrangement, "_feasible_cell", far_witness)
    with pytest.raises(InternalInconsistencyError, match="escapes"):
        enumerate_cells(rand_matrix(random.Random(56)))
