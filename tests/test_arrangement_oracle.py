"""The vertex-probe arrangement enumerator against the brute-force oracle.

``arrangement_oracle`` tests all 343 candidate signatures with a
difference-bound solver.  Both must return the same cells, in the same order,
with the same dimensions, boundedness, recession directions and 0-cell
points, and every witness must lie in its cell (``first_difference``).
``tests/grid_sweep.py`` runs the same comparison on every valid matrix in
{-1, 0, 1}^9 and {-inf, 0, 1}^9.
"""

import importlib
import itertools
import pkgutil
import random

import pytest

import arrangement_oracle as oracle
import scalar_reference as ref
import troplane
from troplane import arrangement
from troplane.arrangement import Arrangement, Cell, enumerate_cells
from troplane.errors import InternalInconsistencyError
from troplane.matrices import TropMatrix3
from troplane.randgen import rand_fraction, rand_matrix


def _same_as_oracle(a):
    field = oracle.first_difference(a, enumerate_cells(a),
                                    oracle.enumerate_cells(a))
    assert field is None, (field, a.values)


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
            [[ref.large(rng) for _ in range(3)] for _ in range(3)]))


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


def test_first_difference_names_the_field():
    a = rand_matrix(random.Random(57))
    want = oracle.enumerate_cells(a)
    got = enumerate_cells(a)
    assert oracle.first_difference(a, got, want) is None
    assert any(g.witness != w.witness for g, w in zip(got.cells, want.cells))
    cells = list(want.cells)
    i, j = [k for k, c in enumerate(cells) if c.dim == 0][:2]
    t = next(k for k, c in enumerate(cells) if c.dim == 2)

    def diff(k, **change):
        c = cells[k]
        fields = dict(signature=c.signature, dim=c.dim, bounded=c.bounded,
                      witness=c.witness, recession_dirs=c.recession_dirs)
        changed = cells[:k] + [Cell(**{**fields, **change})] + cells[k + 1:]
        return oracle.first_difference(a, Arrangement(tuple(changed)), want)

    assert diff(i) is None
    assert diff(i, dim=1) == f"dim of {cells[i].signature}"
    assert diff(i, bounded=False).startswith("bounded of")
    assert diff(i, recession_dirs=((1, 0),)).startswith("recession_dirs of")
    assert diff(i, witness=cells[j].witness).startswith("witness of the 0-cell")
    assert diff(t, witness=cells[i].witness).startswith("got witness outside")
    assert oracle.first_difference(
        a, Arrangement(tuple(reversed(cells))), want) == "order"
    assert oracle.first_difference(
        a, Arrangement(tuple(cells[1:])), want) == "signature"


def test_serving_modules_define_no_difference_bounds():
    """The difference-bound solver lives only in the oracle."""
    dbm = {"_tighten", "_close", "_TERM_NODE", "_constraints_for",
           "_interval", "_feasible_cell"}
    assert dbm <= set(vars(oracle))
    for info in pkgutil.iter_modules(troplane.__path__):
        module = importlib.import_module(f"troplane.{info.name}")
        assert not dbm & set(vars(module)), info.name


def test_escaping_witness_is_an_internal_error(monkeypatch):
    """Probing opposite the tabled directions puts witnesses in other cells."""
    monkeypatch.setattr(arrangement, "_PROBES",
                        tuple((-u, -v) for u, v in arrangement._PROBES))
    with pytest.raises(InternalInconsistencyError, match="escapes"):
        enumerate_cells(rand_matrix(random.Random(56)))
