"""The brute-force arrangement enumerator.

This is the loop ``troplane.arrangement.enumerate_cells`` ran before it
read the cells off the vertices of the line arrangement, kept here unchanged
as the differential oracle for ``tests/test_arrangement_oracle.py`` and
``tests/arrangement_sweep.py``: each of the 7^3 = 343 candidate argmax
signatures goes through the difference-bound feasibility test, in
``product(_SUBSETS)`` order.
"""

from __future__ import annotations

from itertools import product

from troplane.arrangement import (
    _SUBSETS,
    Arrangement,
    Cell,
    CellSignature,
    _feasible_cell,
    signature_at,
)
from troplane.errors import InternalInconsistencyError
from troplane.matrices import TropMatrix3, scale, scaled


def enumerate_cells(a: TropMatrix3) -> Arrangement:
    """All feasible argmax signatures with dimension, boundedness, witness."""
    s = scale(a)
    entries = scaled(a, s)
    cells = []
    for s1, s2, s3 in product(_SUBSETS, repeat=3):
        sig = CellSignature(s1, s2, s3)
        got = _feasible_cell(entries, sig, s)
        if got is None:
            continue
        dim, bounded, witness, rec = got
        if signature_at(a, witness) != sig:
            raise InternalInconsistencyError("witness escapes its cell")
        cells.append(Cell(sig, dim, bounded, witness, rec))
    return Arrangement(tuple(cells))
