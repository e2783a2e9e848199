"""The brute-force arrangement enumerator and the comparison with it.

``enumerate_cells`` here is the loop ``troplane.arrangement.enumerate_cells``
ran before it read the cells off the vertices of the line arrangement: each
of the 7^3 = 343 candidate argmax signatures goes through a difference-bound
feasibility test, in ``product(_SUBSETS)`` order.  The difference-bound
machinery below is the library's former code, kept unchanged so that the
oracle decides every cell without the library's help.
``first_difference`` is the comparison ``tests/test_arrangement_oracle.py``
runs on seeded samples and ``tests/grid_sweep.py`` on every valid matrix in
{-1, 0, 1}^9 and {-inf, 0, 1}^9.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from troplane.arrangement import (
    _SUBSETS,
    Arrangement,
    Cell,
    CellSignature,
    signature_at,
)
from troplane.errors import InternalInconsistencyError
from troplane.matrices import TropMatrix3, scale, scaled
from troplane.projective import AffinePoint


# --- difference-bound machinery -------------------------------------------
# Nodes: 0 = the constant 0, 1 = x, 2 = y.  dbm[i][j] = (c, strict) encodes
# v_i - v_j <= c (or < c when strict); None means unbounded.

def _tighten(dbm, i, j, c, strict):
    cur = dbm[i][j]
    if cur is None or c < cur[0] or (c == cur[0] and strict and not cur[1]):
        dbm[i][j] = (c, strict)


def _close(dbm):
    """Floyd-Warshall closure; returns False when the system is infeasible."""
    for k in range(3):
        for i in range(3):
            ik = dbm[i][k]
            if ik is None:
                continue
            for j in range(3):
                kj = dbm[k][j]
                if kj is None:
                    continue
                _tighten(dbm, i, j, ik[0] + kj[0], ik[1] or kj[1])
    for i in range(3):
        d = dbm[i][i]
        if d is not None and (d[0] < 0 or (d[0] == 0 and d[1])):
            return False
    return True


# Term j of row i is coeff[j] . (x, y, 1): term 1 = x + a, term 2 = y + a,
# term 3 = a.  The difference of two terms is a difference constraint.
_TERM_NODE = (1, 2, 0)


def _constraints_for(entries, sig):
    """(i, j, c, strict) difference constraints v_i - v_j <= c, or None."""
    out = []
    for r, s in enumerate(sig.rows()):
        row = entries[r]
        if any(row[j - 1] is None for j in s):
            return None  # a -inf term can never attain the maximum
        members = sorted(s)
        lead = members[0]
        for j in members[1:]:
            # equal terms: two opposite non-strict constraints
            ni, nj = _TERM_NODE[j - 1], _TERM_NODE[lead - 1]
            c = row[lead - 1] - row[j - 1]
            out.append((ni, nj, c, False))
            out.append((nj, ni, -c, False))
        for j in (1, 2, 3):
            if j in s or row[j - 1] is None:
                continue
            ni, nj = _TERM_NODE[j - 1], _TERM_NODE[lead - 1]
            out.append((ni, nj, row[lead - 1] - row[j - 1], True))
    return out


def _interval(lo, hi):
    """Interior rational of [lo, hi] given as (value, strict) or None."""
    if lo is not None and hi is not None:
        if lo[0] == hi[0]:
            return lo[0]
        return Fraction(lo[0] + hi[0], 2)
    if hi is not None:
        return hi[0] - 1
    if lo is not None:
        return lo[0] + 1
    return Fraction(0)


_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


def _feasible_cell(entries, sig, s):
    cons = _constraints_for(entries, sig)
    if cons is None:
        return None
    dbm = [[None] * 3 for _ in range(3)]
    for i in range(3):
        dbm[i][i] = (0, False)
    for i, j, c, strict in cons:
        _tighten(dbm, i, j, c, strict)
    if not _close(dbm):
        return None

    def tight(i, j):
        return (dbm[i][j] is not None and dbm[j][i] is not None
                and dbm[i][j][0] + dbm[j][i][0] == 0)

    x_fixed, y_fixed, diff_fixed = tight(1, 0), tight(2, 0), tight(1, 2)
    if x_fixed and y_fixed:
        dim = 0
    elif x_fixed or y_fixed or diff_fixed:
        dim = 1
    else:
        dim = 2
    bounded = all(dbm[i][j] is not None
                  for i, j in ((1, 0), (0, 1), (2, 0), (0, 2)))

    def neg(b):
        return None if b is None else (-b[0], b[1])

    x = _interval(neg(dbm[0][1]), dbm[1][0])
    y_lo = neg(dbm[0][2])
    if dbm[1][2] is not None:
        cand = (x - dbm[1][2][0], dbm[1][2][1])
        if y_lo is None or cand[0] > y_lo[0] or (cand[0] == y_lo[0] and cand[1]):
            y_lo = cand
    y_hi = dbm[2][0]
    if dbm[2][1] is not None:
        cand = (x + dbm[2][1][0], dbm[2][1][1])
        if y_hi is None or cand[0] < y_hi[0] or (cand[0] == y_hi[0] and cand[1]):
            y_hi = cand
    y = _interval(y_lo, y_hi)

    rec = []
    if not bounded:
        # finite closure bounds as (coeff_x, coeff_y) <= const half-planes
        halves = []
        for (i, j), coef in (((1, 0), (1, 0)), ((0, 1), (-1, 0)),
                             ((2, 0), (0, 1)), ((0, 2), (0, -1)),
                             ((1, 2), (1, -1)), ((2, 1), (-1, 1))):
            if dbm[i][j] is not None:
                halves.append(coef)
        for u, v in _DIRS:
            if all(cx * u + cy * v <= 0 for cx, cy in halves):
                rec.append((u, v))
    witness = AffinePoint(Fraction(x, s), Fraction(y, s))
    return dim, bounded, witness, tuple(rec)


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


def first_difference(a: TropMatrix3, got: Arrangement,
                     want: Arrangement) -> str | None:
    """The first field in which two arrangements of `a` differ, or None.

    Signatures, their order, and each cell's dim, bounded flag and recession
    directions must be equal, and so must the witness of every 0-cell, its
    only point.  A 1- or 2-cell may have any witness inside it, so there
    each side's witness must only have its cell's signature.
    """
    if {c.signature for c in got.cells} != {c.signature for c in want.cells}:
        return "signature"
    if [c.signature for c in got.cells] != [c.signature for c in want.cells]:
        return "order"
    for g, w in zip(got.cells, want.cells):
        for field in ("dim", "bounded", "recession_dirs"):
            if getattr(g, field) != getattr(w, field):
                return f"{field} of {w.signature}"
        if w.dim == 0 and g.witness != w.witness:
            return f"witness of the 0-cell {w.signature}"
        for side, c in (("got", g), ("oracle", w)):
            if signature_at(a, c.witness) != c.signature:
                return f"{side} witness outside {c.signature}"
    return None
