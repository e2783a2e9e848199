"""Cell decomposition of the chart plane induced by the three row lines.

Each row of a valid matrix defines a tropical linear form max(a1+x, a2+y, a3);
recording the argmax index set of every row yields a signature, and the 343
candidate signatures are tested for feasibility exactly.  The feasible systems
only involve bounds on x, y and x-y, so a three-node difference-bound matrix
with strictness flags decides feasibility, dimension and boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .errors import InternalInconsistencyError, NoSuchAntennaError, NotNormalError
from .matrices import TropMatrix3, is_normal
from .normalform import CanonicalParams, read_params
from .projective import AffinePoint

_SUBSETS = [frozenset(s) for s in
            [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]]


@dataclass(frozen=True, slots=True)
class CellSignature:
    """Per-row argmax index sets (1-based indices into the row's three terms)."""

    s1: frozenset[int]
    s2: frozenset[int]
    s3: frozenset[int]

    def rows(self):
        return (self.s1, self.s2, self.s3)

    def refines(self, other: "CellSignature") -> bool:
        """True when this signature's cell lies in the closure of other's."""
        return all(t >= s for t, s in zip(self.rows(), other.rows()))


@dataclass(frozen=True, slots=True)
class Cell:
    signature: CellSignature
    dim: int
    bounded: bool
    witness: AffinePoint
    recession_dirs: tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class Arrangement:
    cells: tuple[Cell, ...]

    def counts(self) -> tuple[int, int, int]:
        by_dim = [0, 0, 0]
        for c in self.cells:
            by_dim[c.dim] += 1
        return tuple(by_dim)

    def find(self, signature: CellSignature) -> Cell | None:
        for c in self.cells:
            if c.signature == signature:
                return c
        return None


def signature_at(a: TropMatrix3, p: AffinePoint) -> CellSignature:
    """Argmax signature of the three row forms at the chart point p."""
    coords = (p.x, p.y, Fraction(0))
    sets = []
    for row in a.rows:
        vals = [e.value + coords[j] if not e.is_bottom else None
                for j, e in enumerate(row)]
        best = max(v for v in vals if v is not None)
        sets.append(frozenset(j + 1 for j, v in enumerate(vals) if v == best))
    return CellSignature(*sets)


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


def _feasible_cell(entries, sig, scale):
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
    witness = AffinePoint(Fraction(x, scale), Fraction(y, scale))
    return dim, bounded, witness, tuple(rec)


def enumerate_cells(a: TropMatrix3) -> Arrangement:
    """All feasible argmax signatures with dimension, boundedness, witness."""
    scale = lcm(*[e.value.denominator for row in a.rows
                  for e in row if not e.is_bottom])
    entries = [[None if e.is_bottom else int(e.value * scale) for e in row]
               for row in a.rows]
    cells = []
    for s1, s2, s3 in product(_SUBSETS, repeat=3):
        sig = CellSignature(s1, s2, s3)
        got = _feasible_cell(entries, sig, scale)
        if got is None:
            continue
        dim, bounded, witness, rec = got
        if signature_at(a, witness) != sig:
            raise InternalInconsistencyError("witness escapes its cell")
        cells.append(Cell(sig, dim, bounded, witness, rec))
    return Arrangement(tuple(cells))


def bounded_complex(a: TropMatrix3):
    """The unique bounded 2-cell (or None) and the vertices of its closure."""
    a.require_finite("bounded_complex")
    arr = enumerate_cells(a)
    bounded2 = [c for c in arr.cells if c.dim == 2 and c.bounded]
    if len(bounded2) > 1:
        raise InternalInconsistencyError("multiple bounded 2-cells")
    if not bounded2:
        return None, []
    cell = bounded2[0]
    vertices = [c.witness for c in arr.cells
                if c.dim == 0 and c.signature.refines(cell.signature)]
    return cell, vertices


def injectivity_set(n: TropMatrix3):
    """Open region where the map of a normal matrix has unique preimages."""
    if not is_normal(n):
        raise NotNormalError("injectivity_set requires a normal matrix")
    n.require_finite("injectivity_set")
    return bounded_complex(n)[0]


@dataclass(frozen=True, slots=True)
class StrictIneq:
    """cx*x + cy*y < rhs"""

    cx: Fraction
    cy: Fraction
    rhs: Fraction

    def holds(self, p: AffinePoint) -> bool:
        return self.cx * p.x + self.cy * p.y < self.rhs


@dataclass(frozen=True, slots=True)
class AntennaCell:
    which: str
    inequalities: tuple[StrictIneq, ...]
    cell: Cell


def _antenna_region(p: CanonicalParams, which: str):
    """Closed-form inequalities and an interior witness of an antenna cell.

    The h2 and g regions follow the closed forms; h1 and h3 are their images
    under the cyclic chart action.
    """
    d = p.d
    d1, d2, d3 = p.dv
    h1, h2, h3 = p.h
    one = Fraction(1)

    if which == "h2":
        if h2 <= 0:
            raise NoSuchAntennaError("h2 = 0")
        ineqs = (StrictIneq(-one, 0 * one, -d),
                 StrictIneq(one, -one, -(d + d2)),
                 StrictIneq(-one, one, d + d2 + h2))
        wx = d + 1
        wit = AffinePoint(wx, wx + d + d2 + h2 / 2)
    elif which == "g":
        if p.g <= 0:
            raise NoSuchAntennaError("g = 0")
        ineqs = (StrictIneq(-one, 0 * one, d3 + p.g),
                 StrictIneq(one, 0 * one, -d3),
                 StrictIneq(-one, one, 0 * one))
        wx = -d3 - p.g / 2
        wit = AffinePoint(wx, wx - 1)
    elif which == "h3":
        if h3 <= 0:
            raise NoSuchAntennaError("h3 = 0")
        ineqs = (StrictIneq(one, -one, -d),
                 StrictIneq(0 * one, one, -d - d3),
                 StrictIneq(0 * one, -one, d + d3 + h3))
        wy = -d - d3 - h3 / 2
        wit = AffinePoint(wy - d - 1, wy)
    elif which == "h1":
        if h1 <= 0:
            raise NoSuchAntennaError("h1 = 0")
        ineqs = (StrictIneq(0 * one, one, -d),
                 StrictIneq(-one, 0 * one, -(d + d1)),
                 StrictIneq(one, 0 * one, d + d1 + h1))
        wit = AffinePoint(d + d1 + h1 / 2, -d - 1)
    else:
        raise NoSuchAntennaError(f"unknown antenna selector: {which!r}")

    if not all(q.holds(wit) for q in ineqs):
        raise InternalInconsistencyError("antenna cell witness escaped")
    return ineqs, wit


def _antenna_two_cell(f: TropMatrix3, arr: Arrangement, wit: AffinePoint) -> Cell:
    """The cell of `arr` holding an antenna witness; it must be a 2-cell."""
    cell = arr.find(signature_at(f, wit))
    if cell is None or cell.dim != 2:
        raise InternalInconsistencyError("antenna cell is not a 2-cell")
    return cell


def antenna_cell(f: TropMatrix3, which: str) -> AntennaCell:
    """Open 2-cell collapsing onto the selected antenna of a canonical matrix.

    which is one of "h1", "h2", "h3", "g".
    """
    f.require_finite("antenna_cell")
    ineqs, wit = _antenna_region(read_params(f), which)
    return AntennaCell(which, ineqs, _antenna_two_cell(f, enumerate_cells(f), wit))
