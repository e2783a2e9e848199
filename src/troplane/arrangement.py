"""Cell decomposition of the chart plane induced by the three row lines.

Each row of a valid matrix defines a tropical linear form max(a1+x, a2+y, a3);
recording the argmax index set of every row yields a signature (the type of
a point).  Every cell has a vertex of the classical line arrangement in its
closure: the lines where two terms of a row tie (x = c, y = c, x - y = c),
plus four box lines that make the arrangement pointed even when rows have
-inf entries.  So the signatures are read exactly at those vertices and just
off them, in the 6 ray and 6 sector directions of the lines, and only these
are built.  Each cell is read off the probe that found it: the probe point
is its witness, the tie lines of its rows give its dimension, and the rows'
homogeneous constraints give its recession directions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInconsistencyError, NoSuchAntennaError
from .matrices import TropMatrix3, scale, scaled, scaled_values
from .normalform import CanonicalParams, read_params
from .projective import AffinePoint
from .record import Record

_SUBSETS = [frozenset(s) for s in
            [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]]


class CellSignature(Record):
    """Per-row argmax index sets (1-based indices into the row's three terms)."""

    __slots__ = ("s1", "s2", "s3")

    def rows(self):
        return (self.s1, self.s2, self.s3)

    def refines(self, other: "CellSignature") -> bool:
        """True when this signature's cell lies in the closure of other's."""
        return all(t >= s for t, s in zip(self.rows(), other.rows()))


class Cell(Record):
    """A cell of the arrangement; `witness` is the probe point that found it."""

    __slots__ = ("signature", "dim", "bounded", "witness", "recession_dirs")


class Arrangement(Record):
    __slots__ = ("cells",)

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


# A row's argmax set as a bit mask: bit j-1 stands for term j.
_MASKS = (1, 2, 4, 3, 5, 6, 7)  # _SUBSETS, in the same order
_SUBSET_OF = dict(zip(_MASKS, _SUBSETS))
_RANK = {m: i for i, m in enumerate(_MASKS)}


def _tie_masks(grid, x, y) -> tuple[int, int, int]:
    """Per row of grid, the mask of the terms attaining the maximum at (x, y)."""
    out = []
    for a1, a2, a3 in grid:
        v1 = None if a1 is None else x + a1
        v2 = None if a2 is None else y + a2
        best = max([v for v in (v1, v2, a3) if v is not None])
        out.append((v1 == best) | (v2 == best) << 1 | (a3 == best) << 2)
    return tuple(out)


def signature_at(a: TropMatrix3, p: AffinePoint) -> CellSignature:
    """Argmax signature of the three row forms at the chart point p."""
    s = scale(a, p.x, p.y)
    masks = _tie_masks(scaled(a, s), *scaled_values((p.x, p.y), s))
    return CellSignature(*(_SUBSET_OF[m] for m in masks))


def _vertices(entries):
    """Pairwise intersections of the row lines and the four box lines."""
    xs, ys, ds = set(), set(), set()  # lines x = c, y = c, x - y = c
    for a1, a2, a3 in entries:
        if a3 is not None:
            if a1 is not None:
                xs.add(a3 - a1)
            if a2 is not None:
                ys.add(a3 - a2)
        if a1 is not None and a2 is not None:
            ds.add(a2 - a1)
    b = 2 * max(map(abs, xs | ys | ds), default=0) + 1
    xs |= {b, -b}
    ys |= {b, -b}
    return ({(x, y) for x in xs for y in ys}
            | {(x, x - d) for x in xs for d in ds}
            | {(y + d, y) for y in ys for d in ds})


# Off a vertex v, v + eps*u for small eps > 0 keeps, in each row, the terms
# tied at v with the largest gradient . u (gradients (1,0), (0,1), (0,0)).
# The probes u are v itself, the six directions of the lines through v and
# one direction inside each sector between them; every cell with v in its
# closure holds one of these points.
_PROBES = ((0, 0), (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1),
           (-1, 0), (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -1))


def _leading(mask, u):
    score = {j: (u[0], u[1], 0)[j] for j in range(3) if mask >> j & 1}
    top = max(score.values())
    return sum(1 << j for j, v in score.items() if v == top)


# mask at v -> its leading terms at each probe, in _PROBES order
_PROBE_TABLE = {m: tuple(_leading(m, u) for u in _PROBES) for m in _MASKS}


# The tie of a row's mask pins a cell to one kind of line, as a bit:
# {1, 3} to x = c, {2, 3} to y = c, {1, 2} to x - y = c, {1, 2, 3} to all.
_LINE_KINDS = {1: 0, 2: 0, 4: 0, 3: 4, 5: 1, 6: 2, 7: 7}

_DIRS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))


# (tie mask, mask of the row's finite terms) -> the _DIRS a cell may recede
# in: those along which its tied terms grow fastest of the finite terms
_RECESSION = {(m, f): {u for u in _DIRS if _leading(f, u) & m == m}
              for f in range(1, 8) for m in _MASKS if m & f == m}


def enumerate_cells(a: TropMatrix3) -> Arrangement:
    """All non-empty argmax signatures with dimension, boundedness, witness."""
    s = scale(a)
    entries = scaled(a, s)
    first = {}  # tie masks -> the first vertex that has them
    for v in sorted(_vertices(entries)):
        first.setdefault(_tie_masks(entries, *v), v)
    probes = {}  # cell masks -> the first vertex and probe that read them
    for ties, v in first.items():
        for masks, u in zip(zip(*(_PROBE_TABLE[m] for m in ties)), _PROBES):
            probes.setdefault(masks, (v, u))
    # v + u/4 crosses no line x = c, y = c or x - y = c with integer c, so on
    # the scaled grid times 4 the probe point 4v + u lies in the probed cell
    grid4 = [[None if e is None else 4 * e for e in row] for row in entries]
    finite = [sum(1 << j for j, e in enumerate(row) if e is not None)
              for row in entries]
    cells = []
    for masks in sorted(probes, key=lambda ms: [_RANK[m] for m in ms]):
        (x, y), (ux, uy) = probes[masks]
        x4, y4 = 4 * x + ux, 4 * y + uy
        if _tie_masks(grid4, x4, y4) != masks:
            raise InternalInconsistencyError("witness escapes its cell")
        m1, m2, m3 = masks
        kinds = _LINE_KINDS[m1] | _LINE_KINDS[m2] | _LINE_KINDS[m3]
        rec = tuple(u for u in _DIRS
                    if all(u in _RECESSION[mf] for mf in zip(masks, finite)))
        cells.append(Cell(CellSignature(*(_SUBSET_OF[m] for m in masks)),
                          2 - min(2, kinds.bit_count()), not rec,
                          AffinePoint(Fraction(x4, 4 * s), Fraction(y4, 4 * s)),
                          rec))
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


class StrictIneq(Record):
    """cx*x + cy*y < rhs"""

    __slots__ = ("cx", "cy", "rhs")

    def holds(self, p: AffinePoint) -> bool:
        return self.cx * p.x + self.cy * p.y < self.rhs


class AntennaCell(Record):
    __slots__ = ("which", "inequalities", "cell")


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
