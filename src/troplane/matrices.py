"""3x3 tropical matrix algebra.

Columns are points and rows are line coefficients.  Every matrix must carry
at least one finite entry in each row and each column; this is enforced at
construction and assumed by all operations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoundaryPointError,
    InvalidMatrixError,
    NonFiniteEntryError,
    NotNormalError,
)
from .projective import ProjPoint, cross
from .scalars import TropScalar, as_fraction, format_value, t_add, t_mul


class TropMatrix3:
    """An immutable 3x3 max-plus matrix with a finite entry in each row and column.

    It is stored only as `values`, a 3x3 tuple grid of Fractions with None
    for -inf, on which the grid primitives below work.
    """

    __slots__ = ("values",)

    def __init__(self, rows: tuple[tuple[TropScalar, ...], ...]):
        self._set_values(tuple(e.value for e in r) for r in rows)

    def _set_values(self, grid) -> None:
        values = tuple(tuple(r) for r in grid)
        if len(values) != 3 or any(len(r) != 3 for r in values):
            raise InvalidMatrixError("expected a 3x3 grid")
        for i in range(3):
            if all(values[i][j] is None for j in range(3)):
                raise InvalidMatrixError(f"row {i + 1} has no finite entry")
            if all(values[j][i] is None for j in range(3)):
                raise InvalidMatrixError(f"column {i + 1} has no finite entry")
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):
        raise AttributeError("TropMatrix3 is immutable")

    @staticmethod
    def of(entries) -> "TropMatrix3":
        """Build from a 3x3 nest of rational-likes; None means -inf."""
        m = object.__new__(TropMatrix3)
        m._set_values([None if e is None else as_fraction(e) for e in row]
                      for row in entries)
        return m

    @staticmethod
    def from_columns(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> "TropMatrix3":
        return TropMatrix3.of(zip(p.values, q.values, r.values))

    def column(self, j: int) -> ProjPoint:
        return ProjPoint(tuple(r[j] for r in self.values))

    def all_finite(self) -> bool:
        return all(x is not None for row in self.values for x in row)

    def require_finite(self, what: str = "operation") -> None:
        if not self.all_finite():
            raise NonFiniteEntryError(f"{what} requires all nine entries finite")

    def entrywise_max(self, other: "TropMatrix3") -> "TropMatrix3":
        return TropMatrix3.of(
            map(t_add, r, s) for r, s in zip(self.values, other.values))

    def entrywise_le(self, other: "TropMatrix3") -> bool:
        return all(x is None or (y is not None and x <= y)
                   for r, s in zip(self.values, other.values)
                   for x, y in zip(r, s))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropMatrix3):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(map(format_value, row)) for row in self.values) + "]"

    def __repr__(self) -> str:
        return f"TropMatrix3({self})"


IDENTITY = TropMatrix3.of([[0, None, None], [None, 0, None], [None, None, 0]])


# --- Grid primitives -------------------------------------------------------
# A grid is a 3x3 nest of Fractions, or of those values times a common scale
# as ints (see scaled), with None for -inf.  The primitives only add and
# compare, so one copy serves both.  They return lists.

PERMS = tuple(itertools.permutations(range(3)))


def grid_mul(a, b) -> list[list]:
    """Max-plus product of grids, max_k a_ik + b_kj; b may be a 3x1 column."""
    cols = range(len(b[0]))
    out = []
    for r in a:
        row = []
        for j in cols:
            best = None
            for k in range(3):
                x, y = r[k], b[k][j]
                if x is not None and y is not None:
                    s = x + y
                    if best is None or s > best:
                        best = s
            row.append(best)
        out.append(row)
    return out


def grid_is_normal(g) -> bool:
    """True iff the diagonal is zero and every entry is <= 0."""
    return (g[0][0] == g[1][1] == g[2][2] == 0
            and all(x is None or x <= 0 for row in g for x in row))


def grid_act(p: MonomialMatrix, g, q: MonomialMatrix) -> list[list]:
    """P (.) G (.) Q for monomial P and Q, applied as an index map.

    Row i of P carries u_i in column πP(i) and row k of Q carries v_k in
    column πQ(k), so entry (i, πQ(k)) of the product is u_i + G[πP(i)][k] + v_k,
    and -inf entries stay -inf.  No max-plus product is formed.  The offsets
    of P and Q must be on the same scale as G.
    """
    out = [[None] * 3 for _ in range(3)]
    q_perm, q_offs = q.perm, q.offsets
    for i in range(3):
        src, u, row = g[p.perm[i]], p.offsets[i], out[i]
        for k in range(3):
            if src[k] is not None:
                row[q_perm[k]] = u + src[k] + q_offs[k]
    return out


def assignment_sums(g) -> list:
    """g[0][σ(0)] + g[1][σ(1)] + g[2][σ(2)] for each σ in PERMS, None when
    the assignment picks a -inf entry."""
    out = []
    for perm in PERMS:
        x, y, z = g[0][perm[0]], g[1][perm[1]], g[2][perm[2]]
        out.append(None if x is None or y is None or z is None else x + y + z)
    return out


def scale(a: TropMatrix3, *xs) -> int:
    """The lcm of the denominators of the finite entries of A and of the
    finite xs (a point's coordinates), so that one scale covers both."""
    return math.lcm(*[x.denominator for row in (*a.values, xs) for x in row
                      if x is not None])


def scaled_values(xs, s: int) -> list:
    """The values xs times s, as ints, with None kept; s must be a multiple
    of their denominators."""
    return [None if x is None else x.numerator * (s // x.denominator)
            for x in xs]


def scaled(a: TropMatrix3, s: int) -> list[list]:
    """The grid of A times s, as ints; s must be a multiple of scale(A)."""
    return [scaled_values(row, s) for row in a.values]


def mul(a: TropMatrix3, b: TropMatrix3) -> TropMatrix3:
    """Tropical matrix product: entry (i,j) = max_k a_ik + b_kj."""
    return TropMatrix3.of(grid_mul(a.values, b.values))


def power(a: TropMatrix3, k: int) -> TropMatrix3:
    """k-th tropical power, k >= 1."""
    if k < 1:
        raise ValueError("power requires k >= 1")
    out = a
    for _ in range(k - 1):
        out = mul(out, a)
    return out


def chart0(a: TropMatrix3) -> TropMatrix3:
    """Shift each column so its third entry is 0 (the Z=0 picture of the columns)."""
    z = a.values[2]
    if None in z:
        raise BoundaryPointError("chart0 needs a finite third row")
    return TropMatrix3.of([None if x is None else x - z[j] for j, x in enumerate(row)]
                          for row in a.values)


@dataclass(frozen=True, slots=True)
class DetResult:
    value: Fraction | None
    regular: bool


def trop_det(a: TropMatrix3) -> DetResult:
    """Tropical determinant: max over the six permutation sums.

    The matrix is regular when the maximum is attained by exactly one
    permutation; otherwise it is tropically singular.
    """
    sums = [s for s in assignment_sums(a.values) if s is not None]
    if not sums:
        return DetResult(None, False)  # all six sums are -inf: singular
    best = max(sums)
    return DetResult(best, sums.count(best) == 1)


def adjoint_hat(a: TropMatrix3) -> TropMatrix3:
    """Tropical adjoint: row j is the cross product of columns j-1 and j+1 (mod 3)."""
    return TropMatrix3.of(cross(a.column((j - 1) % 3), a.column((j + 1) % 3)).values
                          for j in range(3))


def breve(a: TropMatrix3) -> TropMatrix3:
    """Auxiliary operator: zero diagonal, entry (i,j) = a_ik + a_kj for the third index k."""
    v = a.values
    if v[0][0] is None or v[1][1] is None or v[2][2] is None:
        raise NonFiniteEntryError("breve requires a finite diagonal")

    return TropMatrix3.of([0 if i == j else t_mul(v[i][3 - i - j], v[3 - i - j][j])
                           for j in range(3)] for i in range(3))


def is_normal(a: TropMatrix3) -> bool:
    """True iff the diagonal is zero and every entry is <= 0."""
    return grid_is_normal(a.values)


def kleene_star(a: TropMatrix3) -> TropMatrix3:
    """Kleene star of a normal matrix; equals its square."""
    if not is_normal(a):
        raise NotNormalError("kleene_star requires a normal matrix")
    return power(a, 2)


@dataclass(frozen=True, slots=True)
class MonomialMatrix:
    """A permutation-plus-translation matrix: one finite entry per row and column.

    Row i carries the finite offset offsets[i] in column perm[i] (0-indexed).
    These are the tropically invertible matrices.
    """

    perm: tuple[int, int, int]
    offsets: tuple[Fraction, Fraction, Fraction]

    @staticmethod
    def identity() -> "MonomialMatrix":
        return MonomialMatrix((0, 1, 2), (Fraction(0),) * 3)

    def to_matrix(self) -> TropMatrix3:
        return TropMatrix3.of([off if j == k else None for j in range(3)]
                              for k, off in zip(self.perm, self.offsets))

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        perm = tuple(other.perm[self.perm[i]] for i in range(3))
        offs = tuple(self.offsets[i] + other.offsets[self.perm[i]] for i in range(3))
        return MonomialMatrix(perm, offs)

    def inverse(self) -> "MonomialMatrix":
        perm = [0, 0, 0]
        offs = [Fraction(0)] * 3
        for i in range(3):
            perm[self.perm[i]] = i
            offs[self.perm[i]] = -self.offsets[i]
        return MonomialMatrix(tuple(perm), tuple(offs))

    def apply(self, p: ProjPoint) -> ProjPoint:
        v = p.values
        return ProjPoint(tuple(t_mul(off, v[k])
                               for k, off in zip(self.perm, self.offsets)))

    def conjugate(self, a: TropMatrix3) -> TropMatrix3:
        """self ⊙ a ⊙ self^{-1}."""
        return monomial_act(self, a, self.inverse())


def monomial_act(p: MonomialMatrix, a: TropMatrix3, q: MonomialMatrix) -> TropMatrix3:
    """P ⊙ A ⊙ Q for monomial P and Q, applied as an index map (grid_act)."""
    return TropMatrix3.of(grid_act(p, a.values, q))


def is_monomial_pattern(a: TropMatrix3) -> bool:
    """True iff A has exactly one finite entry in each row and each column."""
    cols_seen = set()
    for row in a.values:
        finite = [j for j in range(3) if row[j] is not None]
        if len(finite) != 1:
            return False
        cols_seen.add(finite[0])
    return len(cols_seen) == 3


# Cyclic coordinate relabeling 1 -> 2 -> 3 -> 1: maps [p1,p2,p3] to [p3,p1,p2].
CYCLIC = MonomialMatrix((2, 0, 1), (Fraction(0),) * 3)
