"""3x3 tropical matrix algebra.

Columns are points and rows are line coefficients.  Every matrix must carry
at least one finite entry in each row and each column; this is enforced at
construction and assumed by all operations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoundaryPointError,
    InvalidMatrixError,
    NonFiniteEntryError,
    NotNormalError,
)
from .projective import ProjPoint, TropLine
from .scalars import BOTTOM, ZERO, RationalLike, TropScalar, as_fraction, t_add, t_mul, trop

Entry = RationalLike | None  # None stands for -inf in matrix literals


class TropMatrix3:
    """An immutable 3x3 max-plus matrix with a finite entry in each row and column."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[TropScalar, ...], ...]):
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise InvalidMatrixError("expected a 3x3 grid")
        for i in range(3):
            if all(rows[i][j].is_bottom for j in range(3)):
                raise InvalidMatrixError(f"row {i + 1} has no finite entry")
            if all(rows[j][i].is_bottom for j in range(3)):
                raise InvalidMatrixError(f"column {i + 1} has no finite entry")
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    def __setattr__(self, *a):
        raise AttributeError("TropMatrix3 is immutable")

    @staticmethod
    def of(entries) -> "TropMatrix3":
        """Build from a 3x3 nest of rational-likes; None means -inf."""
        return TropMatrix3(tuple(
            tuple(BOTTOM if e is None else trop(e) for e in row) for row in entries))

    @staticmethod
    def from_columns(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> "TropMatrix3":
        cols = (p, q, r)
        return TropMatrix3(tuple(tuple(cols[j][i] for j in range(3)) for i in range(3)))

    def entry(self, i: int, j: int) -> TropScalar:
        return self.rows[i][j]

    def column(self, j: int) -> ProjPoint:
        return ProjPoint(tuple(self.rows[i][j] for i in range(3)))

    def row_line(self, i: int) -> TropLine:
        return TropLine(ProjPoint(self.rows[i]))

    def all_finite(self) -> bool:
        return all(not e.is_bottom for row in self.rows for e in row)

    def require_finite(self, what: str = "operation") -> None:
        if not self.all_finite():
            raise NonFiniteEntryError(f"{what} requires all nine entries finite")

    def entrywise_max(self, other: "TropMatrix3") -> "TropMatrix3":
        return TropMatrix3(tuple(
            tuple(t_add(self.rows[i][j], other.rows[i][j]) for j in range(3))
            for i in range(3)))

    def entrywise_le(self, other: "TropMatrix3") -> bool:
        return all(self.rows[i][j] <= other.rows[i][j]
                   for i in range(3) for j in range(3))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropMatrix3):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(e) for e in row) for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"TropMatrix3({self})"


IDENTITY = TropMatrix3.of([[0, None, None], [None, 0, None], [None, None, 0]])
ZERO_MATRIX = TropMatrix3.of([[0, 0, 0], [0, 0, 0], [0, 0, 0]])


def mul(a: TropMatrix3, b: TropMatrix3) -> TropMatrix3:
    """Tropical matrix product: entry (i,j) = max_k a_ik + b_kj."""
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = BOTTOM
            for k in range(3):
                acc = t_add(acc, t_mul(a.rows[i][k], b.rows[k][j]))
            row.append(acc)
        rows.append(tuple(row))
    return TropMatrix3(tuple(rows))


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
    for j in range(3):
        if a.rows[2][j].is_bottom:
            raise BoundaryPointError("chart0 needs a finite third row")
    rows = []
    for i in range(3):
        rows.append(tuple(
            TropScalar(a.rows[i][j].value - a.rows[2][j].value)
            if not a.rows[i][j].is_bottom else BOTTOM
            for j in range(3)))
    return TropMatrix3(tuple(rows))


@dataclass(frozen=True, slots=True)
class DetResult:
    value: TropScalar
    regular: bool


def trop_det(a: TropMatrix3) -> DetResult:
    """Tropical determinant: max over the six permutation sums.

    The matrix is regular when the maximum is attained by exactly one
    permutation; otherwise it is tropically singular.
    """
    best = BOTTOM
    count = 0
    for perm in itertools.permutations(range(3)):
        s = ZERO
        for i, j in enumerate(perm):
            s = t_mul(s, a.rows[i][j])
        if s.is_bottom:
            continue
        if best.is_bottom or s.value > best.value:
            best, count = s, 1
        elif s.value == best.value:
            count += 1
    if count == 0:
        return DetResult(BOTTOM, False)  # all six sums are -inf: singular
    return DetResult(best, count == 1)


def adjoint_hat(a: TropMatrix3) -> TropMatrix3:
    """Tropical adjoint: row j is the cross product of columns j-1 and j+1 (mod 3)."""
    from .projective import cross

    rows = []
    for j in range(3):
        r = cross(a.column((j - 1) % 3), a.column((j + 1) % 3))
        rows.append(tuple(r[i] for i in range(3)))
    return TropMatrix3(tuple(rows))


def breve(a: TropMatrix3) -> TropMatrix3:
    """Auxiliary operator: zero diagonal, entry (i,j) = a_ik + a_kj for the third index k."""
    for i in range(3):
        if a.rows[i][i].is_bottom:
            raise NonFiniteEntryError("breve requires a finite diagonal")
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            if i == j:
                row.append(ZERO)
            else:
                k = 3 - i - j
                row.append(t_mul(a.rows[i][k], a.rows[k][j]))
        rows.append(tuple(row))
    return TropMatrix3(tuple(rows))


def is_normal(a: TropMatrix3) -> bool:
    """True iff the diagonal is zero and every entry is <= 0."""
    for i in range(3):
        if a.rows[i][i] != ZERO:
            return False
        for j in range(3):
            e = a.rows[i][j]
            if not e.is_bottom and e.value > 0:
                return False
    return True


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

    @staticmethod
    def diag(t1: RationalLike, t2: RationalLike, t3: RationalLike) -> "MonomialMatrix":
        return MonomialMatrix((0, 1, 2), (as_fraction(t1), as_fraction(t2), as_fraction(t3)))

    @staticmethod
    def from_matrix(a: TropMatrix3) -> "MonomialMatrix":
        if not is_monomial_pattern(a):
            raise InvalidMatrixError("matrix does not have a monomial pattern")
        perm, offs = [], []
        for i in range(3):
            j = next(j for j in range(3) if not a.rows[i][j].is_bottom)
            perm.append(j)
            offs.append(a.rows[i][j].value)
        return MonomialMatrix(tuple(perm), tuple(offs))

    def to_matrix(self) -> TropMatrix3:
        rows = []
        for i in range(3):
            rows.append(tuple(TropScalar(self.offsets[i]) if j == self.perm[i] else BOTTOM
                              for j in range(3)))
        return TropMatrix3(tuple(rows))

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
        return ProjPoint(tuple(
            t_mul(TropScalar(self.offsets[i]), p[self.perm[i]]) for i in range(3)))

    def conjugate(self, a: TropMatrix3) -> TropMatrix3:
        """self ⊙ a ⊙ self^{-1}."""
        return monomial_act(self, a, self.inverse())


def monomial_act(p: MonomialMatrix, a: TropMatrix3, q: MonomialMatrix) -> TropMatrix3:
    """P ⊙ A ⊙ Q for monomial P and Q, applied as an index map.

    Row i of P carries u_i in column πP(i) and row k of Q carries v_k in
    column πQ(k), so entry (i, πQ(k)) of the product is u_i + A[πP(i)][k] + v_k,
    and -inf entries stay -inf.  No max-plus product is formed.
    """
    rows = [[BOTTOM] * 3 for _ in range(3)]
    for i in range(3):
        src, u, out = a.rows[p.perm[i]], p.offsets[i], rows[i]
        for k in range(3):
            e = src[k]
            if not e.is_bottom:
                out[q.perm[k]] = TropScalar(u + e.value + q.offsets[k])
    return TropMatrix3(tuple(tuple(r) for r in rows))


def is_monomial_pattern(a: TropMatrix3) -> bool:
    """True iff A has exactly one finite entry in each row and each column."""
    cols_seen = set()
    for i in range(3):
        finite = [j for j in range(3) if not a.rows[i][j].is_bottom]
        if len(finite) != 1:
            return False
        cols_seen.add(finite[0])
    return len(cols_seen) == 3


# Cyclic coordinate relabeling 1 -> 2 -> 3 -> 1: maps [p1,p2,p3] to [p3,p1,p2].
CYCLIC = MonomialMatrix((2, 0, 1), (Fraction(0),) * 3)

P12 = MonomialMatrix((1, 0, 2), (Fraction(0),) * 3)
