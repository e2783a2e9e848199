"""Points and lines of the tropical projective plane.

Points are triples of tropical scalars up to a finite additive shift; the
canonical representative shifts so that the maximum coordinate is 0.  A line
is stored through its coefficient point; its point set is where the maximum
of coeff_j + q_j is attained at least twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundaryPointError, DegenerateError
from .scalars import BOTTOM, RationalLike, TropScalar, t_add, t_mul, trop


@dataclass(frozen=True, slots=True)
class AffinePoint:
    """A point of the Z=0 chart: both coordinates finite rationals."""

    x: Fraction
    y: Fraction

    def __iter__(self):
        return iter((self.x, self.y))

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


class ProjPoint:
    """A point of the tropical projective plane.

    At least one coordinate must be finite.  Equality is projective: two
    triples are equal when they differ by a finite additive shift.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[TropScalar, TropScalar, TropScalar]):
        if all(c.is_bottom for c in coords):
            raise DegenerateError("projective point needs a finite coordinate")
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("ProjPoint is immutable")

    def __getitem__(self, i: int) -> TropScalar:
        return self.coords[i]

    def canonical(self) -> tuple[TropScalar, TropScalar, TropScalar]:
        """Representative with maximum coordinate shifted to 0."""
        m = max(c.value for c in self.coords if c.value is not None)
        return tuple(TropScalar(c.value - m) if c.value is not None else BOTTOM
                     for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __neg__(self) -> "ProjPoint":
        if any(c.is_bottom for c in self.coords):
            raise BoundaryPointError("cannot negate a point with a -inf coordinate")
        return ProjPoint(tuple(TropScalar(-c.value) for c in self.coords))

    def all_finite(self) -> bool:
        return all(not c.is_bottom for c in self.coords)

    def __str__(self) -> str:
        return "[" + ", ".join(str(c) for c in self.coords) + "]"

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


def point(a: RationalLike | None, b: RationalLike | None, c: RationalLike | None) -> ProjPoint:
    """Build a projective point; None stands for -inf."""
    return ProjPoint(tuple(BOTTOM if v is None else trop(v) for v in (a, b, c)))


@dataclass(frozen=True, slots=True)
class TropLine:
    """A tropical line, stored through its coefficient point."""

    coeffs: ProjPoint


def chart(p: ProjPoint) -> AffinePoint:
    """Z=0 chart of a point: (p1 - p3, p2 - p3).  Needs p3 finite."""
    if p[2].is_bottom:
        raise BoundaryPointError("chart undefined: third coordinate is -inf")
    if p[0].is_bottom or p[1].is_bottom:
        raise BoundaryPointError("chart image would need a -inf coordinate")
    z = p[2].value
    return AffinePoint(p[0].value - z, p[1].value - z)


def embed(p: AffinePoint) -> ProjPoint:
    """Inverse of chart: (x, y) -> [x, y, 0]."""
    return point(p.x, p.y, 0)


def cross(p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """Tropical cross product (Cramer's rule).

    Gives the stable intersection of the lines with coefficients p and q;
    dually, the stable join of the points p and q is the line with these
    coefficients, and -cross(p, q) is its vertex.
    """
    c1 = t_add(t_mul(p[1], q[2]), t_mul(q[1], p[2]))
    c2 = t_add(t_mul(p[0], q[2]), t_mul(q[0], p[2]))
    c3 = t_add(t_mul(p[0], q[1]), t_mul(q[0], p[1]))
    if c1.is_bottom and c2.is_bottom and c3.is_bottom:
        raise DegenerateError("cross product has no finite coordinate")
    return ProjPoint((c1, c2, c3))


def on_line(q: ProjPoint, line: TropLine) -> bool:
    """True iff the maximum of coeff_j + q_j is attained at least twice."""
    terms = [t_mul(line.coeffs[j], q[j]) for j in range(3)]
    m = max(terms)
    return sum(1 for t in terms if t == m) >= 2


def line_vertex(line: TropLine) -> ProjPoint:
    """Vertex of a line with all-finite coefficients: the negated coefficients."""
    p = line.coeffs
    if not p.all_finite():
        raise DegenerateError("line with a -inf coefficient has no vertex")
    return -p


@dataclass(frozen=True, slots=True)
class SpanSegment:
    """Tropical segment between two chart points: at most two classical legs.

    The elbow is the vertex of the stable join line; the polyline runs
    p -> elbow -> q and degenerates when the elbow coincides with an end.
    """

    p: AffinePoint
    elbow: AffinePoint
    q: AffinePoint

    def leg_points(self) -> tuple[AffinePoint, ...]:
        pts = [self.p]
        if self.elbow != self.p and self.elbow != self.q:
            pts.append(self.elbow)
        if self.q != pts[-1]:
            pts.append(self.q)
        return tuple(pts)


def span_segment(p: ProjPoint, q: ProjPoint) -> SpanSegment:
    """Span of two chart-representable points, with its elbow."""
    cp, cq = chart(p), chart(q)
    if cp == cq:
        return SpanSegment(cp, cp, cq)
    elbow = chart(-cross(p, q))
    return SpanSegment(cp, elbow, cq)


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """True iff the column matrix (p | q | r) is tropically singular."""
    from .matrices import TropMatrix3, trop_det

    m = TropMatrix3.from_columns(p, q, r)
    return not trop_det(m).regular
