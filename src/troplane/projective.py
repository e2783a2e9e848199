"""Points and lines of the tropical projective plane.

Points are triples over Q with -inf up to a finite additive shift; the
canonical representative shifts so that the maximum coordinate is 0.  A line
is stored through its coefficient point; its point set is where the maximum
of coeff_j + q_j is attained at least twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundaryPointError, DegenerateError
from .scalars import RationalLike, as_fraction, format_value, t_add, t_mul


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

    It is stored only as `values`, a triple of Fractions with None for -inf,
    like the grid of a TropMatrix3.  At least one coordinate must be finite.
    Equality is projective: two triples are equal when they differ by a
    finite additive shift.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction | None, ...]):
        values = tuple(values)
        if all(x is None for x in values):
            raise DegenerateError("projective point needs a finite coordinate")
        object.__setattr__(self, "values", values)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("ProjPoint is immutable")

    def canonical(self) -> tuple[Fraction | None, ...]:
        """Representative with maximum coordinate shifted to 0."""
        m = max(x for x in self.values if x is not None)
        return tuple(None if x is None else x - m for x in self.values)

    def __eq__(self, other) -> bool:
        """Same -inf pattern, and one shift x_i - y_i on the finite pairs;
        the same as equal canonical() triples, without building them."""
        if not isinstance(other, ProjPoint):
            return NotImplemented
        shift = None
        for x, y in zip(self.values, other.values):
            if x is None or y is None:
                if x is not y:
                    return False
            elif shift is None:
                shift = x - y
            elif x - y != shift:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self.canonical())

    def all_finite(self) -> bool:
        return None not in self.values

    def __str__(self) -> str:
        return "[" + ", ".join(map(format_value, self.values)) + "]"

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


def point(a: RationalLike | None, b: RationalLike | None, c: RationalLike | None) -> ProjPoint:
    """Build a projective point; None stands for -inf."""
    return ProjPoint(tuple(None if v is None else as_fraction(v) for v in (a, b, c)))


@dataclass(frozen=True, slots=True)
class TropLine:
    """A tropical line, stored through its coefficient point."""

    coeffs: ProjPoint


def chart(p: ProjPoint) -> AffinePoint:
    """Z=0 chart of a point: (p1 - p3, p2 - p3).  Needs p3 finite."""
    x, y, z = p.values
    if z is None:
        raise BoundaryPointError("chart undefined: third coordinate is -inf")
    if x is None or y is None:
        raise BoundaryPointError("chart image would need a -inf coordinate")
    return AffinePoint(x - z, y - z)


def embed(p: AffinePoint) -> ProjPoint:
    """Inverse of chart: (x, y) -> [x, y, 0]."""
    return point(p.x, p.y, 0)


def cross(p: ProjPoint, q: ProjPoint) -> ProjPoint:
    """Tropical cross product (Cramer's rule).

    Gives the stable intersection of the lines with coefficients p and q;
    dually, the stable join of the points p and q is the line with these
    coefficients, and its vertex is the coordinatewise negation of cross(p, q).
    """
    out = [t_add(t_mul(p.values[i], q.values[j]), t_mul(q.values[i], p.values[j]))
           for i, j in ((1, 2), (0, 2), (0, 1))]
    if out == [None, None, None]:
        raise DegenerateError("cross product has no finite coordinate")
    return ProjPoint(tuple(out))


def on_line(q: ProjPoint, line: TropLine) -> bool:
    """True iff the maximum of coeff_j + q_j is attained at least twice.

    When every term is -inf the maximum -inf is attained three times.
    """
    terms = [t for t in map(t_mul, line.coeffs.values, q.values) if t is not None]
    return not terms or terms.count(max(terms)) >= 2


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """True iff the column matrix (p | q | r) is tropically singular."""
    from .matrices import TropMatrix3, trop_det

    m = TropMatrix3.from_columns(p, q, r)
    return not trop_det(m).regular
