"""Tropical triangle analytics.

A 3x3 matrix with finite entries spans a tropical triangle: the set of
tropical linear combinations of its three column points.  The triangle
splits into a classically convex soma plus up to three antennas whose
directions and lengths are read off the canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistencyError, ParameterRangeError
from .matrices import MonomialMatrix, TropMatrix3, power
from .normalform import CanonicalParams, CanonicalResult, canonical_form, normalize
from .projective import AffinePoint, ProjPoint, chart, point
from .scalars import RationalLike, as_fraction, plane_norm

WEST = "W"
SOUTH = "S"
NORTH_EAST = "NE"


@dataclass(frozen=True, slots=True)
class Antenna:
    """A pendant segment of the triangle: base vertex, direction, length."""

    base: ProjPoint
    direction: str
    length: Fraction

    @property
    def tip(self) -> ProjPoint:
        dx = dy = Fraction(0)
        if self.direction == WEST:
            dx = -self.length
        elif self.direction == SOUTH:
            dy = -self.length
        else:
            dx = dy = self.length
        b = chart(self.base)
        return point(b.x + dx, b.y + dy, 0)


@dataclass(frozen=True, slots=True)
class TriangleReport:
    """What analyze() found; `canonical` is the canonical form it used, so
    callers that also need P, Q or F do not canonicalize again."""

    good: bool
    params: CanonicalParams
    soma_dim: int
    antennas: tuple[Antenna, ...]
    pinwheel: bool
    convex: bool
    soma_vertices_chart: tuple[AffinePoint, ...]
    canonical: CanonicalResult


def is_good(a: TropMatrix3) -> bool:
    """Whether the triangle's side lines stably intersect back in its vertices.

    Checked by six slack inequalities on the raw entries; no normalization.
    """
    a.require_finite("is_good")
    e = [[x.value for x in row] for row in a.rows]
    chains = [
        (e[0][1] - e[1][1], e[0][2] - e[1][2], e[0][0] - e[1][0]),
        (e[1][2] - e[2][2], e[1][0] - e[2][0], e[1][1] - e[2][1]),
        (e[2][0] - e[0][0], e[2][1] - e[0][1], e[2][2] - e[0][2]),
    ]
    return all(lo <= mid <= hi for lo, mid, hi in chains)


def soma_dimension(p: CanonicalParams) -> int:
    """0 for a point, 1 for a segment, 2 otherwise."""
    d1, d2, d3 = p.dv
    if p.d == 0 and d1 == d2 == d3 == 0:
        return 0
    if p.d == 0 and any(p.dv[j] == 0 and p.dv[(j + 1) % 3] == 0 for j in range(3)):
        return 1
    return 2


# antenna slot -> (canonical column index, canonical direction)
_ANT_SLOTS = {"h1": (0, SOUTH), "h2": (1, NORTH_EAST), "h3": (2, WEST)}


def _classify_direction(dx: Fraction, dy: Fraction) -> str:
    if dy == 0 and dx < 0:
        return WEST
    if dx == 0 and dy < 0:
        return SOUTH
    if dx == dy and dx > 0:
        return NORTH_EAST
    raise InternalInconsistencyError(f"unrecognized antenna direction ({dx}, {dy})")


def _transported_antenna(back: MonomialMatrix, square: TropMatrix3, col: int,
                         direction: str, length: Fraction) -> Antenna:
    """The antenna at column `col` of F⊙F, moved back by P^{-1}."""
    base_c = square.column(col)
    canonical = Antenna(base_c, direction, length)
    base = back.apply(base_c)
    tip = back.apply(canonical.tip)
    bb, tt = chart(base), chart(tip)
    dx, dy = tt.x - bb.x, tt.y - bb.y
    new_len = plane_norm(dx, dy)
    if new_len != length:
        raise InternalInconsistencyError("antenna length not preserved")
    return Antenna(base, _classify_direction(dx, dy), length)


def analyze(a: TropMatrix3) -> TriangleReport:
    """Full triangle report: goodness, canonical parameters, soma, antennas."""
    a.require_finite("analyze")
    result = canonical_form(a)
    p = result.params
    square = power(result.F, 2)
    back = result.P.inverse()
    antennas = []
    for name, (col, direction) in _ANT_SLOTS.items():
        length = p.h[int(name[1]) - 1]
        if length > 0:
            antennas.append(
                _transported_antenna(back, square, col, direction, length))
    if p.g > 0:
        antennas.append(_transported_antenna(back, square, 2, SOUTH, p.g))

    soma_vertices = tuple(chart(back.apply(square.column(j))) for j in range(3))
    return TriangleReport(
        good=is_good(a),
        params=p,
        soma_dim=soma_dimension(p),
        antennas=tuple(antennas),
        pinwheel=(p.g == 0),
        convex=not antennas,
        soma_vertices_chart=soma_vertices,
        canonical=result,
    )


def is_pinwheel(a: TropMatrix3) -> bool:
    """Whether some monomial change of coordinates removes the g-antenna."""
    a.require_finite("is_pinwheel")
    return canonical_form(a).params.g == 0


def member(p: ProjPoint, a: TropMatrix3) -> bool:
    """Whether p lies in the tropical span of the columns of A."""
    from .mapping import project

    return project(a, p) == p


def origin_in_soma(a: TropMatrix3) -> bool:
    """Whether the chart origin lies in the soma of the triangle of A."""
    a.require_finite("origin_in_soma")
    n = normalize(a)
    moved = n.P.apply(point(0, 0, 0))
    return member(moved, power(n.N, 2))


@dataclass(frozen=True, slots=True)
class HRep:
    """Axis/diagonal bounds cutting out the chart set of an idempotent triangle."""

    x_min: Fraction
    x_max: Fraction
    y_min: Fraction
    y_max: Fraction
    diff_min: Fraction  # lower bound on y - x
    diff_max: Fraction

    def contains(self, p: AffinePoint) -> bool:
        return (self.x_min <= p.x <= self.x_max
                and self.y_min <= p.y <= self.y_max
                and self.diff_min <= p.y - p.x <= self.diff_max)


def hrep_idempotent(d: RationalLike, dv) -> HRep:
    """Half-plane bounds for the triangle of make_L(d, dv) with d, d_j >= 0."""
    d = as_fraction(d)
    d1, d2, d3 = (as_fraction(v) for v in dv)
    if d < 0 or min(d1, d2, d3) < 0:
        raise ParameterRangeError("hrep_idempotent needs d, d_j >= 0")
    return HRep(
        x_min=-2 * d - d3, x_max=d + d1,
        y_min=-d - d3, y_max=2 * d + d2,
        diff_min=-2 * d - d1, diff_max=d + d2,
    )
