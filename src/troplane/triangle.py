"""Tropical triangle analytics.

A 3x3 matrix with finite entries spans a tropical triangle: the set of
tropical linear combinations of its three column points.  The triangle
splits into a classically convex soma plus up to three antennas whose
directions and lengths are read off the canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalInconsistencyError,
    NonFiniteEntryError,
    ParameterRangeError,
)
from .matrices import (
    MonomialMatrix,
    TropMatrix3,
    grid_mul,
    power,
    scale,
    scaled,
    scaled_values,
)
from .normalform import (
    CanonicalParams,
    CanonicalResult,
    canonical_form,
    make_L,
    normalize,
)
from .projective import AffinePoint, ProjPoint, chart, point
from .scalars import RationalLike, as_fraction, plane_norm

WEST = "W"
SOUTH = "S"
NORTH_EAST = "NE"
# unit chart vector of each antenna and tripod-ray direction; svgfig draws
# tripod rays in this order, so reordering it changes the figures
DIRECTIONS = {WEST: (-1, 0), SOUTH: (0, -1), NORTH_EAST: (1, 1)}


@dataclass(frozen=True, slots=True)
class Antenna:
    """A pendant segment of the triangle: base vertex, direction, length."""

    base: ProjPoint
    direction: str
    length: Fraction

    @property
    def tip(self) -> ProjPoint:
        ux, uy = DIRECTIONS[self.direction]
        b = chart(self.base)
        return point(b.x + self.length * ux, b.y + self.length * uy, 0)


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
    e = a.values
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


def antenna_slots(p: CanonicalParams):
    """(name, column of F⊙F, direction, length) of each antenna of the
    canonical form with parameters p, in h1, h2, h3, g order."""
    for name, col, direction, length in (
            ("h1", 0, SOUTH, p.h[0]), ("h2", 1, NORTH_EAST, p.h[1]),
            ("h3", 2, WEST, p.h[2]), ("g", 2, SOUTH, p.g)):
        if length > 0:
            yield name, col, direction, length


def _classify_direction(dx: Fraction, dy: Fraction) -> str:
    n = plane_norm(dx, dy)
    for direction, (ux, uy) in DIRECTIONS.items():
        if n > 0 and (dx, dy) == (n * ux, n * uy):
            return direction
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
    square = make_L(p.d, p.dv)  # F⊙F, which canonical_form checked
    back = result.P.inverse()
    antennas = [_transported_antenna(back, square, col, direction, length)
                for _, col, direction, length in antenna_slots(p)]

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
    """Whether no admissible normalization of A has a g-antenna.

    This is the library's definition of a pinwheel: no admissible
    normalization gives a canonical candidate with g > 0.  canonical_form
    keeps the smallest key (d, -g, dv, h), so it picks the largest g that any
    candidate offers, and the flag is that g being 0.  It is a statement
    about all normalizations: a matrix that read_params already reads with
    g = 0 is not a pinwheel when another normalization gives g > 0.
    """
    a.require_finite("is_pinwheel")
    return canonical_form(a).params.g == 0


def _projection(a: TropMatrix3, p: ProjPoint):
    """(project(a, p), p, s) as ints on the common scale s; mapping.project
    and member share it."""
    a.require_finite("project")
    if not p.all_finite():
        raise NonFiniteEntryError("project requires a finite point")
    s = scale(a, *p.values)
    v, q = scaled(a, s), scaled_values(p.values, s)
    # column j scaled by the largest lam_j with a_ij + lam_j <= p_i for all i
    lam = [[min(q[i] - v[i][j] for i in range(3))] for j in range(3)]
    return [x for (x,) in grid_mul(v, lam)], q, s


def member(p: ProjPoint, a: TropMatrix3) -> bool:
    """Whether p lies in the tropical span of the columns of A.

    That is project(A, p) == p.  The projection is <= p in every coordinate
    and equal in one (each lam_j is attained), so projective equality is
    plain equality here, checked on the integer scale without building it.
    """
    rho, q, _ = _projection(a, p)
    return rho == q


def origin_in_soma(a: TropMatrix3) -> bool:
    """Whether the chart origin lies in the soma of the triangle of A.

    Every normal A has the origin in its soma, but not conversely: the soma
    depends only on the columns as projective points, so permuting or
    rescaling the columns of a normal matrix keeps the origin inside.  The
    exact criterion (a correction made in this library, checked by the
    `origin-vs-normality` suite) is that the column maxima of A are attained
    on pairwise distinct rows, i.e. that A ⊙ Q is normal for some monomial Q.
    Rows attaining the maxima that only cover all rows put the origin in the
    span of A, not in its soma.
    """
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
