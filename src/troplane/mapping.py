"""The piecewise-linear map of a matrix: evaluation, projector, behavior.

apply() is the tropical matrix-vector product; project() is the nearest-point
map onto the span of the columns; piecewise_report() labels every 2-cell of
the induced arrangement with the map's behavior there, validating each label
on sampled rational points.

apply() and project() compute on ints: the matrix and the point go to one
scale s = scale(A, *p.values), as matrices.scaled(A, s) and its column, and
only the returned coordinates are divided back by s.
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import (
    Cell,
    _antenna_region,
    _antenna_two_cell,
    enumerate_cells,
    signature_at,
)
from .errors import InternalInconsistencyError
from .matrices import (TropMatrix3, grid_mul, is_monomial_pattern, scale,
                       scaled, scaled_values)
from .normalform import make_L, read_params
from .projective import AffinePoint, ProjPoint, chart, embed
from .record import Record
from .triangle import Antenna, _projection, antenna_slots, member

BIJECTIVE = "bijective-monomial"
NON_BIJECTIVE = "non-injective-non-surjective"

IDENTITY_ON_SOMA = "identity-on-soma"
COLLAPSE = "collapse-to-antenna"
PROJECTION = "parallel-projection"


def apply(a: TropMatrix3, p: ProjPoint) -> ProjPoint:
    """Tropical matrix-vector product."""
    s = scale(a, *p.values)
    out = grid_mul(scaled(a, s), [[x] for x in scaled_values(p.values, s)])
    return ProjPoint(tuple(None if x is None else Fraction(x, s)
                           for (x,) in out))


def project(a: TropMatrix3, p: ProjPoint) -> ProjPoint:
    """Nearest-point map onto the span of the columns of A."""
    rho, _, s = _projection(a, p)
    return ProjPoint(tuple(Fraction(x, s) for x in rho))


def is_fixed(a: TropMatrix3, p: ProjPoint) -> bool:
    return apply(a, p) == p


def classify(a: TropMatrix3) -> str:
    """Bijective exactly for monomial patterns; nothing in between."""
    return BIJECTIVE if is_monomial_pattern(a) else NON_BIJECTIVE


class CellBehavior(Record):
    """How the map acts on one cell.

    `target` is the image of the witness if the cell moves, else None;
    `directions` are the validated projections.
    """

    __slots__ = ("cell", "behavior", "target", "directions", "samples")


class PiecewiseReport(Record):
    __slots__ = ("matrix", "entries")


_SAMPLES = 3  # points drawn around the witness of each 2-cell


def _cell_samples(f: TropMatrix3, cell: Cell):
    """_SAMPLES rational points inside the (convex, open) 2-cell.

    An unbounded cell also gets a far point along its first recession
    direction; the convex cell holds it, so leaving it is an internal error.
    """
    w = cell.witness
    samples = [w]
    eps = Fraction(1)
    tries = 0
    while len(samples) < _SAMPLES and tries < 80:
        for dx, dy in ((eps, 0), (0, eps), (-eps, 0), (0, -eps),
                       (eps, eps), (-eps, -eps)):
            cand = AffinePoint(w.x + dx, w.y + dy)
            if cand not in samples and signature_at(f, cand) == cell.signature:
                samples.append(cand)
                if len(samples) >= _SAMPLES:
                    break
        eps /= 2
        tries += 1
    if len(samples) < _SAMPLES:
        raise InternalInconsistencyError("could not sample cell interior")
    # convexity: pushing along a recession direction stays inside
    for u, v in cell.recession_dirs[:1]:
        far = AffinePoint(w.x + 7 * u, w.y + 7 * v)
        if signature_at(f, far) != cell.signature:
            raise InternalInconsistencyError(
                "recession direction leaves the cell")
        samples.append(far)
    return samples


def _on_segment(q: AffinePoint, base: AffinePoint, tip: AffinePoint) -> bool:
    """Whether q lies on the classical segment base-tip (axis or diagonal)."""
    ux, uy = tip.x - base.x, tip.y - base.y
    qx, qy = q.x - base.x, q.y - base.y
    # solve q = base + s*(u) and check 0 <= s <= 1
    if ux != 0:
        s = qx / ux
    elif uy != 0:
        s = qy / uy
    else:
        return q == base
    return qx == s * ux and qy == s * uy and 0 <= s <= 1


def piecewise_report(f: TropMatrix3) -> PiecewiseReport:
    """Behavior of the map of a canonical-form matrix on every 2-cell."""
    f.require_finite("piecewise_report")
    p = read_params(f)
    arr = enumerate_cells(f)

    square = make_L(p.d, p.dv)  # F⊙F, which read_params checked
    antenna_sigs = {}
    for name, col, direction, length in antenna_slots(p):
        ant = Antenna(square.column(col), direction, length)
        _, wit = _antenna_region(p, name)
        antenna_sigs[_antenna_two_cell(f, arr, wit).signature] = ant

    entries = []
    for cell in arr.cells:
        if cell.dim != 2:
            continue
        samples = _cell_samples(f, cell)
        images = [apply(f, embed(s)) for s in samples]
        if cell.bounded:
            if any(img != embed(s) for s, img in zip(samples, images)):
                raise InternalInconsistencyError(
                    "bounded cell sample is not fixed")
            entries.append(CellBehavior(cell, IDENTITY_ON_SOMA, None, (), tuple(samples)))
            continue
        image0 = chart(images[0])
        if cell.signature in antenna_sigs:
            ant = antenna_sigs[cell.signature]
            b, t = chart(ant.base), chart(ant.tip)
            if not all(_on_segment(chart(img), b, t) for img in images):
                raise InternalInconsistencyError(
                    "antenna cell sample does not map into the antenna")
            entries.append(CellBehavior(cell, COLLAPSE, image0, (), tuple(samples)))
            continue
        good_dirs = tuple(
            (u, v) for u, v in cell.recession_dirs
            if all(apply(f, embed(AffinePoint(s.x + u, s.y + v))) == img
                   for s, img in zip(samples, images)))
        if not good_dirs:
            raise InternalInconsistencyError(
                "unbounded cell has no invariant recession direction")
        if not all(member(img, f) for img in images):
            raise InternalInconsistencyError(
                "projection image leaves the triangle")
        entries.append(CellBehavior(cell, PROJECTION, image0,
                                    good_dirs, tuple(samples)))
    return PiecewiseReport(f, tuple(entries))
