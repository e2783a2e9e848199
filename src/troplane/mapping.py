"""The piecewise-linear map of a matrix: evaluation, projector, behavior.

apply() is the tropical matrix-vector product; project() is the nearest-point
map onto the span of the columns; piecewise_report() labels every 2-cell of
the induced arrangement with the map's behavior there, validating each label
on sampled rational points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import (
    Cell,
    _antenna_region,
    _antenna_two_cell,
    enumerate_cells,
    signature_at,
)
from .errors import InternalInconsistencyError, NonFiniteEntryError
from .matrices import TropMatrix3, is_monomial_pattern, power
from .normalform import read_params
from .projective import AffinePoint, ProjPoint, chart, point
from .scalars import BOTTOM, t_add, t_mul, trop

BIJECTIVE = "bijective-monomial"
NON_BIJECTIVE = "non-injective-non-surjective"

IDENTITY_ON_SOMA = "identity-on-soma"
COLLAPSE = "collapse-to-antenna"
PROJECTION = "parallel-projection"


def apply(a: TropMatrix3, p: ProjPoint) -> ProjPoint:
    """Tropical matrix-vector product."""
    out = []
    for row in a.rows:
        acc = BOTTOM
        for e, c in zip(row, p.coords):
            acc = t_add(acc, t_mul(e, c))
        out.append(acc)
    return ProjPoint(tuple(out))


def project(a: TropMatrix3, p: ProjPoint) -> ProjPoint:
    """Nearest-point map onto the span of the columns of A."""
    a.require_finite("project")
    if not p.all_finite():
        raise NonFiniteEntryError("project requires a finite point")
    out = [BOTTOM, BOTTOM, BOTTOM]
    for j in range(3):
        col = [a.rows[i][j] for i in range(3)]
        lam = min(p.coords[i].value - col[i].value for i in range(3))
        for i in range(3):
            out[i] = t_add(out[i], t_mul(col[i], trop(lam)))
    return ProjPoint(tuple(out))


def is_fixed(a: TropMatrix3, p: ProjPoint) -> bool:
    return apply(a, p) == p


def classify(a: TropMatrix3) -> str:
    """Bijective exactly for monomial patterns; nothing in between."""
    return BIJECTIVE if is_monomial_pattern(a) else NON_BIJECTIVE


@dataclass(frozen=True, slots=True)
class CellBehavior:
    cell: Cell
    behavior: str
    target: AffinePoint | None  # image of the witness, for non-identity cells
    directions: tuple[tuple[int, int], ...]  # validated projection directions
    samples: tuple[AffinePoint, ...]


@dataclass(frozen=True, slots=True)
class PiecewiseReport:
    matrix: TropMatrix3
    entries: tuple[CellBehavior, ...]


def _as_point(p: AffinePoint) -> ProjPoint:
    return point(p.x, p.y, 0)


def _cell_samples(f: TropMatrix3, cell: Cell, want: int = 3):
    """At least `want` rational points inside the (convex, open) 2-cell."""
    w = cell.witness
    samples = [w]
    eps = Fraction(1)
    tries = 0
    while len(samples) < want and tries < 80:
        for dx, dy in ((eps, 0), (0, eps), (-eps, 0), (0, -eps),
                       (eps, eps), (-eps, -eps)):
            cand = AffinePoint(w.x + dx, w.y + dy)
            if cand not in samples and signature_at(f, cand) == cell.signature:
                samples.append(cand)
                if len(samples) >= want:
                    break
        eps /= 2
        tries += 1
    if len(samples) < want:
        raise InternalInconsistencyError("could not sample cell interior")
    # convexity: pushing along a recession direction stays inside
    for u, v in cell.recession_dirs[:1]:
        far = AffinePoint(w.x + 7 * u, w.y + 7 * v)
        if signature_at(f, far) == cell.signature:
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
    from .triangle import Antenna, member, _ANT_SLOTS

    f.require_finite("piecewise_report")
    p = read_params(f)
    arr = enumerate_cells(f)

    square = power(f, 2)
    antenna_sigs = {}
    slot_values = {"h1": p.h[0], "h2": p.h[1], "h3": p.h[2], "g": p.g}
    for name, value in slot_values.items():
        if value <= 0:
            continue
        col, direction = _ANT_SLOTS[name] if name != "g" else (2, "S")
        ant = Antenna(square.column(col), direction, value)
        _, wit = _antenna_region(p, name)
        antenna_sigs[_antenna_two_cell(f, arr, wit).signature] = ant

    entries = []
    for cell in arr.cells:
        if cell.dim != 2:
            continue
        samples = _cell_samples(f, cell)
        if cell.bounded:
            for s in samples:
                if apply(f, _as_point(s)) != _as_point(s):
                    raise InternalInconsistencyError(
                        "bounded cell sample is not fixed")
            entries.append(CellBehavior(cell, IDENTITY_ON_SOMA, None, (), tuple(samples)))
            continue
        image0 = chart(apply(f, _as_point(samples[0])))
        if cell.signature in antenna_sigs:
            ant = antenna_sigs[cell.signature]
            b, t = chart(ant.base), chart(ant.tip)
            for s in samples:
                q = chart(apply(f, _as_point(s)))
                if not _on_segment(q, b, t):
                    raise InternalInconsistencyError(
                        "antenna cell sample does not map into the antenna")
            entries.append(CellBehavior(cell, COLLAPSE, image0, (), tuple(samples)))
            continue
        good_dirs = []
        for u, v in cell.recession_dirs:
            ok = True
            for s in samples:
                img = apply(f, _as_point(s))
                moved = apply(f, _as_point(AffinePoint(s.x + u, s.y + v)))
                if img != moved:
                    ok = False
                    break
            if ok:
                good_dirs.append((u, v))
        if not good_dirs:
            raise InternalInconsistencyError(
                "unbounded cell has no invariant recession direction")
        for s in samples:
            if not member(apply(f, _as_point(s)), f):
                raise InternalInconsistencyError(
                    "projection image leaves the triangle")
        entries.append(CellBehavior(cell, PROJECTION, image0,
                                    tuple(good_dirs), tuple(samples)))
    return PiecewiseReport(f, tuple(entries))
