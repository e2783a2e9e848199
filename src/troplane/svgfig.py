"""Deterministic SVG rendering of a map's plane geometry in the Z=0 chart.

All geometry is computed exactly with rationals; decimal conversion happens
only when coordinates are serialized (6 decimals, round-half-even).
"""

from __future__ import annotations

from fractions import Fraction

from .arrangement import enumerate_cells
from .matrices import TropMatrix3, chart0, power
from .projective import AffinePoint, chart, embed
from .record import Record
from .triangle import DIRECTIONS, analyze, hrep_idempotent


def fmt(v: Fraction) -> str:
    """Six-decimal rendering of an exact rational, rounded half to even.

    The rounding is exact integer arithmetic on numerator and denominator,
    so it holds at every magnitude and rounds only once.
    """
    q, r = divmod(abs(v.numerator) * 10**6, v.denominator)
    if 2 * r > v.denominator or (2 * r == v.denominator and q % 2):
        q += 1
    whole, frac = divmod(q, 10**6)
    return f"{'-' if v < 0 else ''}{whole}.{frac:06d}"


class Viewport(Record):
    __slots__ = ("x_min", "x_max", "y_min", "y_max")

    def contains(self, p: AffinePoint) -> bool:
        return (self.x_min <= p.x <= self.x_max
                and self.y_min <= p.y <= self.y_max)


DEFAULT_VIEWPORT = Viewport(Fraction(-20), Fraction(20),
                            Fraction(-20), Fraction(20))


def _svg_xy(p: AffinePoint) -> str:
    """SVG coordinates: the y axis points down, so flip it."""
    return f"{fmt(Fraction(p.x))},{fmt(Fraction(-p.y))}"


def _ray_end(start: AffinePoint, direction, vp: Viewport) -> AffinePoint | None:
    """Farthest point of `start + t*direction` (t >= 0) inside the viewport."""
    dx, dy = direction
    t_max = None
    for d, lo, hi, s in ((dx, vp.x_min, vp.x_max, start.x),
                         (dy, vp.y_min, vp.y_max, start.y)):
        if d > 0:
            bound = (hi - s) / d
        elif d < 0:
            bound = (lo - s) / d
        else:
            if not lo <= s <= hi:
                return None
            continue
        if bound < 0:
            return None
        t_max = bound if t_max is None else min(t_max, bound)
    if t_max is None or t_max <= 0:
        return None
    return AffinePoint(start.x + dx * t_max, start.y + dy * t_max)


def _tripod_path(vertex: AffinePoint, vp: Viewport) -> str:
    parts = []
    for direction in DIRECTIONS.values():
        end = _ray_end(vertex, direction, vp)
        if end is not None and vp.contains(vertex):
            parts.append(f"M {_svg_xy(vertex)} L {_svg_xy(end)}")
    return " ".join(parts)


def _clip_halfplane(poly, a: Fraction, b: Fraction, c: Fraction):
    """Keep the part of the polygon with a*x + b*y <= c (exact clip)."""
    if not poly:
        return poly
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp = a * p.x + b * p.y - c
        fq = a * q.x + b * q.y - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append(AffinePoint(p.x + (q.x - p.x) * t,
                                   p.y + (q.y - p.y) * t))
    dedup = []
    for p in out:
        if not dedup or (p.x, p.y) != (dedup[-1].x, dedup[-1].y):
            dedup.append(p)
    if len(dedup) > 1 and (dedup[0].x, dedup[0].y) == (dedup[-1].x, dedup[-1].y):
        dedup.pop()
    return dedup


def _soma_polygon(hrep) -> list[AffinePoint]:
    """Vertices of the soma hexagon from its half-plane bounds."""
    big = 1 + max(abs(hrep.x_min), abs(hrep.x_max),
                  abs(hrep.y_min), abs(hrep.y_max))
    poly = [AffinePoint(hrep.x_min, -big), AffinePoint(hrep.x_max, -big),
            AffinePoint(hrep.x_max, big), AffinePoint(hrep.x_min, big)]
    poly = _clip_halfplane(poly, Fraction(0), Fraction(1), hrep.y_max)
    poly = _clip_halfplane(poly, Fraction(0), Fraction(-1), -hrep.y_min)
    poly = _clip_halfplane(poly, Fraction(-1), Fraction(1), hrep.diff_max)
    poly = _clip_halfplane(poly, Fraction(1), Fraction(-1), -hrep.diff_min)
    return poly


def _poly_path(points: list[AffinePoint], close: bool = True) -> str:
    if not points:
        return ""
    cmds = [f"M {_svg_xy(points[0])}"]
    cmds += [f"L {_svg_xy(p)}" for p in points[1:]]
    if close and len(points) > 2:
        cmds.append("Z")
    return " ".join(cmds)


def _skeleton_paths(a: TropMatrix3, vp: Viewport) -> list[str]:
    """Segments and clipped rays for every 1-cell of the arrangement."""
    arr = enumerate_cells(a)
    zero_cells = [c for c in arr.cells if c.dim == 0]
    paths = []
    for c in arr.cells:
        if c.dim != 1:
            continue
        ends = [z.witness for z in zero_cells
                if z.signature.refines(c.signature)]
        ends.sort(key=lambda p: (p.x, p.y))
        if len(ends) == 2:
            paths.append(f"M {_svg_xy(ends[0])} L {_svg_xy(ends[1])}")
            continue
        anchor = ends[0] if ends else c.witness
        for direction in c.recession_dirs:
            end = _ray_end(anchor, direction, vp)
            if end is not None:
                paths.append(f"M {_svg_xy(anchor)} L {_svg_xy(end)}")
    return paths


def render_figure(a: TropMatrix3, viewport: Viewport = DEFAULT_VIEWPORT) -> str:
    """SVG document for the triangle, soma, antennas, tripods and skeleton."""
    a.require_finite("render_figure")
    vp = viewport
    report = analyze(a)
    result = report.canonical
    p_inv = result.P.inverse()

    def transport(q: AffinePoint) -> AffinePoint:
        return chart(p_inv.apply(embed(q)))

    hrep = hrep_idempotent(result.params.d, result.params.dv)
    soma = [transport(v) for v in _soma_polygon(hrep)]

    lines = []
    for c1, c2, c3 in a.values:
        vertex = AffinePoint(c3 - c1, c3 - c2)
        path = _tripod_path(vertex, vp)
        if path:
            lines.append(path)

    antennas = []
    for ant in report.antennas:
        antennas.append(
            f"M {_svg_xy(chart(ant.base))} L {_svg_xy(chart(ant.tip))}")

    labels = []
    for prefix, m in (("a", a), ("s", power(a, 2))):
        xs, ys, _ = chart0(m).values
        labels += [(f"{prefix}{j + 1}", AffinePoint(xs[j], ys[j])) for j in range(3)]

    width = fmt(vp.x_max - vp.x_min)
    height = fmt(vp.y_max - vp.y_min)
    view_box = (f"{fmt(vp.x_min)} {fmt(-vp.y_max)} {width} {height}")

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{view_box}" width="640" height="640">',
        '<g id="span-region" fill="#fde8c8" stroke="none">',
    ]
    if len(soma) > 2:
        out.append(f'<path d="{_poly_path(soma)}"/>')
    out.append('</g>')

    out.append('<g id="cell-skeleton" stroke="#bbbbbb" stroke-width="0.05" '
               'fill="none">')
    out.extend(f'<path d="{p}"/>' for p in _skeleton_paths(a, vp))
    out.append('</g>')

    out.append('<g id="row-lines" stroke="#3366cc" stroke-width="0.08" '
               'fill="none">')
    out.extend(f'<path d="{p}"/>' for p in lines)
    out.append('</g>')

    out.append('<g id="soma-outline" stroke="#cc6600" stroke-width="0.12" '
               'fill="none">')
    if len(soma) > 2:
        out.append(f'<path d="{_poly_path(soma)}"/>')
    elif soma:
        out.append(f'<path d="{_poly_path(soma, close=False)}" '
                   'stroke-linecap="round"/>')
    out.append('</g>')

    out.append('<g id="antennas" stroke="#cc0000" stroke-width="0.12" '
               'fill="none" stroke-linecap="round">')
    out.extend(f'<path d="{p}"/>' for p in antennas)
    out.append('</g>')

    out.append('<g id="vertex-labels" font-size="0.8" font-family="monospace" '
               'fill="#222222">')
    for name, v in labels:
        out.append(f'<circle cx="{fmt(Fraction(v.x))}" '
                   f'cy="{fmt(Fraction(-v.y))}" r="0.12"/>')
        out.append(f'<text x="{fmt(Fraction(v.x) + Fraction(1, 4))}" '
                   f'y="{fmt(Fraction(-v.y) - Fraction(1, 4))}">{name}</text>')
    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
