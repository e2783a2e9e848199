"""Seeded property-verification suites.

Each suite runs `trials` randomized checks and returns a list of failure
descriptions (empty means the suite passed).  The CLI `verify` subcommand and
the acceptance tests both drive these functions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import mapping, triangle
from .arrangement import bounded_complex, enumerate_cells, signature_at
from .errors import TroplaneError
from .matrices import (
    IDENTITY,
    TropMatrix3,
    adjoint_hat,
    breve,
    chart0,
    is_normal,
    kleene_star,
    mul,
    power,
    trop_det,
)
from .normalform import (
    _admissible_pairs,
    _f_entries,
    _normalization_for,
    canonical_form,
    make_F,
    make_L,
    normalize,
)
from .projective import AffinePoint, TropLine, chart, collinear, cross, on_line, point
from .randgen import (
    rand_fraction,
    rand_generic_matrix,
    rand_matrix,
    rand_monomial,
    rand_normal,
    rand_params,
    rand_point,
    rand_positive,
)
from .scalars import (
    BOTTOM,
    ZERO,
    plane_norm,
    t_add,
    t_mul,
    trop,
    trop_distance,
)


def _fmt(m: TropMatrix3) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(e) for e in row) + "]" for row in m.rows) + "]"


def _rand_scalar(rng):
    if rng.random() < 0.15:
        return BOTTOM
    return trop(rand_fraction(rng))


def suite_semiring_laws(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        checks = [
            t_add(a, b) == t_add(b, a),
            t_add(t_add(a, b), c) == t_add(a, t_add(b, c)),
            t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c)),
            t_mul(a, t_add(b, c)) == t_add(t_mul(a, b), t_mul(a, c)),
            t_add(a, BOTTOM) == a,
            t_mul(a, BOTTOM) == BOTTOM,
            t_mul(a, ZERO) == a,
            t_add(a, a) == a,
        ]
        if not all(checks):
            fails.append(f"semiring law failed on {a}, {b}, {c}")
    return fails


def suite_norm_axioms(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p = (rand_fraction(rng), rand_fraction(rng))
        q = (rand_fraction(rng), rand_fraction(rng))
        r = (rand_fraction(rng), rand_fraction(rng))
        n = plane_norm(*p)
        ok = (n >= 0 and (n == 0) == (p == (0, 0))
              and plane_norm(-p[0], -p[1]) == n
              and trop_distance(p, q) <= trop_distance(p, r) + trop_distance(r, q)
              and trop_distance(p, q) == trop_distance(q, p))
        if not ok:
            fails.append(f"norm axiom failed at {p}, {q}, {r}")
    return fails


def suite_cramer_line(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p, q = rand_point(rng), rand_point(rng)
        if p == q:
            continue
        line = TropLine(cross(p, q))
        if not (on_line(p, line) and on_line(q, line)):
            fails.append(f"cross({p}, {q}) does not pass through both points")
    return fails


def suite_power_chain(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a = rand_normal(rng)
        sq = power(a, 2)
        hat = adjoint_hat(a)
        ok = (sq == power(a, 3)
              and hat == a.entrywise_max(breve(a))
              and hat == sq
              and kleene_star(a) == sq
              and is_normal(hat))
        if not ok:
            fails.append(f"power/adjoint chain failed on {_fmt(a)}")
    return fails


def suite_goodness_equivalence(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a = rand_normal(rng)
        good = triangle.is_good(a)
        idem = power(a, 2) == a
        dominates = breve(a).entrywise_le(a)
        if not (good == idem == dominates):
            fails.append(f"goodness equivalence failed on {_fmt(a)}")
    return fails


def suite_monomial_closure(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        m1, m2 = rand_monomial(rng), rand_monomial(rng)
        prod = m1 @ m2
        ok = (prod.to_matrix() == mul(m1.to_matrix(), m2.to_matrix())
              and mul(m1.to_matrix(), m1.inverse().to_matrix()) == IDENTITY)
        p = rand_point(rng)
        ok = ok and m1.apply(p) == mapping.apply(m1.to_matrix(), p)
        if not ok:
            fails.append(f"monomial algebra failed on {m1}, {m2}")
    return fails


def suite_det_monomial(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a = rand_matrix(rng)
        m = rand_monomial(rng)
        left = trop_det(mul(m.to_matrix(), a))
        base = trop_det(a)
        shift = sum(m.offsets)
        ok = (left.value.value == base.value.value + shift
              and left.regular == base.regular)
        if not ok:
            fails.append(f"determinant monomial law failed on {_fmt(a)}")
    return fails


def suite_sqrt_law(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p = rand_params(rng)
        if power(make_F(p), 2) != make_L(p.d, p.dv):
            fails.append(f"square of canonical form is not the model: {p}")
    return fails


def suite_sqrt_negative_control(rng: random.Random, trials: int) -> list[str]:
    """g > 0 together with h1 > 0 must break the square-root law."""
    fails = []
    for _ in range(trials):
        dv = (Fraction(0), rand_fraction(rng, 0, 9), rand_fraction(rng, 0, 9))
        h = (rand_positive(rng), Fraction(0), Fraction(0))
        g = rand_positive(rng)
        bad = _f_entries(Fraction(0), dv, h, g)
        if power(bad, 2) == make_L(0, dv):
            fails.append(f"forbidden combination satisfied the law: h1={h[0]}, g={g}")
    return fails


def suite_canonical_invariance(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a = rand_matrix(rng)
        base = canonical_form(a).params
        p, q = rand_monomial(rng), rand_monomial(rng)
        b = mul(mul(p.to_matrix(), a), q.to_matrix())
        got = canonical_form(b).params
        if got != base:
            fails.append(f"params changed under monomial transform: {_fmt(a)}")
    return fails


def suite_normalization_validity(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a = rand_matrix(rng) if rng.random() < 0.5 else rand_normal(rng)
        n = normalize(a)
        ok = (is_normal(n.N)
              and n.N == mul(mul(n.P.to_matrix(), a), n.Q.to_matrix()))
        if not ok:
            fails.append(f"normalization invalid for {_fmt(a)}")
    return fails


def suite_normalizations_agree(rng: random.Random, trials: int) -> list[str]:
    """Canonical params are independent of which normalization seeds them."""
    fails = []
    for _ in range(trials):
        a = rand_matrix(rng)
        base = canonical_form(a).params
        pairs = list(_admissible_pairs(a))
        picks = [pairs[0], pairs[len(pairs) // 2], pairs[-1]]
        for pi, tau in picks:
            n = _normalization_for(a, pi, tau)
            if canonical_form(n.N).params != base:
                fails.append(f"normalization {pi},{tau} disagrees for {_fmt(a)}")
                break
    return fails


def suite_origin_vs_normality(rng: random.Random, trials: int) -> list[str]:
    """Origin-in-soma is claimed to coincide with normality.

    The claim fails for matrices whose columns span a normal matrix's triangle
    in a different order or scaling; the suite reports those honestly.
    """
    fails = []
    for i in range(trials):
        a = rand_normal(rng) if i % 2 == 0 else rand_matrix(rng)
        if triangle.origin_in_soma(a) != is_normal(a):
            fails.append(f"origin membership vs normality failed on {_fmt(a)}")
    return fails


def suite_idempotency_criterion(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        d = rand_positive(rng, 6)
        dv = [rand_fraction(rng, 0, 6) for _ in range(3)]
        l_good = make_L(d, dv)
        if power(l_good, 2) != l_good:
            fails.append(f"L({d},{dv}) with d_j >= 0 not idempotent")
            continue
        j = rng.randrange(3)
        dv[j] = -Fraction(rng.randint(1, int(d * 6) or 1), 6)
        if dv[j] < -d:
            dv[j] = -d
        l_bad = make_L(d, dv)
        if not is_normal(l_bad) or power(l_bad, 2) == l_bad:
            fails.append(f"L({d},{dv}) with d_{j+1} < 0 unexpectedly idempotent")
    return fails


def suite_census(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        m = rand_generic_matrix(rng)
        arr = enumerate_cells(m)
        c0, c1, c2 = arr.counts()
        if (len(arr.cells), c2, c1, c0) != (31, 10, 15, 6) or c0 - c1 + c2 != 1:
            fails.append(f"census {c0}/{c1}/{c2} for {_fmt(m)}")
            continue
        p = AffinePoint(rand_fraction(rng, -30, 30), rand_fraction(rng, -30, 30))
        if arr.find(signature_at(m, p)) is None:
            fails.append(f"point {p} not located in any cell of {_fmt(m)}")
    return fails


def suite_bounded_soma(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p = rand_params(rng)
        f = make_F(p)
        cell, _ = bounded_complex(f)
        if (cell is not None) != (triangle.soma_dimension(p) == 2):
            fails.append(f"bounded 2-cell vs soma dimension mismatch: {p}")
    return fails


def suite_piecewise_behavior(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        f = make_F(rand_params(rng))
        try:
            mapping.piecewise_report(f)
        except TroplaneError as ex:
            fails.append(f"piecewise contract failed on {_fmt(f)}: {ex}")
    return fails


def suite_fixed_set(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p = rand_params(rng)
        f = make_F(p)
        h = triangle.hrep_idempotent(p.d, p.dv)
        s = _hrep_sample(rng, h)
        if mapping.apply(f, point(s.x, s.y, 0)) != point(s.x, s.y, 0):
            fails.append(f"soma sample {s} not fixed for {p}")
            continue
        rep = triangle.analyze(f)
        for ant in rep.antennas:
            b, t = chart(ant.base), chart(ant.tip)
            mid = point(Fraction(b.x + t.x, 2), Fraction(b.y + t.y, 2), 0)
            if mapping.is_fixed(f, mid):
                fails.append(f"antenna midpoint unexpectedly fixed for {p}")
                break
    return fails


def _hrep_sample(rng, h) -> AffinePoint:
    for _ in range(200):
        num = rng.randint(0, 24)
        x = h.x_min + (h.x_max - h.x_min) * Fraction(num, 24)
        lo = max(h.y_min, x + h.diff_min)
        hi = min(h.y_max, x + h.diff_max)
        if lo > hi:
            continue
        y = lo + (hi - lo) * Fraction(rng.randint(0, 24), 24)
        return AffinePoint(x, y)
    return AffinePoint(h.x_min, h.y_min)


def suite_convexity(rng: random.Random, trials: int) -> list[str]:
    fails = []
    witnessed = set()
    seen_dirs = set()
    for _ in range(trials):
        p = rand_params(rng)
        h = triangle.hrep_idempotent(p.d, p.dv)
        a, b = _hrep_sample(rng, h), _hrep_sample(rng, h)
        mid = AffinePoint(Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2))
        if not h.contains(mid):
            fails.append(f"hrep midpoint escaped for {p}")
            continue
        f = make_F(p)
        rep = triangle.analyze(f)
        for ant in rep.antennas:
            seen_dirs.add(ant.direction)
            t = chart(ant.tip)
            for v in rep.soma_vertices_chart:
                mid = point(Fraction(t.x + v.x, 2), Fraction(t.y + v.y, 2), 0)
                if not triangle.member(mid, f):
                    witnessed.add(ant.direction)
    missing = seen_dirs - witnessed
    if missing:
        fails.append(f"no non-convexity witness for directions {sorted(missing)}")
    return fails


def suite_soma_maximality(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p = rand_params(rng)
        f = make_F(p)
        sq = power(f, 2)
        rep = triangle.analyze(f)
        h = triangle.hrep_idempotent(p.d, p.dv)
        s = _hrep_sample(rng, h)
        sp = point(s.x, s.y, 0)
        if not (triangle.member(sp, f) and triangle.member(sp, sq)):
            fails.append(f"soma sample outside triangle or soma for {p}")
            continue
        for ant in rep.antennas:
            if not triangle.member(ant.tip, f) or triangle.member(ant.tip, sq):
                fails.append(f"antenna tip membership wrong for {p}")
                break
    return fails


def _chart_cols(m: TropMatrix3):
    c = chart0(m)
    return [(c.rows[0][j].value, c.rows[1][j].value) for j in range(3)]


def suite_cardinal_points(rng: random.Random, trials: int) -> list[str]:
    """Chart columns of a normal matrix land in the east/north/south-west
    corners of the plane split by the zero tropical line; for idempotents the
    columns are additionally mutually ordered that way."""
    fails = []
    for _ in range(trials):
        a = rand_normal(rng)
        cols = _chart_cols(a)
        corner_ok = (cols[0][0] >= 0 and cols[0][1] <= cols[0][0]
                     and cols[1][1] >= 0 and cols[1][0] <= cols[1][1]
                     and cols[2][0] <= 0 and cols[2][1] <= 0)
        if not corner_ok:
            fails.append(f"corner membership failed for {_fmt(a)}")
            continue
        cols = _chart_cols(power(a, 2))
        ok = (cols[0][0] >= max(cols[1][0], cols[2][0])
              and cols[1][1] >= max(cols[0][1], cols[2][1])
              and cols[2][0] <= min(cols[0][0], cols[1][0])
              and cols[2][1] <= min(cols[0][1], cols[1][1]))
        if not ok:
            fails.append(f"cardinal ordering failed for square of {_fmt(a)}")
    return fails


def suite_map_algebra(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        a = rand_matrix(rng)
        p = rand_point(rng)
        ok = (mapping.apply(a, mapping.apply(a, p))
              == mapping.apply(power(a, 2), p)
              and triangle.member(mapping.apply(a, p), a))
        if not ok:
            fails.append(f"map algebra failed on {_fmt(a)} at {p}")
    return fails


def suite_projector(rng: random.Random, trials: int) -> list[str]:
    fails = []
    spans = 100
    for _ in range(trials):
        a = rand_matrix(rng)
        p = rand_point(rng)
        rho = mapping.project(a, p)
        if mapping.project(a, rho) != rho:
            fails.append(f"projector not idempotent on {_fmt(a)}")
            continue
        pc, rc = chart(p), chart(rho)
        dist = trop_distance((pc.x, pc.y), (rc.x, rc.y))
        for _ in range(spans):
            v = mapping.apply(a, rand_point(rng))
            vc = chart(v)
            if trop_distance((pc.x, pc.y), (vc.x, vc.y)) < dist:
                fails.append(f"projector not minimal on {_fmt(a)} at {p}")
                break
    return fails


def suite_hrep_oracle(rng: random.Random, trials: int) -> list[str]:
    """Membership via half-planes agrees with membership via the projector."""
    fails = []
    for _ in range(trials):
        d = rand_fraction(rng, 0, 5)
        dv = tuple(rand_fraction(rng, 0, 5) for _ in range(3))
        l = make_L(d, dv)
        h = triangle.hrep_idempotent(d, dv)
        s = AffinePoint(rand_fraction(rng, -16, 16), rand_fraction(rng, -16, 16))
        if h.contains(s) != triangle.member(point(s.x, s.y, 0), l):
            fails.append(f"membership oracles disagree at {s} for L({d},{dv})")
    return fails


def suite_collinearity(rng: random.Random, trials: int) -> list[str]:
    fails = []
    for _ in range(trials):
        p, q = rand_point(rng), rand_point(rng)
        if p == q:
            continue
        line = TropLine(cross(p, q))
        r = _point_on(line, rng)
        if not collinear(p, q, r):
            fails.append(f"constructed triple not collinear: {p}, {q}, {r}")
            continue
        a = rand_matrix(rng)
        imgs = [mapping.apply(a, s) for s in (p, q, r)]
        if not collinear(*imgs):
            fails.append(f"collinearity lost under {_fmt(a)}")
    return fails


def _point_on(line: TropLine, rng) -> "point":
    """A point of the line: its vertex or a point along one of its rays."""
    a1, a2, a3 = (line.coeffs[i].value for i in range(3))
    vx, vy = a3 - a1, a3 - a2
    ray = rng.randrange(4)
    t = rand_fraction(rng, 0, 9)
    if ray == 0:
        return point(vx - t, vy, 0)
    if ray == 1:
        return point(vx, vy - t, 0)
    if ray == 2:
        return point(vx + t, vy + t, 0)
    return point(vx, vy, 0)


def suite_apply_vs_project(rng: random.Random, trials: int) -> list[str]:
    l = make_L(3, (9, 2, 4))
    p = point(-12, 0, 0)
    if mapping.apply(l, p) == mapping.project(l, p):
        return ["apply and project unexpectedly agree at the reference input"]
    return []


SUITES = [
    ("semiring-laws", suite_semiring_laws),
    ("norm-axioms", suite_norm_axioms),
    ("cramer-line", suite_cramer_line),
    ("power-chain", suite_power_chain),
    ("goodness-equivalence", suite_goodness_equivalence),
    ("monomial-closure", suite_monomial_closure),
    ("det-monomial", suite_det_monomial),
    ("sqrt-law", suite_sqrt_law),
    ("sqrt-negative-control", suite_sqrt_negative_control),
    ("canonical-invariance", suite_canonical_invariance),
    ("normalization-validity", suite_normalization_validity),
    ("normalizations-agree", suite_normalizations_agree),
    ("origin-vs-normality", suite_origin_vs_normality),
    ("idempotency-criterion", suite_idempotency_criterion),
    ("arrangement-census", suite_census),
    ("bounded-vs-soma", suite_bounded_soma),
    ("piecewise-behavior", suite_piecewise_behavior),
    ("fixed-set", suite_fixed_set),
    ("convexity", suite_convexity),
    ("soma-maximality", suite_soma_maximality),
    ("cardinal-points", suite_cardinal_points),
    ("map-algebra", suite_map_algebra),
    ("projector", suite_projector),
    ("hrep-oracle", suite_hrep_oracle),
    ("collinearity", suite_collinearity),
    ("apply-vs-project", suite_apply_vs_project),
]

# per-suite trial budget relative to the requested count, for the slow ones
_BUDGET = {
    "arrangement-census": Fraction(1, 2),
    "canonical-invariance": Fraction(1, 4),
    "normalizations-agree": Fraction(1, 10),
    "piecewise-behavior": Fraction(1, 10),
    "origin-vs-normality": Fraction(1, 4),
    "projector": Fraction(1, 10),
}


def run_all(seed: int, trials: int):
    """Run every suite; returns list of (name, trials, failures)."""
    results = []
    for name, fn in SUITES:
        n = max(1, int(trials * _BUDGET.get(name, 1)))
        rng = random.Random(f"{seed}:{name}")
        results.append((name, n, fn(rng, n)))
    return results
