"""Seeded property-verification suites.

Each suite runs `trials` randomized checks and returns a list of failure
descriptions (empty means the suite passed).  The CLI `verify` subcommand and
the acceptance tests both drive these functions.  Most suites are written as
one-trial checks and turned into suites by `_per_trial`.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from functools import wraps
from itertools import permutations

from . import mapping, triangle
from .arrangement import bounded_complex, enumerate_cells, signature_at
from .errors import TroplaneError
from .matrices import (
    IDENTITY,
    MonomialMatrix,
    TropMatrix3,
    adjoint_hat,
    breve,
    chart0,
    collinear,
    is_normal,
    kleene_star,
    monomial_act,
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
from .projective import AffinePoint, ProjPoint, TropLine, chart, cross, on_line, point
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
from .scalars import format_value, plane_norm, t_add, t_mul, trop_distance


def _fmt(m: TropMatrix3) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(map(format_value, row)) + "]" for row in m.values) + "]"


def _rand_scalar(rng) -> Fraction | None:
    if rng.random() < 0.15:
        return None
    return rand_fraction(rng)


def _per_trial(check: Callable[[random.Random], str | None]
               ) -> Callable[[random.Random, int], list[str]]:
    """Turn a one-trial check into a suite.

    `check(rng)` draws one trial's inputs and returns a failure message, or
    None (usually by falling off its end) when the trial passes or is
    skipped.  The suite calls it `trials` times on the same rng and keeps the
    messages in trial order, so a trial records at most one failure.
    """
    @wraps(check)
    def suite(rng: random.Random, trials: int) -> list[str]:
        return [msg for msg in (check(rng) for _ in range(trials))
                if msg is not None]
    return suite


@_per_trial
def suite_semiring_laws(rng: random.Random) -> str | None:
    a, b, c = (_rand_scalar(rng) for _ in range(3))
    checks = [
        t_add(a, b) == t_add(b, a),
        t_add(t_add(a, b), c) == t_add(a, t_add(b, c)),
        t_mul(t_mul(a, b), c) == t_mul(a, t_mul(b, c)),
        t_mul(a, t_add(b, c)) == t_add(t_mul(a, b), t_mul(a, c)),
        t_add(a, None) == a,
        t_mul(a, None) is None,
        t_mul(a, Fraction(0)) == a,
        t_add(a, a) == a,
    ]
    if not all(checks):
        return ("semiring law failed on "
                + ", ".join(map(format_value, (a, b, c))))


@_per_trial
def suite_norm_axioms(rng: random.Random) -> str | None:
    p = (rand_fraction(rng), rand_fraction(rng))
    q = (rand_fraction(rng), rand_fraction(rng))
    r = (rand_fraction(rng), rand_fraction(rng))
    n = plane_norm(*p)
    ok = (n >= 0 and (n == 0) == (p == (0, 0))
          and plane_norm(-p[0], -p[1]) == n
          and trop_distance(p, q) <= trop_distance(p, r) + trop_distance(r, q)
          and trop_distance(p, q) == trop_distance(q, p))
    if not ok:
        return f"norm axiom failed at {p}, {q}, {r}"


@_per_trial
def suite_cramer_line(rng: random.Random) -> str | None:
    p, q = rand_point(rng), rand_point(rng)
    if p == q:
        return None
    line = TropLine(cross(p, q))
    if not (on_line(p, line) and on_line(q, line)):
        return f"cross({p}, {q}) does not pass through both points"


@_per_trial
def suite_power_chain(rng: random.Random) -> str | None:
    a = rand_normal(rng)
    sq = power(a, 2)
    hat = adjoint_hat(a)
    ok = (sq == power(a, 3)
          and hat == a.entrywise_max(breve(a))
          and hat == sq
          and kleene_star(a) == sq
          and is_normal(hat))
    if not ok:
        return f"power/adjoint chain failed on {_fmt(a)}"


@_per_trial
def suite_goodness_equivalence(rng: random.Random) -> str | None:
    a = rand_normal(rng)
    good = triangle.is_good(a)
    idem = power(a, 2) == a
    dominates = breve(a).entrywise_le(a)
    if not (good == idem == dominates):
        return f"goodness equivalence failed on {_fmt(a)}"


@_per_trial
def suite_monomial_closure(rng: random.Random) -> str | None:
    m1, m2 = rand_monomial(rng), rand_monomial(rng)
    prod = m1 @ m2
    ok = (prod.to_matrix() == mul(m1.to_matrix(), m2.to_matrix())
          and mul(m1.to_matrix(), m1.inverse().to_matrix()) == IDENTITY)
    p = rand_point(rng)
    ok = ok and m1.apply(p) == mapping.apply(m1.to_matrix(), p)
    if not ok:
        return f"monomial algebra failed on {m1}, {m2}"


@_per_trial
def suite_det_monomial(rng: random.Random) -> str | None:
    a = rand_matrix(rng)
    m = rand_monomial(rng)
    left = trop_det(mul(m.to_matrix(), a))
    base = trop_det(a)
    shift = sum(m.offsets)
    ok = (left.value == base.value + shift
          and left.regular == base.regular)
    if not ok:
        return f"determinant monomial law failed on {_fmt(a)}"


@_per_trial
def suite_sqrt_law(rng: random.Random) -> str | None:
    p = rand_params(rng)
    if power(make_F(p), 2) != make_L(p.d, p.dv):
        return f"square of canonical form is not the model: {p}"


@_per_trial
def suite_sqrt_negative_control(rng: random.Random) -> str | None:
    """g > 0 together with h1 > 0 must break the square-root law."""
    dv = (Fraction(0), rand_fraction(rng, 0, 9), rand_fraction(rng, 0, 9))
    h = (rand_positive(rng), Fraction(0), Fraction(0))
    g = rand_positive(rng)
    bad = _f_entries(Fraction(0), dv, h, g)
    if power(bad, 2) == make_L(0, dv):
        return f"forbidden combination satisfied the law: h1={h[0]}, g={g}"


@_per_trial
def suite_canonical_invariance(rng: random.Random) -> str | None:
    a = rand_matrix(rng)
    base = canonical_form(a).params
    p, q = rand_monomial(rng), rand_monomial(rng)
    b = mul(mul(p.to_matrix(), a), q.to_matrix())
    got = canonical_form(b).params
    if got != base:
        return f"params changed under monomial transform: {_fmt(a)}"


@_per_trial
def suite_normalization_validity(rng: random.Random) -> str | None:
    a = rand_matrix(rng) if rng.random() < 0.5 else rand_normal(rng)
    n = normalize(a)
    ok = (is_normal(n.N)
          and n.N == mul(mul(n.P.to_matrix(), a), n.Q.to_matrix()))
    if not ok:
        return f"normalization invalid for {_fmt(a)}"


@_per_trial
def suite_normalizations_agree(rng: random.Random) -> str | None:
    """Canonical params are independent of which normalization seeds them."""
    a = rand_matrix(rng)
    base = canonical_form(a).params
    pairs = list(_admissible_pairs(a))
    picks = [pairs[0], pairs[len(pairs) // 2], pairs[-1]]
    for pi, tau in picks:
        n = _normalization_for(a, pi, tau)
        if canonical_form(n.N).params != base:
            return f"normalization {pi},{tau} disagrees for {_fmt(a)}"


def _column_normalizer(a: TropMatrix3) -> MonomialMatrix | None:
    """A monomial Q with A ⊙ Q normal, or None if there is none.

    Q exists iff the column maxima of A are attained on pairwise distinct
    rows: a permutation σ with A[σ(j)][j] = max of column j.  Then Q moves
    column j to position σ(j) and shifts it by minus its maximum.
    """
    v = a.values
    maxima = [max(r[j] for r in v) for j in range(3)]
    for sigma in permutations(range(3)):
        if all(v[sigma[j]][j] == maxima[j] for j in range(3)):
            return MonomialMatrix(sigma, tuple(-m for m in maxima))
    return None


def _origin_draw(rng: random.Random, i: int) -> TropMatrix3:
    """Trial i's matrix: normal, N ⊙ Q, P ⊙ N, random, or tie-heavy."""
    kind = i % 5
    if kind == 0:
        return rand_normal(rng)
    if kind == 1:
        return monomial_act(MonomialMatrix.identity(), rand_normal(rng),
                            rand_monomial(rng))
    if kind == 2:
        return monomial_act(rand_monomial(rng), rand_normal(rng),
                            MonomialMatrix.identity())
    if kind == 3:
        return rand_matrix(rng)
    return TropMatrix3.of([[rng.randint(-2, 1) for _ in range(3)]
                           for _ in range(3)])


def suite_origin_vs_normality(rng: random.Random, trials: int) -> list[str]:
    """Origin-in-soma against normality, in its two true forms.

    (i) A normal matrix has the chart origin in its soma.  The converse is
    false: the soma depends only on the columns as projective points, so
    permuting or rescaling the columns of a normal matrix keeps the origin
    in the soma but breaks normality.
    (ii) The corrected statement: the origin lies in the soma of A iff the
    column maxima of A are attained on pairwise distinct rows, i.e. iff
    A ⊙ Q is normal for some monomial Q.  Rows attaining the maxima that
    merely cover all rows put the origin in the span, not in the soma.

    A whole-run suite, not a `_per_trial` check: trial i's draw depends on i.
    """
    fails = []
    for i in range(trials):
        a = _origin_draw(rng, i)
        inside = triangle.origin_in_soma(a)
        q = _column_normalizer(a)
        if is_normal(a) and not inside:
            fails.append(f"normal matrix with origin outside soma: {_fmt(a)}")
        elif inside != (q is not None):
            fails.append(f"origin-in-soma={inside} but distinct-row column "
                         f"maxima={q is not None} on {_fmt(a)}")
        elif q is not None and not is_normal(
                monomial_act(MonomialMatrix.identity(), a, q)):
            fails.append(f"A ⊙ Q not normal for the built Q on {_fmt(a)}")
    return fails


@_per_trial
def suite_idempotency_criterion(rng: random.Random) -> str | None:
    d = rand_positive(rng, 6)
    dv = [rand_fraction(rng, 0, 6) for _ in range(3)]
    l_good = make_L(d, dv)
    if power(l_good, 2) != l_good:
        return f"L({d},{dv}) with d_j >= 0 not idempotent"
    j = rng.randrange(3)
    dv[j] = -Fraction(rng.randint(1, int(d * 6) or 1), 6)
    if dv[j] < -d:
        dv[j] = -d
    l_bad = make_L(d, dv)
    if not is_normal(l_bad) or power(l_bad, 2) == l_bad:
        return f"L({d},{dv}) with d_{j+1} < 0 unexpectedly idempotent"


@_per_trial
def suite_census(rng: random.Random) -> str | None:
    m = rand_generic_matrix(rng)
    arr = enumerate_cells(m)
    c0, c1, c2 = arr.counts()
    if (len(arr.cells), c2, c1, c0) != (31, 10, 15, 6) or c0 - c1 + c2 != 1:
        return f"census {c0}/{c1}/{c2} for {_fmt(m)}"
    p = AffinePoint(rand_fraction(rng, -30, 30), rand_fraction(rng, -30, 30))
    if arr.find(signature_at(m, p)) is None:
        return f"point {p} not located in any cell of {_fmt(m)}"


@_per_trial
def suite_bounded_soma(rng: random.Random) -> str | None:
    p = rand_params(rng)
    f = make_F(p)
    cell, _ = bounded_complex(f)
    if (cell is not None) != (triangle.soma_dimension(p) == 2):
        return f"bounded 2-cell vs soma dimension mismatch: {p}"


@_per_trial
def suite_piecewise_behavior(rng: random.Random) -> str | None:
    f = make_F(rand_params(rng))
    try:
        mapping.piecewise_report(f)
    except TroplaneError as ex:
        return f"piecewise contract failed on {_fmt(f)}: {ex}"


@_per_trial
def suite_fixed_set(rng: random.Random) -> str | None:
    p = rand_params(rng)
    f = make_F(p)
    h = triangle.hrep_idempotent(p.d, p.dv)
    s = _hrep_sample(rng, h)
    if mapping.apply(f, point(s.x, s.y, 0)) != point(s.x, s.y, 0):
        return f"soma sample {s} not fixed for {p}"
    rep = triangle.analyze(f)
    for ant in rep.antennas:
        b, t = chart(ant.base), chart(ant.tip)
        mid = point(Fraction(b.x + t.x, 2), Fraction(b.y + t.y, 2), 0)
        if mapping.is_fixed(f, mid):
            return f"antenna midpoint unexpectedly fixed for {p}"


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
    """A whole-run suite: non-convexity witnesses are pooled across trials."""
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


@_per_trial
def suite_soma_maximality(rng: random.Random) -> str | None:
    p = rand_params(rng)
    f = make_F(p)
    sq = power(f, 2)
    rep = triangle.analyze(f)
    h = triangle.hrep_idempotent(p.d, p.dv)
    s = _hrep_sample(rng, h)
    sp = point(s.x, s.y, 0)
    if not (triangle.member(sp, f) and triangle.member(sp, sq)):
        return f"soma sample outside triangle or soma for {p}"
    for ant in rep.antennas:
        if not triangle.member(ant.tip, f) or triangle.member(ant.tip, sq):
            return f"antenna tip membership wrong for {p}"


def _chart_cols(m: TropMatrix3):
    xs, ys, _ = chart0(m).values
    return list(zip(xs, ys))


@_per_trial
def suite_cardinal_points(rng: random.Random) -> str | None:
    """Chart columns of a normal matrix land in the east/north/south-west
    corners of the plane split by the zero tropical line; for idempotents the
    columns are additionally mutually ordered that way."""
    a = rand_normal(rng)
    cols = _chart_cols(a)
    corner_ok = (cols[0][0] >= 0 and cols[0][1] <= cols[0][0]
                 and cols[1][1] >= 0 and cols[1][0] <= cols[1][1]
                 and cols[2][0] <= 0 and cols[2][1] <= 0)
    if not corner_ok:
        return f"corner membership failed for {_fmt(a)}"
    cols = _chart_cols(power(a, 2))
    ok = (cols[0][0] >= max(cols[1][0], cols[2][0])
          and cols[1][1] >= max(cols[0][1], cols[2][1])
          and cols[2][0] <= min(cols[0][0], cols[1][0])
          and cols[2][1] <= min(cols[0][1], cols[1][1]))
    if not ok:
        return f"cardinal ordering failed for square of {_fmt(a)}"


@_per_trial
def suite_map_algebra(rng: random.Random) -> str | None:
    a = rand_matrix(rng)
    p = rand_point(rng)
    ok = (mapping.apply(a, mapping.apply(a, p))
          == mapping.apply(power(a, 2), p)
          and triangle.member(mapping.apply(a, p), a))
    if not ok:
        return f"map algebra failed on {_fmt(a)} at {p}"


@_per_trial
def suite_projector(rng: random.Random) -> str | None:
    spans = 100
    a = rand_matrix(rng)
    p = rand_point(rng)
    rho = mapping.project(a, p)
    if mapping.project(a, rho) != rho:
        return f"projector not idempotent on {_fmt(a)}"
    pc, rc = chart(p), chart(rho)
    dist = trop_distance((pc.x, pc.y), (rc.x, rc.y))
    for _ in range(spans):
        v = mapping.apply(a, rand_point(rng))
        vc = chart(v)
        if trop_distance((pc.x, pc.y), (vc.x, vc.y)) < dist:
            return f"projector not minimal on {_fmt(a)} at {p}"


@_per_trial
def suite_hrep_oracle(rng: random.Random) -> str | None:
    """Membership via half-planes agrees with membership via the projector."""
    d = rand_fraction(rng, 0, 5)
    dv = tuple(rand_fraction(rng, 0, 5) for _ in range(3))
    l = make_L(d, dv)
    h = triangle.hrep_idempotent(d, dv)
    s = AffinePoint(rand_fraction(rng, -16, 16), rand_fraction(rng, -16, 16))
    if h.contains(s) != triangle.member(point(s.x, s.y, 0), l):
        return f"membership oracles disagree at {s} for L({d},{dv})"


@_per_trial
def suite_collinearity(rng: random.Random) -> str | None:
    p, q = rand_point(rng), rand_point(rng)
    if p == q:
        return None
    line = TropLine(cross(p, q))
    r = _point_on(line, rng)
    if not collinear(p, q, r):
        return f"constructed triple not collinear: {p}, {q}, {r}"
    a = rand_matrix(rng)
    imgs = [mapping.apply(a, s) for s in (p, q, r)]
    if not collinear(*imgs):
        return f"collinearity lost under {_fmt(a)}"


def _point_on(line: TropLine, rng) -> ProjPoint:
    """A point of the line: its vertex or a point along one of its rays."""
    a1, a2, a3 = line.coeffs.values
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
    """One fixed input, checked once whatever `trials` is."""
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
