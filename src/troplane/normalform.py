"""Normalization of 3x3 tropical matrices.

Two layers: a Hungarian-style normalization N = P (.) A (.) Q with N normal,
and the unique lower canonical form F(d, d1..d3, h1..h3, g) whose square is
the idempotent model matrix L(d, d1..d3).

Parameter conventions (all subscripts mod 3):
  L(d, dv)   = [[0, -d-d2, -2d-d3], [-2d-d1, 0, -d-d3], [-d-d1, -2d-d2, 0]]
  F(params)  = L with h3 subtracted at (1,3), h1 at (2,1), h2 at (3,2) and
               g at (2,3).
Admissible parameters are nonnegative with h_{j+1} > 0 forcing d_j = 0 and
g > 0 forcing d = d1 = h3 = 0 (we additionally require h1 = 0 when g > 0,
since otherwise the square-root law fails).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintViolationError,
    DegenerateError,
    InternalInconsistencyError,
    NotIdempotentError,
    ParameterRangeError,
)
from .matrices import (
    CYCLIC,
    MonomialMatrix,
    TropMatrix3,
    is_normal,
    monomial_act,
    power,
)
from .scalars import RationalLike, as_fraction

Triple = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True, slots=True)
class CanonicalParams:
    """The parameter tuple (d, d1..d3, h1..h3, g) of the lower canonical form."""

    d: Fraction
    dv: Triple
    h: Triple
    g: Fraction

    def as_tuple(self):
        return (self.d, self.dv, self.h, self.g)


def params(d: RationalLike, dv, h=(0, 0, 0), g: RationalLike = 0) -> CanonicalParams:
    return CanonicalParams(as_fraction(d),
                           tuple(as_fraction(v) for v in dv),
                           tuple(as_fraction(v) for v in h),
                           as_fraction(g))


@dataclass(frozen=True, slots=True)
class Normalization:
    N: TropMatrix3
    P: MonomialMatrix
    Q: MonomialMatrix


@dataclass(frozen=True, slots=True)
class CanonicalResult:
    params: CanonicalParams
    P: MonomialMatrix
    Q: MonomialMatrix
    F: TropMatrix3


def make_L(d: RationalLike, dv) -> TropMatrix3:
    """The model matrix L(d, d1..d3); normal, and idempotent iff all d_j >= 0."""
    d = as_fraction(d)
    d1, d2, d3 = (as_fraction(v) for v in dv)
    if d < 0 or any(v < -d for v in (d1, d2, d3)):
        raise ParameterRangeError("make_L needs d >= 0 and d_j >= -d")
    return TropMatrix3.of([
        [0, -d - d2, -2 * d - d3],
        [-2 * d - d1, 0, -d - d3],
        [-d - d1, -2 * d - d2, 0],
    ])


def _f_entries(d: Fraction, dv: Triple, h: Triple, g: Fraction) -> TropMatrix3:
    # Raw F pattern, without the complementarity checks.
    d1, d2, d3 = dv
    h1, h2, h3 = h
    return TropMatrix3.of([
        [0, -d - d2, -2 * d - d3 - h3],
        [-2 * d - d1 - h1, 0, -d - d3 - g],
        [-d - d1, -2 * d - d2 - h2, 0],
    ])


def validate_params(p: CanonicalParams) -> list[str]:
    """Return the list of constraint violations (empty means valid)."""
    out = []
    if p.d < 0:
        out.append("d must be nonnegative")
    for j, v in enumerate(p.dv, start=1):
        if v < 0:
            out.append(f"d{j} must be nonnegative")
    for j, v in enumerate(p.h, start=1):
        if v < 0:
            out.append(f"h{j} must be nonnegative")
    if p.g < 0:
        out.append("g must be nonnegative")
    # h_{j+1} > 0 forces d_j = 0
    for j in range(3):
        if p.h[(j + 1) % 3] > 0 and p.dv[j] != 0:
            d_name, h_name = f"d{j + 1}", f"h{(j + 1) % 3 + 1}"
            out.append(f"{h_name}>0 requires {d_name}=0")
    if p.g > 0:
        if p.d != 0:
            out.append("g>0 requires d=0")
        if p.dv[0] != 0:
            out.append("g>0 requires d1=0")
        if p.h[2] != 0:
            out.append("g>0 requires h3=0")
        if p.h[0] != 0:
            out.append("g>0 requires h1=0")
    return out


def make_F(p: CanonicalParams) -> TropMatrix3:
    """The lower canonical form F; normal, with F^2 = L(d, dv)."""
    violations = validate_params(p)
    if violations:
        raise ConstraintViolationError("; ".join(violations))
    return _f_entries(p.d, p.dv, p.h, p.g)


def read_params(f: TropMatrix3) -> CanonicalParams:
    """Parameters of a matrix already in canonical form.

    Inverts the make_F entry pattern exactly; raises NotCanonicalError when
    the matrix is not a valid canonical form.
    """
    from .errors import NotCanonicalError

    f.require_finite("read_params")
    if not is_normal(f):
        raise NotCanonicalError("canonical form must be normal")
    b = power(f, 2)
    if power(b, 2) != b:
        raise NotCanonicalError("square of a canonical form must be idempotent")
    e = [[x.value for x in row] for row in b.rows]
    d_candidates = {e[1][2] - e[0][2], e[2][0] - e[1][0], e[0][1] - e[2][1]}
    if len(d_candidates) != 1:
        raise NotCanonicalError("square does not match the model pattern")
    d = d_candidates.pop()
    dv = (-e[2][0] - d, -e[0][1] - d, -e[1][2] - d)
    if d < 0 or any(v < -d for v in dv) or b != make_L(d, dv):
        raise NotCanonicalError("square does not match the model pattern")
    resid = [[e[i][j] - f.rows[i][j].value for j in range(3)] for i in range(3)]
    if any(v < 0 for row in resid for v in row):
        raise NotCanonicalError("negative residual against the model")
    if resid[2][0] != 0 or resid[0][1] != 0:
        raise NotCanonicalError("g-residual off slot 3")
    p = CanonicalParams(d, dv, (resid[1][0], resid[2][1], resid[0][2]),
                        resid[1][2])
    violations = validate_params(p)
    if violations:
        raise NotCanonicalError("; ".join(violations))
    return p


def _optimal_assignment_value(a: TropMatrix3):
    best = None
    for perm in itertools.permutations(range(3)):
        if any(a.rows[i][perm[i]].is_bottom for i in range(3)):
            continue
        s = sum(a.rows[i][perm[i]].value for i in range(3))
        if best is None or s > best:
            best = s
    return best


def _admissible_pairs(a: TropMatrix3):
    """Yield (pi, tau) row/column permutations whose induced diagonal is an
    optimal assignment of A, in lexicographic order."""
    best = _optimal_assignment_value(a)
    if best is None:
        raise DegenerateError("matrix admits no finite assignment")
    for pi in itertools.permutations(range(3)):
        for tau in itertools.permutations(range(3)):
            diag = [a.rows[pi[j]][tau[j]] for j in range(3)]
            if any(e.is_bottom for e in diag):
                continue
            if sum(e.value for e in diag) == best:
                yield pi, tau


def _normalization_for(a: TropMatrix3, pi, tau) -> Normalization:
    """Solve the dual potentials for a fixed optimal row/column permutation.

    With b_ij = a[pi(i)][tau(j)] we need u_i + b_ij + v_j <= 0 with equality
    on the diagonal.  Writing w = -v this is the difference-constraint system
    w_i - w_j <= b_ii - b_ij, solved by shortest paths and anchored at w_3 = 0.
    """
    b = [[a.rows[pi[i]][tau[j]] for j in range(3)] for i in range(3)]
    w = [Fraction(0)] * 3
    for _ in range(3):
        for i in range(3):
            for j in range(3):
                if i == j or b[i][j].is_bottom:
                    continue
                c = b[i][i].value - b[i][j].value
                if w[j] + c < w[i]:
                    w[i] = w[j] + c
    # sanity: the relaxation must have converged (no negative cycles)
    for i in range(3):
        for j in range(3):
            if i != j and not b[i][j].is_bottom:
                if w[i] - w[j] > b[i][i].value - b[i][j].value:
                    raise InternalInconsistencyError("potential system did not converge")
    shift = w[2]
    w = [x - shift for x in w]
    u = tuple(w[i] - b[i][i].value for i in range(3))
    v = tuple(-w[j] for j in range(3))

    p_mon = MonomialMatrix(tuple(pi), u)
    q_perm = [0, 0, 0]
    q_offs = [Fraction(0)] * 3
    for j in range(3):
        q_perm[tau[j]] = j
        q_offs[tau[j]] = v[j]
    q_mon = MonomialMatrix(tuple(q_perm), tuple(q_offs))
    n = monomial_act(p_mon, a, q_mon)
    if not is_normal(n):
        raise InternalInconsistencyError("normalization produced a non-normal matrix")
    return Normalization(n, p_mon, q_mon)


def normalize(a: TropMatrix3) -> Normalization:
    """Hungarian normalization N = P (.) A (.) Q with N normal.

    Deterministic: an already-normal matrix returns (A, I, I); otherwise the
    lexicographically smallest admissible permutation pair is used with
    zero-anchored potentials.
    """
    if is_normal(a):
        return Normalization(a, MonomialMatrix.identity(), MonomialMatrix.identity())
    pi, tau = next(iter(_admissible_pairs(a)))
    return _normalization_for(a, pi, tau)


def canonical_idempotent(b: TropMatrix3):
    """Canonical parameters of a normal idempotent matrix.

    Returns (d, dv, M) with make_L(d, dv) = M^{-1} (.) B (.) M, M a diagonal
    monomial matrix.  Centers column 3 at the chart origin, reads the side
    lengths t1..t4 and converts them to (d, d1, d2, d3).
    """
    if not is_normal(b):
        raise NotIdempotentError("canonical_idempotent requires a normal matrix")
    if power(b, 2) != b:
        raise NotIdempotentError("matrix is not idempotent")
    b.require_finite("canonical_idempotent")

    for perm in itertools.permutations(range(3)):
        relabel = MonomialMatrix(perm, (Fraction(0),) * 3)
        bb = relabel.conjugate(b)
        # center: zero the third column so side lengths can be read off
        c13, c23 = bb.rows[0][2].value, bb.rows[1][2].value
        center = MonomialMatrix.diag(-c13, -c23, 0)
        bc = center.conjugate(bb)

        t1 = -bc.rows[2][0].value
        t2 = -bc.rows[2][1].value
        t3 = bc.rows[1][0].value - bc.rows[2][0].value
        t4 = bc.rows[0][1].value - bc.rows[2][1].value
        if t4 < t3:
            continue
        d = (t4 - t3) / 3
        dv = (t1 - t4, t2 - t4, t3)
        if any(v < 0 for v in dv):
            continue
        mono = relabel.inverse() @ center.inverse() @ MonomialMatrix.diag(
            t3 + 2 * d, t3 + d, 0)
        if monomial_act(mono.inverse(), b, mono) != make_L(d, dv):
            continue
        return d, dv, mono
    raise InternalInconsistencyError("idempotent canonicalization failed")


def _rotate_params_once(d, dv, h, gs):
    """Relabel under the cyclic coordinate permutation 1->2->3->1."""
    rot = lambda t: (t[2], t[0], t[1])
    return d, rot(dv), rot(h), rot(gs)


def _try_candidate(a: TropMatrix3, pi, tau) -> CanonicalResult | None:
    if pi == (0, 1, 2) and tau == (0, 1, 2) and is_normal(a):
        norm = Normalization(a, MonomialMatrix.identity(), MonomialMatrix.identity())
    else:
        norm = _normalization_for(a, pi, tau)
    d, dv, mono = canonical_idempotent(power(norm.N, 2))
    t = monomial_act(mono.inverse(), norm.N, mono)
    model = make_L(d, dv)
    if power(t, 2) != model:
        return None

    resid = [[model.rows[i][j].value - t.rows[i][j].value for j in range(3)]
             for i in range(3)]
    if any(resid[i][j] < 0 for i in range(3) for j in range(3)):
        raise InternalInconsistencyError("negative canonicalization residual")
    h = (resid[1][0], resid[2][1], resid[0][2])
    gs = (resid[2][0], resid[0][1], resid[1][2])
    if sum(1 for v in gs if v > 0) > 1:
        return None

    # Cyclic relabeling must park the positive g-slot at position 3; when no
    # slot is positive all three relabelings are canonical, so pick the
    # lexicographically smallest parameter tuple to make the result a true
    # invariant of the monomial-equivalence class.
    best = None
    rd, rdv, rh, rgs = d, dv, h, gs
    for r in range(3):
        if r:
            rd, rdv, rh, rgs = _rotate_params_once(rd, rdv, rh, rgs)
        if rgs[0] <= 0 and rgs[1] <= 0:
            cand = CanonicalParams(rd, rdv, rh, rgs[2])
            if not validate_params(cand):
                key = (cand.d, -cand.g, cand.dv, cand.h)
                if best is None or key < best[0]:
                    best = (key, r, cand)
    if best is None:
        return None
    _, rotations, p = best

    cyc = CYCLIC
    f = t
    for _ in range(rotations):
        f = cyc.conjugate(f)
    if f != make_F(p):
        raise InternalInconsistencyError("canonical matrix does not match its parameters")

    rot = MonomialMatrix.identity()
    for _ in range(rotations):
        rot = cyc @ rot
    p_total = rot @ mono.inverse() @ norm.P
    q_total = norm.Q @ mono @ rot.inverse()
    return CanonicalResult(p, p_total, q_total, f)


def canonical_form(a: TropMatrix3) -> CanonicalResult:
    """Lower canonical normalization of an all-finite matrix.

    The parameters are unique; P and Q are one admissible choice with
    F = P (.) A (.) Q.  Tries the deterministic normalization first, then
    falls back to the remaining admissible permutation pairs.
    """
    a.require_finite("canonical_form")
    best = None
    for pi, tau in _admissible_pairs(a):
        result = _try_candidate(a, pi, tau)
        if result is None:
            continue
        if monomial_act(result.P, a, result.Q) != result.F:
            raise InternalInconsistencyError("P, Q composition check failed")
        p = result.params
        key = (p.d, -p.g, p.dv, p.h)
        if best is None or key < best[0]:
            best = (key, result)
    if best is None:
        raise InternalInconsistencyError("no admissible normalization canonicalizes")
    return best[1]
