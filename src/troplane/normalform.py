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

The orbit search behind canonical_form runs on scaled integers: the input is
multiplied once by s = 3 * lcm(denominators), every step works on 3x3 int
lists, and only the winning candidate is divided back by s.  The results are
exactly those of the same search over Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintViolationError,
    DegenerateError,
    InternalInconsistencyError,
    NonFiniteEntryError,
    NotCanonicalError,
    NotIdempotentError,
    ParameterRangeError,
)
from .matrices import (
    CYCLIC,
    PERMS,
    MonomialMatrix,
    TropMatrix3,
    assignment_sums,
    grid_act,
    grid_is_normal,
    grid_mul,
    scale,
    scaled,
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
    return TropMatrix3.of(_l_rows(d, (d1, d2, d3)))


def _l_rows(d, dv) -> list[list]:
    # L(d, dv) as nested lists, over Fractions or the kernel's scaled ints.
    d1, d2, d3 = dv
    return [
        [0, -d - d2, -2 * d - d3],
        [-2 * d - d1, 0, -d - d3],
        [-d - d1, -2 * d - d2, 0],
    ]


def _f_rows(d, dv, h, g) -> list[list]:
    # Raw F pattern as nested lists, without the complementarity checks.
    rows = _l_rows(d, dv)
    h1, h2, h3 = h
    rows[0][2] -= h3
    rows[1][0] -= h1
    rows[2][1] -= h2
    rows[1][2] -= g
    return rows


def _f_entries(d: Fraction, dv: Triple, h: Triple, g: Fraction) -> TropMatrix3:
    return TropMatrix3.of(_f_rows(d, dv, h, g))


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
    """Parameters of a matrix of the form make_F(p), p admissible.

    Inverts the make_F entry pattern exactly; raises NotCanonicalError when
    the matrix is not make_F of admissible parameters.  Admissible parameters
    need not be canonical: canonical_form(make_F(p)).params may differ from
    p (see triangle.is_pinwheel).
    """
    f.require_finite("read_params")
    v = f.values
    if not grid_is_normal(v):
        raise NotCanonicalError("canonical form must be normal")
    e = grid_mul(v, v)
    if grid_mul(e, e) != e:
        raise NotCanonicalError("square of a canonical form must be idempotent")
    d_candidates = {e[1][2] - e[0][2], e[2][0] - e[1][0], e[0][1] - e[2][1]}
    if len(d_candidates) != 1:
        raise NotCanonicalError("square does not match the model pattern")
    d = d_candidates.pop()
    dv = (-e[2][0] - d, -e[0][1] - d, -e[1][2] - d)
    if d < 0 or any(x < -d for x in dv) or e != _l_rows(d, dv):
        raise NotCanonicalError("square does not match the model pattern")
    resid = [[e[i][j] - v[i][j] for j in range(3)] for i in range(3)]
    if any(x < 0 for row in resid for x in row):
        raise NotCanonicalError("negative residual against the model")
    if resid[2][0] != 0 or resid[0][1] != 0:
        raise NotCanonicalError("g-residual off slot 3")
    p = CanonicalParams(d, dv, (resid[1][0], resid[2][1], resid[0][2]),
                        resid[1][2])
    violations = validate_params(p)
    if violations:
        raise NotCanonicalError("; ".join(violations))
    return p


# --- The scaled-integer kernel ---------------------------------------------
#
# The kernel runs on matrices.scaled(A, s) with s = 3 * scale(A): int grids,
# None for -inf.  Every step below only adds, subtracts and compares, except
# d = (t4 - t3) / 3, which the factor 3 keeps integral.  Monomial matrices in
# the kernel are MonomialMatrix values with int offsets.

Grid = list[list]

_INVERSE = {p: tuple(p.index(i) for i in range(3)) for p in PERMS}
# Every (pi, tau) in lexicographic order, with the index k of the assignment
# PERMS[k] that the diagonal a[pi[j]][tau[j]] picks out.
_PAIRS = tuple((pi, tau, PERMS.index(tuple(tau[pi.index(i)] for i in range(3))))
               for pi in PERMS for tau in PERMS)
_CYC = MonomialMatrix(CYCLIC.perm, (0, 0, 0))
_ROTATIONS = (MonomialMatrix((0, 1, 2), (0, 0, 0)), _CYC, _CYC @ _CYC)


def _unscale_monomial(m: MonomialMatrix, s: int) -> MonomialMatrix:
    return MonomialMatrix(m.perm, tuple(Fraction(x, s) for x in m.offsets))


def _pairs(g: Grid) -> list:
    """(pi, tau) row/column permutations whose induced diagonal is an
    optimal assignment of G, in lexicographic order."""
    sums = assignment_sums(g)
    finite = [v for v in sums if v is not None]
    if not finite:
        raise DegenerateError("matrix admits no finite assignment")
    best = max(finite)
    return [(pi, tau) for pi, tau, k in _PAIRS if sums[k] == best]


def _potentials(g: Grid, pi, tau) -> tuple[MonomialMatrix, MonomialMatrix, Grid]:
    """Solve the dual potentials for a fixed optimal row/column permutation.

    With b_ij = g[pi(i)][tau(j)] we need u_i + b_ij + v_j <= 0 with equality
    on the diagonal.  Writing w = -v this is the difference-constraint system
    w_i - w_j <= b_ii - b_ij, solved by shortest paths and anchored at w_3 = 0.
    Returns (P, Q, N) with N = P (.) G (.) Q normal.
    """
    b = [[g[pi[i]][tau[j]] for j in range(3)] for i in range(3)]
    w = [0, 0, 0]
    for _ in range(3):
        for i in range(3):
            for j in range(3):
                if i == j or b[i][j] is None:
                    continue
                c = b[i][i] - b[i][j]
                if w[j] + c < w[i]:
                    w[i] = w[j] + c
    # sanity: the relaxation must have converged (no negative cycles)
    for i in range(3):
        for j in range(3):
            if (i != j and b[i][j] is not None
                    and w[i] - w[j] > b[i][i] - b[i][j]):
                raise InternalInconsistencyError("potential system did not converge")
    u = [w[i] - w[2] - b[i][i] for i in range(3)]
    v = [w[2] - w[j] for j in range(3)]
    q_perm, q_offs = [0, 0, 0], [0, 0, 0]
    for j in range(3):
        q_perm[tau[j]] = j
        q_offs[tau[j]] = v[j]
    p_mon = MonomialMatrix(pi, tuple(u))
    q_mon = MonomialMatrix(tuple(q_perm), tuple(q_offs))
    # entry (i, j) of N is u_i + b_ij + v_j
    n = grid_act(p_mon, g, q_mon)
    if not grid_is_normal(n):
        raise InternalInconsistencyError("normalization produced a non-normal matrix")
    return p_mon, q_mon, n


def _idempotent(b: Grid) -> tuple[int, tuple, MonomialMatrix]:
    """(d, dv, M) with M^{-1} (.) B (.) M = L(d, dv), for a normal idempotent
    all-finite grid B, checked in that order.

    Relabels the coordinates, centers column 3 at the chart origin, reads the
    side lengths t1..t4 and converts them to (d, d1, d2, d3).
    """
    if not grid_is_normal(b):
        raise NotIdempotentError("idempotent canonicalization requires a normal matrix")
    if grid_mul(b, b) != b:
        raise NotIdempotentError("matrix is not idempotent")
    if any(None in row for row in b):
        raise NonFiniteEntryError(
            "idempotent canonicalization requires all nine entries finite")
    for perm in PERMS:
        # relabel by perm; centering then subtracts c13 from row 1 and c23
        # from row 2 and adds them back to columns 1 and 2
        (_, b12, c13), (b21, _, c23), (b31, b32, _) = (
            [b[perm[i]][perm[j]] for j in range(3)] for i in range(3))
        t1 = -b31 - c13
        t2 = -b32 - c23
        t3 = b21 - c23 - b31
        t4 = b12 - c13 - b32
        if t4 < t3:
            continue
        if (t4 - t3) % 3:
            raise InternalInconsistencyError("t4 - t3 is not divisible by 3 on the scaled grid")
        d = (t4 - t3) // 3
        dv = (t1 - t4, t2 - t4, t3)
        if min(dv) < 0:
            continue
        m = (c13 + t3 + 2 * d, c23 + t3 + d, 0)
        inv = _INVERSE[perm]
        mono = MonomialMatrix(inv, tuple(m[k] for k in inv))
        if grid_act(mono.inverse(), b, mono) != _l_rows(d, dv):
            continue
        return d, dv, mono
    raise InternalInconsistencyError("idempotent canonicalization failed")


def _candidate(g: Grid, pi, tau):
    """The canonical candidate of one admissible pair, on the grid.

    Returns (key, P, Q, F) with F = P (.) G (.) Q and key = (d, -g, dv, h),
    or None when this normalization does not canonicalize.
    """
    p_norm, q_norm, n = _potentials(g, pi, tau)
    d, dv, mono = _idempotent(grid_mul(n, n))
    mono_inv = mono.inverse()
    t = grid_act(mono_inv, n, mono)
    model = _l_rows(d, dv)
    if grid_mul(t, t) != model:
        return None

    resid = [[model[i][j] - t[i][j] for j in range(3)] for i in range(3)]
    if any(v < 0 for row in resid for v in row):
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
    for r in range(3):
        if r:  # relabel under the cyclic coordinate permutation 1->2->3->1
            dv, h, gs = ((dv[2], dv[0], dv[1]), (h[2], h[0], h[1]),
                         (gs[2], gs[0], gs[1]))
        if (gs[0] <= 0 and gs[1] <= 0
                and not validate_params(CanonicalParams(d, dv, h, gs[2]))):
            key = (d, -gs[2], dv, h)
            if best is None or key < best[0]:
                best = (key, r)
    if best is None:
        return None
    key, r = best

    rot = _ROTATIONS[r]
    f = grid_act(rot, t, rot.inverse())
    if f != _f_rows(d, key[2], key[3], -key[1]):
        raise InternalInconsistencyError("canonical matrix does not match its parameters")
    return key, rot @ mono_inv @ p_norm, q_norm @ mono @ rot.inverse(), f


def _admissible_pairs(a: TropMatrix3) -> list:
    """(pi, tau) row/column permutations whose induced diagonal is an
    optimal assignment of A, in lexicographic order."""
    return _pairs(scaled(a, 3 * scale(a)))


def _normalization_for(a: TropMatrix3, pi, tau) -> Normalization:
    """The normalization of A for a fixed optimal row/column permutation."""
    s = 3 * scale(a)
    p_mon, q_mon, n = _potentials(scaled(a, s), pi, tau)
    return Normalization(
        TropMatrix3.of([None if x is None else Fraction(x, s) for x in row]
                       for row in n),
        _unscale_monomial(p_mon, s), _unscale_monomial(q_mon, s))


def normalize(a: TropMatrix3) -> Normalization:
    """Hungarian normalization N = P (.) A (.) Q with N normal.

    Deterministic: the lexicographically smallest admissible permutation pair
    is used with zero-anchored potentials.  On an already-normal matrix that
    pair is (identity, identity) and the potentials are zero, so the result
    is (A, I, I).
    """
    return _normalization_for(a, *_admissible_pairs(a)[0])


def canonical_form(a: TropMatrix3) -> CanonicalResult:
    """Lower canonical normalization of an all-finite matrix.

    The parameters are unique; P and Q are one admissible choice with
    F = P (.) A (.) Q.  Every admissible permutation pair is tried, in
    lexicographic order, and the smallest (d, -g, dv, h) wins; ties keep the
    first.  The search runs on A scaled to integers.
    """
    a.require_finite("canonical_form")
    s = 3 * scale(a)
    g = scaled(a, s)
    best = None
    for pi, tau in _pairs(g):
        cand = _candidate(g, pi, tau)
        if cand is None:
            continue
        key, p_mon, q_mon, f = cand
        if grid_act(p_mon, g, q_mon) != f:
            raise InternalInconsistencyError("P, Q composition check failed")
        if best is None or key < best[0]:
            best = cand
    if best is None:
        raise InternalInconsistencyError("no admissible normalization canonicalizes")
    (d, neg_g, dv, h), p_mon, q_mon, _ = best
    p = CanonicalParams(Fraction(d, s), tuple(Fraction(v, s) for v in dv),
                        tuple(Fraction(v, s) for v in h), Fraction(-neg_g, s))
    return CanonicalResult(p, _unscale_monomial(p_mon, s),
                           _unscale_monomial(q_mon, s), make_F(p))
