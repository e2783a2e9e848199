"""The exact-Fraction orbit search for the lower canonical form.

This is the search ``troplane.normalform`` ran before its kernel moved to
scaled integers, kept here as the differential oracle for
``tests/test_canonical_kernel.py`` and ``tests/test_triangle.py``: every
step runs on ``Fraction`` entries through ``TropMatrix3`` and
``MonomialMatrix``.  ``first_difference`` is the check
``tests/test_canonical_kernel.py`` runs on seeded samples and
``tests/grid_sweep.py`` on every matrix in {-1, 0, 1}^9.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from troplane import normalform
from troplane.errors import (
    DegenerateError,
    InternalInconsistencyError,
    NotIdempotentError,
)
from troplane.matrices import (
    CYCLIC,
    MonomialMatrix,
    TropMatrix3,
    is_normal,
    monomial_act,
    mul,
    power,
)
from troplane.normalform import (
    CanonicalParams,
    CanonicalResult,
    Normalization,
    make_F,
    make_L,
    validate_params,
)


def _optimal_assignment_value(a: TropMatrix3):
    best = None
    for perm in itertools.permutations(range(3)):
        if any(a.values[i][perm[i]] is None for i in range(3)):
            continue
        s = sum(a.values[i][perm[i]] for i in range(3))
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
            diag = [a.values[pi[j]][tau[j]] for j in range(3)]
            if None in diag:
                continue
            if sum(diag) == best:
                yield pi, tau


def _normalization_for(a: TropMatrix3, pi, tau) -> Normalization:
    """Solve the dual potentials for a fixed optimal row/column permutation.

    With b_ij = a[pi(i)][tau(j)] we need u_i + b_ij + v_j <= 0 with equality
    on the diagonal.  Writing w = -v this is the difference-constraint system
    w_i - w_j <= b_ii - b_ij, solved by shortest paths and anchored at w_3 = 0.
    """
    b = [[a.values[pi[i]][tau[j]] for j in range(3)] for i in range(3)]
    w = [Fraction(0)] * 3
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
            if i != j and b[i][j] is not None:
                if w[i] - w[j] > b[i][i] - b[i][j]:
                    raise InternalInconsistencyError("potential system did not converge")
    shift = w[2]
    w = [x - shift for x in w]
    u = tuple(w[i] - b[i][i] for i in range(3))
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


def _diag(t1, t2, t3) -> MonomialMatrix:
    """The diagonal monomial matrix with offsets t1, t2, t3."""
    return MonomialMatrix((0, 1, 2), tuple(map(Fraction, (t1, t2, t3))))


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
        c13, c23 = bb.values[0][2], bb.values[1][2]
        center = _diag(-c13, -c23, 0)
        bc = center.conjugate(bb)

        t1 = -bc.values[2][0]
        t2 = -bc.values[2][1]
        t3 = bc.values[1][0] - bc.values[2][0]
        t4 = bc.values[0][1] - bc.values[2][1]
        if t4 < t3:
            continue
        d = (t4 - t3) / 3
        dv = (t1 - t4, t2 - t4, t3)
        if any(v < 0 for v in dv):
            continue
        mono = relabel.inverse() @ center.inverse() @ _diag(
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

    resid = [[model.values[i][j] - t.values[i][j] for j in range(3)]
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


LEFT = MonomialMatrix((1, 2, 0), (Fraction(1), Fraction(-2), Fraction(1, 2)))
RIGHT = MonomialMatrix((2, 1, 0), (Fraction(-1, 3), Fraction(3), Fraction(0)))


def first_difference(a: TropMatrix3) -> str | None:
    """The name of the first check that fails on A, or None.

    - ``normalform.canonical_form(A)`` equals this module's
      ``canonical_form(A)`` on the params, P, Q and F;
    - F = P (.) A (.) Q, formed with dense products, and F (.) F = L(d, dv);
    - canonicalization is idempotent: canonical_form(F) has the same params;
    - the params are unchanged under one fixed monomial change of
      coordinates on each side (LEFT and RIGHT).
    """
    got, want = normalform.canonical_form(a), canonical_form(a)
    for field in ("params", "P", "Q", "F"):
        if getattr(got, field) != getattr(want, field):
            return f"{field} differs from the oracle"
    if mul(mul(got.P.to_matrix(), a), got.Q.to_matrix()) != got.F:
        return "F != P (.) A (.) Q"
    p = got.params
    if power(got.F, 2) != make_L(p.d, p.dv):
        return "F (.) F != L(d, dv)"
    if normalform.canonical_form(got.F).params != p:
        return "params of canonical_form(F)"
    moved = mul(mul(LEFT.to_matrix(), a), RIGHT.to_matrix())
    if normalform.canonical_form(moved).params != p:
        return "params after a monomial change of coordinates"
    return None
