"""Check canonical_form on all of {-1, 0, 1}^9 against the Fraction oracle.

Run from a source checkout (takes several minutes):

    python tests/canonical_sweep.py

For each of the 19,683 matrices A it checks that

- canonical_form(A) equals ``fraction_oracle.canonical_form(A)`` on the
  params, P, Q and F;
- F = P (.) A (.) Q, formed with dense products, and F (.) F = L(d, dv);
- canonicalization is idempotent: canonical_form(F) has the same params;
- the params are unchanged under one fixed monomial change of coordinates
  on each side.

It prints one line and exits 0 when every check holds; otherwise it prints
the first matrix with the first field that differs, and exits 1.  pytest
does not collect this file; tests/test_canonical_kernel.py runs the oracle
comparison on seeded samples.
"""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import fraction_oracle as oracle  # noqa: E402
from troplane.matrices import MonomialMatrix, TropMatrix3, mul, power  # noqa: E402
from troplane.normalform import canonical_form, make_L  # noqa: E402

LEFT = MonomialMatrix((1, 2, 0), (Fraction(1), Fraction(-2), Fraction(1, 2)))
RIGHT = MonomialMatrix((2, 1, 0), (Fraction(-1, 3), Fraction(3), Fraction(0)))


def first_difference(a: TropMatrix3) -> str | None:
    """The name of the first check that fails on A, or None."""
    got, want = canonical_form(a), oracle.canonical_form(a)
    for field in ("params", "P", "Q", "F"):
        if getattr(got, field) != getattr(want, field):
            return f"{field} differs from the oracle"
    if mul(mul(got.P.to_matrix(), a), got.Q.to_matrix()) != got.F:
        return "F != P (.) A (.) Q"
    p = got.params
    if power(got.F, 2) != make_L(p.d, p.dv):
        return "F (.) F != L(d, dv)"
    if canonical_form(got.F).params != p:
        return "params of canonical_form(F)"
    moved = mul(mul(LEFT.to_matrix(), a), RIGHT.to_matrix())
    if canonical_form(moved).params != p:
        return "params after a monomial change of coordinates"
    return None


def main() -> int:
    count = 0
    for e in itertools.product((-1, 0, 1), repeat=9):
        a = TropMatrix3.of([e[0:3], e[3:6], e[6:9]])
        field = first_difference(a)
        if field is not None:
            print(f"mismatch at {[e[0:3], e[3:6], e[6:9]]}: {field}")
            return 1
        count += 1
    print(f"{count} matrices: canonical form same as the oracle, "
          "idempotent and invariant")
    return 0


if __name__ == "__main__":
    sys.exit(main())
