"""svgfig.fmt against the Decimal rendering it replaced.

`_decimal_fmt` is the former svgfig.fmt, kept verbatim as the reference: a
50-digit Decimal division, then a quantize to six decimals.  It rounds
twice, so it differs from exact rounding only when the division's own
rounding lands on a half-quantum tie.  None of the compared values does;
one test pins the exact result on a value where the two differ.
"""

import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from troplane.svgfig import fmt

_QUANTUM = Decimal("0.000001")


def _decimal_fmt(v: Fraction) -> str:
    """Fixed-precision decimal rendering of an exact rational.

    The division keeps 50 significant digits, which holds six decimals up to
    |v| < 10^44; a larger value is divided again with the digits it needs.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(v.numerator) / Decimal(v.denominator)
        if d.adjusted() > 43:
            ctx.prec = d.adjusted() + 8
            d = Decimal(v.numerator) / Decimal(v.denominator)
        return str(d.quantize(_QUANTUM, rounding=ROUND_HALF_EVEN))


def _edge_values():
    half = Fraction(1, 2 * 10**6)
    values = [Fraction(0), Fraction(-1, 10**7), Fraction(1, 10**7),
              Fraction(10**60, 7), Fraction(-10**60, 7),
              Fraction(10**44 - 1, 3), Fraction(-10**45, 11)]
    for k in range(-3, 4):  # +-half-quantum ties on both sides of zero
        for sign in (1, -1):
            values.append(sign * (Fraction(k, 10**6) + half))
    return values


def test_fmt_matches_the_decimal_rendering():
    rng = random.Random(2100)
    values = _edge_values()
    for _ in range(20000):
        num = rng.randint(-10**rng.randint(1, 30), 10**rng.randint(1, 30))
        values.append(Fraction(num, rng.randint(1, 10**rng.randint(1, 12))))
    for v in values:
        assert fmt(v) == _decimal_fmt(v), v


def test_fmt_rounds_once():
    # just above a half quantum: the 50-digit division rounds it onto the
    # tie, and the quantize then rounds the tie down to even
    v = Fraction(1, 2 * 10**6) + Fraction(1, 10**60)
    assert _decimal_fmt(v) == "0.000000"
    assert fmt(v) == "0.000001"
    assert fmt(-v) == "-0.000001"


def test_fmt_signs_and_ties():
    assert fmt(Fraction(-1, 10**7)) == "-0.000000"
    assert fmt(Fraction(0)) == "0.000000"
    assert fmt(Fraction(3, 2 * 10**6)) == "0.000002"
    assert fmt(Fraction(5, 2 * 10**6)) == "0.000002"
    assert fmt(Fraction(-7, 4)) == "-1.750000"
    assert fmt(Fraction(10**60, 7)).endswith("857.142857")
