"""Exact max-plus scalar arithmetic and the plane norm.

Scalars are exact rationals extended with a bottom element (-inf).  Inside
the library a scalar is a `Fraction | None`, with None for -inf; `TropScalar`
wraps one for parsing, printing and the semiring laws.  `parse_value` and
`format_value` are the one text form of both.  All arithmetic is exact; there
is no floating-point mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import BottomArithmeticError, ParseError

RationalLike = Union[Fraction, int, str]

# Size bound on rational literals, checked on the text before it is parsed:
# at most MAX_LITERAL_DIGITS digits in all (numerator, denominator and
# decimals) and an exponent of at most MAX_EXPONENT in magnitude.  No literal
# then builds an integer of more than 200 digits.
MAX_LITERAL_DIGITS = 100
MAX_EXPONENT = 100
# Length bound on an echoed error reason; a longer one is cut and marked.
MAX_REASON_CHARS = 500


def _check_literal_size(text: str) -> None:
    mantissa, _, exponent = text.lower().partition("e")
    if sum(c.isdecimal() for c in mantissa) > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"rational literal has more than {MAX_LITERAL_DIGITS} digits")
    digits = "".join(c for c in exponent if c.isdecimal()).lstrip("0")
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
        raise ParseError(
            f"rational literal exponent exceeds {MAX_EXPONENT} in magnitude")


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction.

    Strings must respect the literal size bound (MAX_LITERAL_DIGITS,
    MAX_EXPONENT); a longer one raises ParseError before it is parsed.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        _check_literal_size(x)
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid rational literal {x!r}") from exc
    raise ParseError(f"cannot interpret {x!r} as a rational")


def parse_value(text: str) -> Fraction | None:
    """Parse a scalar literal: "-inf" gives None, anything else a Fraction."""
    t = text.strip()
    return None if t == "-inf" else as_fraction(t)


def format_value(x: Fraction | None) -> str:
    """The literal of a scalar: "-inf" for None, else the Fraction's str."""
    return "-inf" if x is None else str(x)


@dataclass(frozen=True, slots=True)
class TropScalar:
    """A max-plus scalar: an exact rational or bottom (-inf).

    Bottom is the neutral element of tropical addition (max) and absorbing
    for tropical multiplication (+).  It compares strictly below every
    finite value.
    """

    value: Fraction | None  # None encodes -inf

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> Fraction:
        if self.value is None:
            raise BottomArithmeticError("expected a finite tropical scalar")
        return self.value

    def __lt__(self, other: "TropScalar") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __le__(self, other: "TropScalar") -> bool:
        return self == other or self < other

    def __neg__(self) -> "TropScalar":
        if self.value is None:
            raise BottomArithmeticError("cannot negate -inf inside the max-plus scalars")
        return TropScalar(-self.value)

    def __str__(self) -> str:
        return format_value(self.value)

    def __repr__(self) -> str:
        return f"TropScalar({self})"

    @staticmethod
    def parse(text: str) -> "TropScalar":
        return TropScalar(parse_value(text))


BOTTOM = TropScalar(None)
ZERO = TropScalar(Fraction(0))


def trop(x: RationalLike) -> TropScalar:
    """Build a finite tropical scalar from a rational-like value."""
    return TropScalar(as_fraction(x))


def t_add(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical addition: max.  Bottom is neutral."""
    if a.value is None:
        return b
    if b.value is None:
        return a
    return a if a.value >= b.value else b


def t_mul(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical multiplication: classical sum.  Bottom is absorbing."""
    if a.value is None or b.value is None:
        return BOTTOM
    return TropScalar(a.value + b.value)


def plane_norm(p1: RationalLike, p2: RationalLike) -> Fraction:
    """Integer-length norm of a finite chart point: max(|p1|, |p2|, |p1-p2|)."""
    x, y = as_fraction(p1), as_fraction(p2)
    return max(abs(x), abs(y), abs(x - y))


def trop_distance(p: tuple[RationalLike, RationalLike],
                  q: tuple[RationalLike, RationalLike]) -> Fraction:
    """Tropical (lattice-length) distance between two finite chart points."""
    return plane_norm(as_fraction(p[0]) - as_fraction(q[0]),
                      as_fraction(p[1]) - as_fraction(q[1]))
