"""Exact max-plus scalar arithmetic and the plane norm.

Scalars are exact rationals extended with a bottom element (-inf).  The
library has one scalar representation, a `Fraction | None` with None for
-inf, and `t_add`/`t_mul` are the semiring operations on it.  `parse_value`
and `format_value` are its one text form.  `TropScalar` is only the type of
a parsed literal, which the `TropMatrix3(rows)` constructor accepts.  All
arithmetic is exact; there is no floating-point mode.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .record import Record

RationalLike = Fraction | int | str

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


class TropScalar(Record):
    """A parsed scalar literal, as `TropMatrix3(rows)` accepts it.

    It only carries `value`, None for -inf; the library computes on the values.
    """

    __slots__ = ("value",)

    def __str__(self) -> str:
        return format_value(self.value)

    def __repr__(self) -> str:
        return f"TropScalar({self})"

    @staticmethod
    def parse(text: str) -> "TropScalar":
        return TropScalar(parse_value(text))


def t_add(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    """Tropical addition: max.  -inf (None) is neutral."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def t_mul(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    """Tropical multiplication: classical sum.  -inf (None) is absorbing."""
    return None if a is None or b is None else a + b


def plane_norm(p1: RationalLike, p2: RationalLike) -> Fraction:
    """Integer-length norm of a finite chart point: max(|p1|, |p2|, |p1-p2|)."""
    x, y = as_fraction(p1), as_fraction(p2)
    return max(abs(x), abs(y), abs(x - y))


def trop_distance(p: tuple[RationalLike, RationalLike],
                  q: tuple[RationalLike, RationalLike]) -> Fraction:
    """Tropical (lattice-length) distance between two finite chart points."""
    return plane_norm(as_fraction(p[0]) - as_fraction(q[0]),
                      as_fraction(p[1]) - as_fraction(q[1]))
