"""Exact max-plus scalar arithmetic and the plane norm.

Scalars are exact rationals extended with a bottom element (-inf).  The dual
min-plus scalars carry a top element (+inf) instead.  All arithmetic is exact;
there is no floating-point mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import BottomArithmeticError, ParseError

RationalLike = Union[Fraction, int, str]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"invalid rational literal {x!r}") from exc
    raise ParseError(f"cannot interpret {x!r} as a rational")


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
        return "-inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"TropScalar({self})"

    @staticmethod
    def parse(text: str) -> "TropScalar":
        t = text.strip()
        if t == "-inf":
            return BOTTOM
        return TropScalar(as_fraction(t))


@dataclass(frozen=True, slots=True)
class DualScalar:
    """A min-plus scalar: an exact rational or top (+inf)."""

    value: Fraction | None  # None encodes +inf

    @property
    def is_top(self) -> bool:
        return self.value is None

    def __lt__(self, other: "DualScalar") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __str__(self) -> str:
        return "+inf" if self.value is None else str(self.value)

    def __repr__(self) -> str:
        return f"DualScalar({self})"

    @staticmethod
    def parse(text: str) -> "DualScalar":
        t = text.strip()
        if t == "+inf":
            return TOP
        return DualScalar(as_fraction(t))


BOTTOM = TropScalar(None)
ZERO = TropScalar(Fraction(0))
TOP = DualScalar(None)


def trop(x: RationalLike) -> TropScalar:
    """Build a finite tropical scalar from a rational-like value."""
    return TropScalar(as_fraction(x))


def dual(x: RationalLike) -> DualScalar:
    return DualScalar(as_fraction(x))


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


def t_min(a: DualScalar, b: DualScalar) -> DualScalar:
    """Dual tropical addition: min.  Top is neutral."""
    if a.value is None:
        return b
    if b.value is None:
        return a
    return a if a.value <= b.value else b


def plane_norm(p1: RationalLike, p2: RationalLike) -> Fraction:
    """Integer-length norm of a finite chart point: max(|p1|, |p2|, |p1-p2|)."""
    x, y = as_fraction(p1), as_fraction(p2)
    return max(abs(x), abs(y), abs(x - y))


def trop_distance(p: tuple[RationalLike, RationalLike],
                  q: tuple[RationalLike, RationalLike]) -> Fraction:
    """Tropical (lattice-length) distance between two finite chart points."""
    return plane_norm(as_fraction(p[0]) - as_fraction(q[0]),
                      as_fraction(p[1]) - as_fraction(q[1]))
