"""Closed rational-endpoint intervals with directed-rounded square roots.

All endpoints are exact ``fractions.Fraction`` values; every operation is
outward-safe (the result interval contains the exact image of the operand
intervals), so chains of operations stay certified.

Square roots are rounded to a grid 1/den, down for a lower end and up for an
upper end.  A root comes back unrounded only where it is an exact rational
off the grid (sqrt(9/25) = 3/5 at den 2^64): rounding it would widen a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import DomainError

Rat = Union[Fraction, int]


def _rational(value, what: str) -> Fraction:
    """``value`` as a Fraction, or a DomainError naming ``what`` it was to be."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError(f"{what} must be a rational, got {value!r}") from None


def _text(x: Fraction) -> str:
    """``str(x)``, or ``~2^e`` with 2^e <= |x| < 2^(e+1) where x has too many digits to print."""
    try:
        return str(x)
    except ValueError:
        p, q = abs(x.numerator), x.denominator
        e = p.bit_length() - q.bit_length()
        e -= (p << max(-e, 0)) < (q << max(e, 0))
        return f"{'-' if x < 0 else ''}~2^{e}"


def _repr(x) -> str:
    """``repr(x)``, or ``_text(x)`` for a rational with too many digits to print."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, (int, Fraction)):
            return _text(x)
        raise


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        # Fraction(x) copies even a Fraction, and nearly every endpoint is one
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(value: Rat) -> "Interval":
        value = Fraction(value)
        return Interval(value, value)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Rat) -> bool:
        return self.lo <= value <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("empty intersection")
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("divisor interval contains zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))

    def scale(self, factor: Rat) -> "Interval":
        if type(factor) is not Fraction:
            factor = Fraction(factor)
        if factor >= 0:
            return Interval(self.lo * factor, self.hi * factor)
        return Interval(self.hi * factor, self.lo * factor)

    def shift(self, offset: Rat) -> "Interval":
        if type(offset) is not Fraction:
            offset = Fraction(offset)
        return Interval(self.lo + offset, self.hi + offset)

    def __repr__(self) -> str:
        return f"Interval(lo={_repr(self.lo)}, hi={_repr(self.hi)})"

    def __str__(self) -> str:
        return f"[{_text(self.lo)}, {_text(self.hi)}]"


def exact_sqrt(value: Rat) -> Fraction | None:
    """Return the exact rational square root of ``value`` if one exists."""
    value = Fraction(value)
    if value < 0:
        raise DomainError(value)
    p, q = value.numerator, value.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _grid_root(value: Fraction, den: int) -> tuple[int, int, int]:
    """(a, b, d): a/d and b/d are the floor and ceiling of sqrt(value) on the grid 1/den.

    With value = p/q and p*den^2 = N*q + r, the floor is isqrt(N) and the
    ceiling the floor plus one, unless r == 0 and N is a square: then the root
    is isqrt(N)/den at both ends.  Only when r != 0 can the root be a rational
    off the grid (sqrt(9/25) = 3/5 at den 2^64), which comes back unrounded.
    """
    if value < 0:
        raise DomainError(value)
    p, q = value.numerator, value.denominator
    n, r = divmod(p * den * den, q)
    m = isqrt(n)
    if r:
        root = exact_sqrt(value)
        if root is not None:
            return root.numerator, root.numerator, root.denominator
    elif m * m == n:
        return m, m, den
    return m, m + 1, den


def sqrt_interval(iv: Interval, den: int) -> Interval:
    """Outward-rounded square root of a non-negative interval.

    A point takes both ends from one root.
    """
    if iv.lo == iv.hi:
        a, b, d = _grid_root(iv.lo, den)
        return Interval(Fraction(a, d), Fraction(b, d))
    a, _, d = _grid_root(iv.lo, den)
    _, b, e = _grid_root(iv.hi, den)
    return Interval(Fraction(a, d), Fraction(b, e))
