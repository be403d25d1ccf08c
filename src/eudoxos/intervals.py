"""Closed rational-endpoint intervals with directed-rounded square roots.

All endpoints are exact ``fractions.Fraction`` values; every operation is
outward-safe (the result interval contains the exact image of the operand
intervals), so chains of operations stay certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import DomainError

Rat = Union[Fraction, int]


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

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


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


def sqrt_down(value: Rat, den: int) -> Fraction:
    """Largest multiple of 1/den whose square does not exceed ``value``."""
    value = Fraction(value)
    if value < 0:
        raise DomainError(value)
    exact = exact_sqrt(value)
    if exact is not None:
        return exact
    # m/den <= sqrt(p/q)  <=>  m^2 * q <= p * den^2
    m = isqrt(value.numerator * den * den // value.denominator)
    return Fraction(m, den)


def sqrt_up(value: Rat, den: int) -> Fraction:
    """Smallest multiple of 1/den whose square is at least ``value``."""
    value = Fraction(value)
    if value < 0:
        raise DomainError(value)
    exact = exact_sqrt(value)
    if exact is not None:
        return exact
    target = -((-value.numerator * den * den) // value.denominator)  # ceil
    m = isqrt(target)
    if m * m < target:
        m += 1
    return Fraction(m, den)


def sqrt_interval(iv: Interval, den: int) -> Interval:
    """Outward-rounded square root of a non-negative interval."""
    if iv.lo < 0:
        raise DomainError(iv.lo)
    return Interval(sqrt_down(iv.lo, den), sqrt_up(iv.hi, den))
