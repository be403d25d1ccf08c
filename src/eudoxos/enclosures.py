"""Refinable nested-interval representations of computable reals.

A ``RealEnclosure`` owns a refinement procedure mapping a depth index to a
rational interval.  Successive depths are forced to nest by intersecting with
the previously computed interval; for certified generators the intersection is
never empty.  An optional ``exact`` field marks values known to be a specific
rational, which lets comparisons answer Equal instead of Indistinguishable.

Values are immutable apart from the depth cache, whose writes are idempotent
(the same interval is recomputed deterministically), so sharing across
threads is harmless.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Optional, Union

from .intervals import Interval, Rat


class RealEnclosure:
    def __init__(
        self,
        refine: Callable[[int], Interval],
        exact: Optional[Fraction] = None,
        name: str = "",
    ):
        self._refine = refine
        self._cache: dict[int, Interval] = {}
        self.exact = Fraction(exact) if exact is not None else None
        self.name = name

    @staticmethod
    def from_fraction(value: Rat, name: str = "") -> "RealEnclosure":
        value = Fraction(value)
        point = Interval.point(value)
        return RealEnclosure(lambda depth: point, exact=value, name=name)

    def at(self, depth: int) -> Interval:
        if depth < 0:
            raise ValueError("depth must be non-negative")
        if depth in self._cache:
            return self._cache[depth]
        iv = self._refine(depth)
        # Enforce nesting against the deepest shallower result already seen.
        for d in sorted(self._cache):
            if d < depth:
                iv = iv.intersection(self._cache[d])
        self._cache[depth] = iv
        return iv

    def width_at(self, depth: int) -> Fraction:
        return self.at(depth).width

    def _binary(self, other: "RealEnclosure", op, symbol: str) -> "RealEnclosure":
        exact = None
        if self.exact is not None and other.exact is not None:
            try:
                exact = op(self.exact, other.exact)
            except ZeroDivisionError:
                pass
        return RealEnclosure(
            lambda d: op(self.at(d), other.at(d)), exact=exact,
            name=_join(self.name, symbol, other.name),
        )

    def __add__(self, other: "RealEnclosure") -> "RealEnclosure":
        return self._binary(other, operator.add, "+")

    def __sub__(self, other: "RealEnclosure") -> "RealEnclosure":
        return self._binary(other, operator.sub, "-")

    def __mul__(self, other: "RealEnclosure") -> "RealEnclosure":
        return self._binary(other, operator.mul, "*")

    def __truediv__(self, other: "RealEnclosure") -> "RealEnclosure":
        return self._binary(other, operator.truediv, "/")

    def scale(self, factor: Rat) -> "RealEnclosure":
        factor = Fraction(factor)
        exact = self.exact * factor if self.exact is not None else None
        return RealEnclosure(lambda d: self.at(d).scale(factor), exact=exact, name=self.name)

    def shift(self, offset: Rat) -> "RealEnclosure":
        offset = Fraction(offset)
        exact = self.exact + offset if self.exact is not None else None
        return RealEnclosure(lambda d: self.at(d).shift(offset), exact=exact, name=self.name)

    def __neg__(self) -> "RealEnclosure":
        exact = -self.exact if self.exact is not None else None
        return RealEnclosure(lambda d: -self.at(d), exact=exact, name=self.name)

    def __repr__(self) -> str:
        tag = f" {self.name}" if self.name else ""
        return f"<RealEnclosure{tag} at0={self.at(0)}>"


EnclosureLike = Union[RealEnclosure, Fraction, int]


def as_enclosure(value: EnclosureLike) -> RealEnclosure:
    if isinstance(value, RealEnclosure):
        return value
    return RealEnclosure.from_fraction(value)


def _join(a: str, op: str, b: str) -> str:
    if a and b:
        return f"({a}{op}{b})"
    return ""
