"""Refinable nested-interval representations of computable reals.

A ``RealEnclosure`` owns a refinement procedure mapping a depth index to a
rational interval.  Cached depths are forced to nest in any query order: a
new depth is intersected with the nearest cached shallower interval and
widened to the hull of the nearest cached deeper one; for certified
generators the intersection is never empty.  An optional ``exact`` field
marks values known to be a specific rational, which lets comparisons answer
Equal instead of Indistinguishable.

Values are immutable apart from the depth cache.  What a depth returns may
depend on the depths queried before it (a refinement may keep state, such as
a halving chain, and nesting trims each result), but every interval returned
encloses the value, in any order and from any thread.  Nesting holds for
queries made one at a time; when two threads miss the same enclosure at once,
each writes its own certified interval, and the one left cached need not nest
with a depth the other thread added meanwhile.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError
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
            raise DomainError("depth must be non-negative")
        cache = self._cache
        if depth in cache:
            return cache[depth]
        iv = self._refine(depth)
        # The cache is a nested chain: fit the new depth between its nearest
        # cached neighbours (inside the shallower one, around the deeper one).
        depths = sorted(cache)
        i = bisect_left(depths, depth)
        if i:
            iv = iv.intersection(cache[depths[i - 1]])
        if i < len(depths):
            iv = iv.hull(cache[depths[i]])
        cache[depth] = iv
        return iv

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


def _join(a: str, op: str, b: str) -> str:
    if a and b:
        return f"({a}{op}{b})"
    return ""
