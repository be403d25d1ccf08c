"""Polygon-doubling bounds for the circle.

Maintains certified interval tables for sin and cos of pi/(6*2^n) via the
half-angle recurrence with outward-rounded rational square roots.  From these
come the inscribed/circumscribed perimeter and area bounds of the 6*2^n-gon
and the nested pi enclosure.  The same halved-cosine recurrence, started from
an arbitrary cosine interval, is the ``HalvingChain`` behind the arc and
sector bounds of point-triple angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enclosures import RealEnclosure
from .errors import DomainError
from .intervals import Interval, Rat, sqrt_interval

_PREC_BASE = 64
_PREC_STEP = 8

_ONE = Interval.point(1)


def precision_denominator(level: int) -> int:
    """Denominator cap used for directed rounding at a refinement level."""
    return 1 << (_PREC_BASE + _PREC_STEP * level)


def _clamp01(iv: Interval) -> Interval:
    return Interval(max(Fraction(0), iv.lo), min(Fraction(1), iv.hi))


def half_cos(c: Interval, den: int) -> Interval:
    """cos(t/2) from cos(t), valid for t in (0, pi)."""
    return sqrt_interval(_clamp01((c.shift(1)).scale(Fraction(1, 2))), den)


def half_sin(c: Interval, den: int) -> Interval:
    """sin(t/2) from cos(t), valid for t in (0, pi)."""
    return sqrt_interval(_clamp01((-c).shift(1).scale(Fraction(1, 2))), den)


class HalvingChain:
    """sin and cos of t/2^k for k = 0, 1, ... of one angle t in (0, pi), at one denominator.

    Cosines are computed level by level on first request and kept as a tuple.
    The sine cache is per level: a sine is computed only for a level asked
    for, and kept in a dict keyed by level, so a point query computes only the
    sines it reads and a walk computes each level's sine once.  Both caches
    are replaced, never appended to or mutated in place, so every reader sees
    a consistent prefix of cosines and a consistent set of sines.
    """

    __slots__ = ("den", "_cos", "_sin")

    def __init__(self, cos0: Interval, den: int):
        self.den = den
        self._cos = (cos0,)
        self._sin: dict[int, Interval] = {}

    def sincos(self, k: int) -> tuple[Interval, Interval]:
        """(sin, cos) of t/2^k."""
        if k < 0:
            raise DomainError("halving level must be non-negative")
        levels = self._cos
        if k >= len(levels):
            grown = list(levels)
            while len(grown) <= k:
                grown.append(half_cos(grown[-1], self.den))
            levels = self._cos = tuple(grown)
        sines = self._sin
        s = sines.get(k)
        if s is None:
            if k == 0:
                csq = _clamp01(levels[0] * levels[0])
                s = sqrt_interval(Interval(1 - csq.hi, 1 - csq.lo), self.den)
            else:
                s = half_sin(levels[k - 1], self.den)
            self._sin = {**sines, k: s}
        return s, levels[k]


# sin/cos of pi/(6*2^n), index n, level n rounded at precision_denominator(n).
# The finer rounding of deep levels does not undo the slop they inherit from
# level 0: s = sqrt((1-c)/2) amplifies the width of c by about 1/(4s), so
# sides*width(s) stays near the level-0 slop and pi_enclosure stalls near 2^-60.
_table: list[tuple[Interval, Interval]] = []


def _sincos(level: int) -> tuple[Interval, Interval]:
    while len(_table) <= level:
        n = len(_table)
        den = precision_denominator(n)
        if n == 0:
            s = Interval.point(Fraction(1, 2))
            c = sqrt_interval(Interval.point(Fraction(3, 4)), den)
        else:
            _, c_prev = _table[n - 1]
            s = half_sin(c_prev, den)
            c = half_cos(c_prev, den)
        _table.append((s, c))
    return _table[level]


@dataclass(frozen=True)
class PiEnclosure:
    sides: int
    lower: Fraction
    upper: Fraction

    @property
    def interval(self) -> Interval:
        return Interval(self.lower, self.upper)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


_pi_cache: list[PiEnclosure] = []


def pi_enclosure(depth: int) -> PiEnclosure:
    """Certified enclosure of pi from the 6*2^depth-gon.

    Lower bound: inscribed perimeter over the diameter.  Upper bound:
    circumscribed perimeter over the diameter, capped at depth 0 by the
    circumscribed square (the all-rational start).  Enclosures nest.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    while len(_pi_cache) <= depth:
        n = len(_pi_cache)
        sides = 6 * (1 << n)
        s, c = _sincos(n)
        lower = sides * s.lo
        upper = sides * (s.hi / c.lo)
        if n == 0:
            upper = min(upper, Fraction(4))  # circumscribed square
        if _pi_cache:
            prev = _pi_cache[-1]
            lower = max(lower, prev.lower)
            upper = min(upper, prev.upper)
        _pi_cache.append(PiEnclosure(sides, lower, upper))
    return _pi_cache[depth]


def pi_interval(depth: int) -> Interval:
    return pi_enclosure(depth).interval


def pi_real() -> RealEnclosure:
    return RealEnclosure(pi_interval, name="pi")


def inscribed_outer_bounds(
    r: Rat, n: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(perimeter_lo, perimeter_hi, area_lo, area_hi) of the 6*2^n-gons.

    Lower values belong to the inscribed regular 6*2^n-gon of the circle of
    radius r, upper values to the circumscribed one (circumscribed square at
    n = 0).  All square roots are rounded outward, so the circle's perimeter
    and content lie within the respective bounds at every n.
    """
    r = Fraction(r)
    if r <= 0:
        raise DomainError("radius must be positive")
    if n < 0:
        raise DomainError("doubling depth must be non-negative")
    sides = 6 * (1 << n)
    s, c = _sincos(n)
    tan_hi = s.hi / c.lo
    perimeter_lo = 2 * sides * r * s.lo
    perimeter_hi = 2 * sides * r * tan_hi
    area_lo = sides * r * r * s.lo * c.lo
    area_hi = sides * r * r * tan_hi
    if n == 0:
        perimeter_hi = min(perimeter_hi, 8 * r)
        area_hi = min(area_hi, 4 * r * r)
    return perimeter_lo, perimeter_hi, area_lo, area_hi


def arc_length_bounds(chain: HalvingChain, r: Rat, depth: int) -> Interval:
    """Bounds for r*t, where ``chain`` halves t in (0, pi).

    Lower: inscribed chord sum with 2^depth equal chords.  Upper: the
    circumscribed tangent sum.  Both converge to the arc length r*t.
    """
    r = Fraction(r)
    s, c = chain.sincos(depth + 1)
    chords = (1 << (depth + 1)) * r
    return Interval(chords * s.lo, chords * (s.hi / c.lo))


def sector_area_bounds(chain: HalvingChain, r: Rat, depth: int) -> Interval:
    """Bounds for the sector content (t/2)*r^2, where ``chain`` halves t in (0, pi).

    Lower: inscribed fan of 2^depth isoceles triangles.  Upper: circumscribed
    fan of tangent kites.
    """
    r = Fraction(r)
    s_j, _ = chain.sincos(depth)
    s_j1, c_j1 = chain.sincos(depth + 1)
    lo = Fraction(1 << depth, 2) * r * r * s_j.lo
    hi = (1 << depth) * r * r * (s_j1.hi / c_j1.lo)
    return Interval(lo, hi)
