"""Polygon-doubling bounds for the circle.

Maintains certified interval tables for sin and cos of pi/(6*2^n) via the
half-angle recurrence with outward-rounded rational square roots.  From these
come the inscribed/circumscribed perimeter and area bounds of the 6*2^n-gon
and the nested pi enclosure.  The same halved-cosine recurrence, started from
an arbitrary exact cosine interval, serves the arc and sector bounds of
point-triple angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enclosures import RealEnclosure
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


def halved_sincos(cos0: Interval, halvings: int, den: int) -> tuple[Interval, Interval]:
    """(sin, cos) of t/2^halvings given an interval for cos(t), t in (0, pi)."""
    if halvings == 0:
        csq = _clamp01(cos0 * cos0)
        s = sqrt_interval(Interval(1 - csq.hi, 1 - csq.lo), den)
        return s, cos0
    prev = cos0
    for _ in range(halvings - 1):
        prev = half_cos(prev, den)
    return half_sin(prev, den), half_cos(prev, den)


# sin/cos of pi/(6*2^n), index n; den grows with n so rounding slop shrinks
# strictly faster than the true bounds improve.
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
        raise ValueError("depth must be non-negative")
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
        raise ValueError("radius must be positive")
    if n < 0:
        raise ValueError("doubling depth must be non-negative")
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


def arc_length_bounds(cos0: Interval, r: Rat, depth: int) -> Interval:
    """Bounds for r*t where cos(t) lies in cos0, t in (0, pi).

    Lower: inscribed chord sum with 2^depth equal chords.  Upper: the
    circumscribed tangent sum.  Both converge to the arc length r*t.
    """
    r = Fraction(r)
    den = precision_denominator(depth)
    s, c = halved_sincos(cos0, depth + 1, den)
    chords = (1 << (depth + 1)) * r
    return Interval(chords * s.lo, chords * (s.hi / c.lo))


def sector_area_bounds(cos0: Interval, r: Rat, depth: int) -> Interval:
    """Bounds for the sector content (t/2)*r^2, cos(t) in cos0, t in (0, pi).

    Lower: inscribed fan of 2^depth isoceles triangles.  Upper: circumscribed
    fan of tangent kites.
    """
    r = Fraction(r)
    den = precision_denominator(depth)
    s_j, _ = halved_sincos(cos0, depth, den)
    s_j1, c_j1 = halved_sincos(cos0, depth + 1, den)
    lo = Fraction(1 << depth, 2) * r * r * s_j.lo
    hi = (1 << depth) * r * r * (s_j1.hi / c_j1.lo)
    return Interval(lo, hi)
