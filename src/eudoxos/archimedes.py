"""Polygon-doubling bounds for the circle.

One recurrence, the half-angle step with outward-rounded rational square
roots, halves an angle t in (0, pi) from an interval for cos t: the
``HalvingChain``.  Started at cos(pi/3) = 1/2, its level n+1 is pi/(6*2^n),
the half side angle of the regular 6*2^n-gon; from it come the inscribed and
circumscribed perimeter and area bounds and the nested pi enclosure.  Started
from the cosine of a point-triple angle, it gives the arc and sector bounds.
Both are rebuilt under one rule (``capped_chain``), and depth d of pi is
certified to about 2d + 1 bits, with no floor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .enclosures import RealEnclosure
from .errors import DomainError
from .intervals import Interval, Rat, sqrt_interval

_PREC_BASE = 64
_PREC_STEP = 8

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


def capped_chain(
    held: Optional[tuple[int, HalvingChain]], depth: int, cos0: Callable[[int], Interval]
) -> tuple[int, HalvingChain]:
    """The (cap, chain) pair that serves ``depth``: ``held`` if its cap reaches it.

    Otherwise a new chain of the angle whose cosine ``cos0(den)`` encloses,
    rounded at den = precision_denominator(cap).  The first build (``held``
    is None) takes cap = depth, so a single query rounds as a chain built for
    that depth alone; a deeper query rebuilds with cap = max(depth, 2*cap + 1),
    so a walk to depth d rebuilds O(log d) times.  Directed rounding on the
    finer grid, a power-of-two multiple of the coarser, lands inside the
    coarser results, so shallower depths read from it are no wider (bar an
    input that is an exact rational square, whose root is returned unrounded
    on either grid).
    """
    if held is not None and depth <= held[0]:
        return held
    cap = depth if held is None else max(depth, 2 * held[0] + 1)
    den = precision_denominator(cap)
    return cap, HalvingChain(cos0(den), den)


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
_pi_lock = threading.Lock()  # one filler at a time: appends must stay in depth order
# (cap, chain) of cos(pi/3) = 1/2 under capped_chain, rebound whole
_pi_chain: Optional[tuple[int, HalvingChain]] = None
_HALF = Fraction(1, 2)


def pi_enclosure(depth: int) -> PiEnclosure:
    """Certified enclosure of pi from the 6*2^depth-gon.

    Lower and upper bounds are the inscribed and circumscribed perimeters of
    the circle of diameter 1 (``inscribed_outer_bounds(1/2, depth)``), each
    intersected with the previous depth's, so enclosures nest.  Depth 0 is
    the hexagon pair 3 < pi < 2*sqrt(3), the root rounded up.  Depths are
    filled in order, so depth n reads the pi chain at a cap below 2n + 1
    whatever depth is asked first.  Threads that miss at once fill in turn.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if len(_pi_cache) <= depth:
        with _pi_lock:
            while len(_pi_cache) <= depth:
                n = len(_pi_cache)
                lower, upper, _, _ = inscribed_outer_bounds(_HALF, n)
                if _pi_cache:
                    prev = _pi_cache[-1]
                    lower = max(lower, prev.lower)
                    upper = min(upper, prev.upper)
                _pi_cache.append(PiEnclosure(6 * (1 << n), lower, upper))
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
    radius r, upper values to the circumscribed one, from sin and cos of
    pi/(6*2^n), level n+1 of the pi chain; at n = 0 the hexagons give
    perimeters 6r and 4*sqrt(3)*r.  All square roots are rounded outward, so
    the circle's perimeter and content lie within the respective bounds at
    every n.
    """
    global _pi_chain
    r = Fraction(r)
    if r <= 0:
        raise DomainError("radius must be positive")
    if n < 0:
        raise DomainError("doubling depth must be non-negative")
    sides = 6 * (1 << n)
    _, chain = _pi_chain = capped_chain(_pi_chain, n, lambda den: Interval.point(_HALF))
    perimeter = arc_length_bounds(chain, n).scale(6 * r)  # six arcs of pi/3
    s, c = chain.sincos(n + 1)
    area_lo = sides * r * r * s.lo * c.lo
    area_hi = sides * r * r * (s.hi / c.lo)
    return perimeter.lo, perimeter.hi, area_lo, area_hi


def arc_length_bounds(chain: HalvingChain, depth: int) -> Interval:
    """Bounds for the unit-circle arc t, where ``chain`` halves t in (0, pi).

    Lower: inscribed chord sum with 2^depth equal chords.  Upper: the
    circumscribed tangent sum.  Both converge to the arc length t.
    """
    s, c = chain.sincos(depth + 1)
    chords = 1 << (depth + 1)
    return Interval(chords * s.lo, chords * (s.hi / c.lo))


def sector_area_bounds(chain: HalvingChain, depth: int) -> Interval:
    """Bounds for the unit-circle sector content t/2, where ``chain`` halves t in (0, pi).

    Lower: inscribed fan of 2^depth isoceles triangles.  Upper: circumscribed
    fan of tangent kites.
    """
    s_j, _ = chain.sincos(depth)
    s_j1, c_j1 = chain.sincos(depth + 1)
    return Interval(Fraction(1 << depth, 2) * s_j.lo, (1 << depth) * (s_j1.hi / c_j1.lo))
