"""Shared oracles and helpers, independent of the library's own arithmetic."""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt
from typing import Callable, Optional, Sequence

import pytest
from hypothesis import settings

import eudoxos as E
from eudoxos import archimedes, kinds, positional, ratios
from eudoxos.angles import (
    AngleValue,
    Point,
    _asin_at,
    _cos_interval_of_dir,
    _dir_mul,
    _dir_reduce,
    _point,
    _value_compare,
    is_acute,
)
from eudoxos.archimedes import (
    PiEnclosure,
    half_cos,
    half_sin,
    pi_interval,
    precision_denominator,
)
from eudoxos.errors import (
    CollinearError,
    DegeneratePolygonError,
    DomainError,
    DuplicatePointError,
    IndistinguishableError,
    NotAcuteError,
    NotGreaterError,
    NoWitnessError,
    SelfIntersectionError,
)
from eudoxos.intervals import Interval, Rat, exact_sqrt, sqrt_interval
from eudoxos.kinds import DEFAULT_RESOLUTION, Comparison, KindId, Resolution, compare, kmul
from eudoxos.polygons import as_magnitude, point, segments_intersect
from eudoxos.ratios import CutSide, Ratio, exact_value, value_enclosure
from eudoxos.regions import BranchScan, Xii2Record, _RegionClassValue

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


def bisect_root(square: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Bisection oracle for sqrt(square): rational bracket of width 10^-digits.

    Uses only exact comparisons of squares, nothing from the library.
    """
    square = Fraction(square)
    lo, hi = Fraction(0), max(Fraction(1), square)
    eps = Fraction(1, 10**digits)
    while hi - lo > eps:
        mid = (lo + hi) / 2
        if mid * mid <= square:
            lo = mid
        else:
            hi = mid
    return lo, hi


def assert_contains_value(iv, target_float: float, slack: float = 1e-9):
    """The enclosure must contain the oracle value up to float slack."""
    assert float(iv.lo) - slack <= target_float <= float(iv.hi) + slack, (
        f"{target_float} outside [{float(iv.lo)}, {float(iv.hi)}]"
    )


def assert_contains_fraction(iv, target: Fraction):
    assert iv.lo <= target <= iv.hi, f"{target} outside {iv}"


def halved_sincos(cos0: Interval, halvings: int, den: int) -> tuple[Interval, Interval]:
    """(sin, cos) of t/2^halvings from an interval for cos(t), t in (0, pi).

    Recomputes every halving from cos0 on each call.
    """
    if halvings == 0:
        csq = cos0 * cos0
        csq = Interval(max(Fraction(0), csq.lo), min(Fraction(1), csq.hi))
        return sqrt_interval(Interval(1 - csq.hi, 1 - csq.lo), den), cos0
    prev = cos0
    for _ in range(halvings - 1):
        prev = half_cos(prev, den)
    return half_sin(prev, den), half_cos(prev, den)


def per_depth_turn(pi_multiple, direction, sector: bool, r, depth: int) -> Interval:
    """Turn-enclosure oracle: pi_multiple*pi plus the arc (or sector) bounds of
    a direction on radius r, from fresh halvings at precision_denominator(depth)."""
    r = Fraction(r)
    den = precision_denominator(depth)
    cos0 = _cos_interval_of_dir(direction, den)
    if sector:
        s_j, _ = halved_sincos(cos0, depth, den)
        s_j1, c_j1 = halved_sincos(cos0, depth + 1, den)
        bounds = Interval(
            Fraction(1 << depth, 2) * r * r * s_j.lo,
            (1 << depth) * r * r * (s_j1.hi / c_j1.lo),
        )
    else:
        s, c = halved_sincos(cos0, depth + 1, den)
        chords = (1 << (depth + 1)) * r
        bounds = Interval(chords * s.lo, chords * (s.hi / c.lo))
    return pi_interval(depth).scale(pi_multiple) + bounds


def riemann_asin(x, d: int) -> Interval:
    """Riemann-sum oracle for the integral of 1/sqrt(1-t^2) from 0 to x.

    x is a rational or an ``E.SqrtRational``.  For x^2 <= 1/2, left and right
    sums over 2^d cells of the increasing integrand, with outward-rounded root
    reciprocals at denominator 2^(48+2d); above, the complement identity
    asin(x) = pi/2 - asin(sqrt(1-x^2)).  Costs 2^(d+1) integer square roots.
    """
    if isinstance(x, E.SqrtRational):
        sq = x.square
    else:
        x = Fraction(x)
        sq = x * x
    if sq > Fraction(1, 2):
        comp = 1 - sq
        root = exact_sqrt(comp)
        inner = riemann_asin(root if root is not None else E.SqrtRational(comp), d)
        return pi_interval(d).scale(Fraction(1, 2)) - inner
    p, q = sq.numerator, sq.denominator
    cells = 1 << d
    den = 1 << (48 + 2 * d)
    nn_q = cells * cells * q
    b_scaled = nn_q * den * den
    lo_sum = hi_sum = 0
    for i in range(cells + 1):
        a_i = nn_q - i * i * p  # positive: t_i <= x <= 1/sqrt(2)
        if i < cells:
            lo_sum += math.isqrt(b_scaled // a_i)
        if i > 0:
            t = -(-b_scaled // a_i)
            r = math.isqrt(t)
            hi_sum += r + (r * r < t)
    x_iv = x.bounds(den) if isinstance(x, E.SqrtRational) else Interval.point(x)
    return Interval(
        Fraction(lo_sum, den) * x_iv.lo / cells, Fraction(hi_sum, den) * x_iv.hi / cells
    )


# -- the directed square roots with the exact-root test first -----------------------
# Reference for the two ends of ``intervals.sqrt_interval`` of a point: the
# one-ended roots kept verbatim as they were before one integer step took both
# ends, when the rational exact-root test ran before every rounding.

def reference_exact_sqrt(value: Rat) -> Fraction | None:
    """Return the exact rational square root of ``value`` if one exists."""
    value = Fraction(value)
    if value < 0:
        raise DomainError(value)
    p, q = value.numerator, value.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def reference_sqrt_down(value: Rat, den: int) -> Fraction:
    """Largest multiple of 1/den whose square does not exceed ``value``."""
    value = Fraction(value)
    if value < 0:
        raise DomainError(value)
    exact = reference_exact_sqrt(value)
    if exact is not None:
        return exact
    # m/den <= sqrt(p/q)  <=>  m^2 * q <= p * den^2
    m = isqrt(value.numerator * den * den // value.denominator)
    return Fraction(m, den)


def reference_sqrt_up(value: Rat, den: int) -> Fraction:
    """Smallest multiple of 1/den whose square is at least ``value``."""
    value = Fraction(value)
    if value < 0:
        raise DomainError(value)
    exact = reference_exact_sqrt(value)
    if exact is not None:
        return exact
    target = -((-value.numerator * den * den) // value.denominator)  # ceil
    m = isqrt(target)
    if m * m < target:
        m += 1
    return Fraction(m, den)


# -- the geometric sine by the perpendicular foot -----------------------------------
# Reference for ``angles.sin_geometric``, kept verbatim as it was before the
# squared sine was read off the angle's direction: both must give the same
# exact value and the same interval at every depth.

def foot_sin_geometric(a: E.Angle) -> E.RealEnclosure:
    """Opposite-over-hypotenuse enclosure via the exact perpendicular foot."""
    if not is_acute(a):
        raise NotAcuteError("geometric sine requires an acute angle")
    b = a.vertex
    u, w = a.arm1, a.arm2
    p = (b[0] + u[0], b[1] + u[1])  # a point on the first arm
    wd = Fraction(w[0] * w[0] + w[1] * w[1])
    t = Fraction(u[0] * w[0] + u[1] * w[1]) / wd
    foot = (b[0] + t * w[0], b[1] + t * w[1])
    opp_sq = (p[0] - foot[0]) ** 2 + (p[1] - foot[1]) ** 2
    hyp_sq = (p[0] - b[0]) ** 2 + (p[1] - b[1]) ** 2
    ratio_sq = opp_sq / hyp_sq
    root = exact_sqrt(ratio_sq)
    if root is not None:
        return E.RealEnclosure.from_fraction(root, name="Sin")
    pointed = Interval.point(ratio_sq)
    return E.RealEnclosure(
        lambda d: sqrt_interval(pointed, precision_denominator(d)), name="Sin"
    )


# -- the two mirrored sine bisections ----------------------------------------------
#
# Reference for ``angles._sin_eval``, kept verbatim as it was before one
# bisection served both bounds and the turn-count settle loop and the
# crest/trough pass were deleted: every interval must equal this one.

def _sin_lower(a: Fraction, dep: int) -> Fraction:
    """Certified s <= sin(a) for a in (0, pi/2 + slack); tight to ~2^-dep."""
    if a <= 0:
        return max(a, Fraction(-1))  # sin(a) >= a for a <= 0
    lo, hi = Fraction(0), Fraction(1)
    for it in range(dep + 6):
        if hi - lo <= Fraction(1, 1 << dep):
            break
        mid = (lo + hi) / 2
        probe = min(dep + 2, it + 4)
        if _asin_at(mid).at(probe).hi <= a:
            lo = mid
        else:
            hi = mid
    return lo


def _sin_upper(b: Fraction, dep: int) -> Fraction:
    """Certified s >= sin(b) for b below pi; capped at 1."""
    if b <= 0:
        return Fraction(0)  # sin(b) <= 0 for b <= 0
    lo, hi = Fraction(0), Fraction(1)
    for it in range(dep + 6):
        if hi - lo <= Fraction(1, 1 << dep):
            break
        mid = (lo + hi) / 2
        probe = min(dep + 2, it + 4)
        if _asin_at(mid).at(probe).lo >= b:
            hi = mid
        else:
            lo = mid
    return hi


def _sin_core(iv: Interval, dep: int) -> Interval:
    """sin over an interval inside [0, pi/2] (with tolerance for wobble)."""
    return Interval(
        max(Fraction(-1), _sin_lower(iv.lo, dep)),
        min(Fraction(1), _sin_upper(iv.hi, dep)),
    )


def _sin_point(y: Interval, dep: int) -> Interval:
    """sin over a narrow interval already reduced into [0 - eps, 2pi + eps]."""
    pi_iv = pi_interval(dep + 2)
    half = pi_iv.scale(Fraction(1, 2))
    one_and_half = pi_iv.scale(Fraction(3, 2))
    two = pi_iv.scale(2)
    candidates: list[Interval] = []
    # Quadrant formulas; evaluate every quadrant the interval may touch.
    if y.lo <= half.hi:  # [0, pi/2]
        candidates.append(_sin_core(Interval(y.lo, min(y.hi, half.hi)), dep))
    if y.hi >= half.lo and y.lo <= pi_iv.hi:  # [pi/2, pi]
        clip = Interval(max(y.lo, half.lo), min(y.hi, pi_iv.hi))
        candidates.append(_sin_core(pi_iv - clip, dep))
    if y.hi >= pi_iv.lo and y.lo <= one_and_half.hi:  # [pi, 3pi/2]
        clip = Interval(max(y.lo, pi_iv.lo), min(y.hi, one_and_half.hi))
        candidates.append(-_sin_core(clip - pi_iv, dep))
    if y.hi >= one_and_half.lo:  # [3pi/2, 2pi+]
        clip = Interval(max(y.lo, one_and_half.lo), y.hi)
        candidates.append(-_sin_core(two - clip, dep))
    out = candidates[0]
    for c in candidates[1:]:
        out = out.hull(c)
    return out


def _sin_eval(iv: Interval, dep: int) -> Interval:
    if iv.hi <= 0:
        return -_sin_eval(-iv, dep) if iv.lo < 0 else Interval.point(0)
    if iv.lo < 0:
        neg = -_sin_eval(Interval(0, -iv.lo), dep)
        pos = _sin_eval(Interval(0, iv.hi), dep)
        return neg.hull(pos)
    pi_iv = pi_interval(dep + 2)
    two_pi = pi_iv.scale(2)
    if iv.width >= two_pi.lo:
        return Interval(Fraction(-1), Fraction(1))
    mid = (iv.lo + iv.hi) / 2
    two_pi_mid = (two_pi.lo + two_pi.hi) / 2
    k = max(0, int(mid / two_pi_mid))
    y = iv - two_pi.scale(k)
    for _ in range(4):  # settle the turn count against rounding wobble
        if y.hi < 0 and k > 0:
            k -= 1
        elif y.lo > two_pi.hi:
            k += 1
        else:
            break
        y = iv - two_pi.scale(k)
    if y.lo < -pi_iv.lo / 2 or y.hi > two_pi.hi + pi_iv.hi / 2:
        return Interval(Fraction(-1), Fraction(1))
    out = _sin_point(y, dep)
    # Extrema that the reduced interval may contain dominate the endpoints.
    for j in (0, 1):
        crest = pi_iv.scale(Fraction(1, 2)) + two_pi.scale(j)
        if y.intersects(crest):
            out = Interval(out.lo, Fraction(1))
        trough = pi_iv.scale(Fraction(3, 2)) + two_pi.scale(j)
        if y.intersects(trough):
            out = Interval(Fraction(-1), out.hi)
    return out.intersection(Interval(Fraction(-1), Fraction(1)))


bisection_sin_eval = _sin_eval


# -- the per-level pi table --------------------------------------------------------
#
# Reference for ``archimedes.pi_enclosure``, kept as it was before pi became
# one halving chain: every pi interval of the chain lies inside the table's.

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


_pi_cache: list[PiEnclosure] = []


def table_pi_enclosure(depth: int) -> PiEnclosure:
    """Pi from the per-level table, nested by intersection with the previous depth."""
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


def cold_pi(monkeypatch) -> None:
    """Empty the library's pi cache and chain until the test ends."""
    monkeypatch.setattr(archimedes, "_pi_cache", [])
    monkeypatch.setattr(archimedes, "_pi_chain", None)


# -- the walking cut oracle and the linear witness scan --------------------------
#
# References for ``ratios._side_fn`` and ``ratios._witness_search``: every
# placement walks the value enclosure from depth 0 and compares Fractions,
# and the scan visits every pair (p, q) in the hull window by p+q, then p.
# ``linear_witness_scan`` swaps in the scan, ``walking_cut_oracle`` both.

def _side_of_fraction(f: Fraction, v: Fraction) -> CutSide:
    if f < v:
        return CutSide.BELOW
    if f > v:
        return CutSide.ABOVE
    return CutSide.BOUNDARY


def _side_fn(r: Ratio, res: Resolution, reached=None) -> Callable[[int, int], CutSide]:
    """Cheapest sound placement oracle for fractions against the ratio
    (``reached`` is ignored: every placement walks from depth 0)."""
    v = exact_value(r)
    if v is not None:
        return lambda m, n: _side_of_fraction(Fraction(m, n), v)

    def side_magnitudes(m: int, n: int) -> CutSide:
        c = compare(kmul(m, r.den), kmul(n, r.num), res)
        return {
            Comparison.LESS: CutSide.BELOW,
            Comparison.EQUAL: CutSide.BOUNDARY,
            Comparison.GREATER: CutSide.ABOVE,
            Comparison.INDISTINGUISHABLE: CutSide.UNKNOWN,
        }[c]

    if kinds.ops_for(r.num.kind).exact_compare:
        return side_magnitudes
    enc = value_enclosure(r)
    if enc is not None:
        def side(m: int, n: int) -> CutSide:
            f = Fraction(m, n)
            for depth in range(res.depth_cap + 1):
                iv = enc.at(depth)
                if f < iv.lo:
                    return CutSide.BELOW
                if f > iv.hi:
                    return CutSide.ABOVE
                if iv.width < res.eps:
                    return CutSide.UNKNOWN
            return CutSide.UNKNOWN
        return side
    return side_magnitudes


def _candidate_range(s: int, window: Optional[tuple[int, int, int, int]], bound: int) -> range:
    """m values with m+n=s whose fraction m/(s-m) may fall inside the window
    a/b..c/d, given as the integers (a, a+b, c, c+d)."""
    m_lo = max(1, s - bound)  # n <= bound
    m_hi = min(s - 1, bound)  # m <= bound
    if window is not None:
        a, ab, c, cd = window
        # m/(s-m) >= a/b  <=>  m >= a*s/(a+b);   m/(s-m) <= c/d  <=>  m <= c*s/(c+d)
        m_lo = max(m_lo, -(-a * s // ab))
        m_hi = min(m_hi, c * s // cd)
    return range(m_lo, m_hi + 1)


def _witness_scan(
    r1: Ratio,
    r2: Ratio,
    res: Resolution,
    window: Optional[Interval],
    bound: int,
    decisive: Callable[[CutSide, CutSide], bool],
    steer=None,
) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    """Scan fractions p/q (p, q <= bound, inside window) by p+q, then p.

    Returns the least pair whose two definite sides are ``decisive`` and the
    least pair before it on which a side stayed UNKNOWN (None when absent).
    ``steer`` is the descent's and is not read.
    """
    side1, side2 = ratios._side_fn(r1, res), ratios._side_fn(r2, res)
    cuts = None
    if window is not None:
        lo, hi = max(window.lo, 0), window.hi  # ratio values are positive
        cuts = (lo.numerator, lo.numerator + lo.denominator,
                hi.numerator, hi.numerator + hi.denominator)
    first_unknown: Optional[tuple[int, int]] = None
    for s in range(2, 2 * bound + 1):
        for p in _candidate_range(s, cuts, bound):
            q = s - p
            c1, c2 = side1(p, q), side2(p, q)
            if c1 is CutSide.UNKNOWN or c2 is CutSide.UNKNOWN:
                if first_unknown is None:
                    first_unknown = (p, q)
                continue
            if decisive(c1, c2):
                return (p, q), first_unknown
    return None, first_unknown


@contextmanager
def linear_witness_scan():
    """Search for witnesses with the linear scan above."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratios, "_witness_search", _witness_scan)
        yield


@contextmanager
def walking_cut_oracle():
    """Place cuts with the walking oracle and scan linearly for witnesses."""
    with pytest.MonkeyPatch.context() as mp, linear_witness_scan():
        mp.setattr(ratios, "_side_fn", _side_fn)
        mp.setattr(positional, "_side_fn", _side_fn)
        yield


# -- the capped Archimedean searches ----------------------------------------------
# References for ``kinds.archimedean_witness`` and the integer part of
# ``positional.measure_positional``, kept verbatim as they were before one
# uncapped gallop served both: the witness bisected over [1, bound], and the
# integer part doubled at most 256 times before it gave up.

def bisection_witness(
    x: E.Magnitude, y: E.Magnitude, bound: int, res: Resolution = E.DEFAULT_RESOLUTION
) -> Optional[int]:
    """Least n <= bound with n*x certified greater than y, if any.

    Uses the monotonicity of n |-> n*x: binary search over certified
    comparisons.  Absence is a value (None), not an error.
    """
    kinds._require_same_kind(x, y)
    if bound < 1:
        return None

    def exceeds(n: int) -> bool:
        return compare(kmul(n, x), y, res) is Comparison.GREATER

    if not exceeds(bound):
        return None
    lo, hi = 1, bound  # invariant: exceeds(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        if exceeds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def doubling_int_part(
    b: E.Magnitude, u: E.Magnitude, res: Resolution = E.DEFAULT_RESOLUTION
) -> tuple[int, bool]:
    """The integer part n0 of b:u, and whether b is exactly n0*u, placed
    through ``positional._side_fn`` as ``measure_positional`` places them."""
    side = positional._side_fn(Ratio(b, u), res)

    def place(m: int, n: int) -> CutSide:
        g = math.gcd(m, n)
        s = side(m // g, n // g)
        if s is CutSide.UNKNOWN:
            raise E.IndistinguishableError(
                "digit undetermined at this resolution; measure with a finer one"
            )
        return s

    lo, hi, exact = 0, 1, False
    for _ in range(256):
        s = place(hi, 1)
        if s is CutSide.ABOVE:
            break
        lo, hi, exact = hi, 2 * hi, s is CutSide.BOUNDARY
    else:
        raise E.NotArchimedeanError("the unit never exceeds the measured magnitude")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = place(mid, 1)
        if s is CutSide.ABOVE:
            hi = mid
        else:
            lo, exact = mid, s is CutSide.BOUNDARY
    return lo, exact


# -- XII.2 reference -------------------------------------------------------------
# The pair-by-pair branch scan that ``regions.xii2_verify`` replaced with
# per-n1 thresholds, kept verbatim as the reference of the differential tests.


def quadratic_xii2_verify(r1, r2, depth: int = 10, search_bound: int = 100) -> Xii2Record:
    """Verify Proposition XII.2 computationally for two circles.

    Certifies that the enclosure of the content ratio c1:c2 contains the
    exact squares-on-diameters ratio s1:s2 at every refinement up to depth,
    and scans the four contradiction branches for integer pairs (n1, n2)
    with n1+n2 <= search_bound: a pair is a witness only when the exact
    square comparison holds and the content enclosures positively assert the
    strict circle inequality.  Similar inscribed polygons carry the exact
    ratio s1:s2 at every depth, which refutes equality branches exactly.
    """
    r1, r2 = Fraction(r1), Fraction(r2)
    if r1 <= 0 or r2 <= 0:
        raise ValueError("radii must be positive")
    s1, s2 = 4 * r1 * r1, 4 * r2 * r2  # squares on the diameters
    target = s1 / s2
    contains = True
    for d in range(depth + 1):
        pi_iv = pi_interval(d)
        c1 = pi_iv.scale(r1 * r1)
        c2 = pi_iv.scale(r2 * r2)
        ratio_iv = c1 / c2
        if not ratio_iv.contains(target):
            contains = False
    final_pi = pi_interval(depth)
    c1 = final_pi.scale(r1 * r1)
    c2 = final_pi.scale(r2 * r2)
    ratio_iv = c1 / c2

    # Trichotomy of n1*c2 vs n2*c1: the exact route compares n1*r2^2 with
    # n2*r1^2 (similar inscribed/circumscribed polygons scale exactly, the
    # XII.1 step), the enclosure route requires interval separation.  Since
    # s = 4r^2, each branch's square condition is an exact circle sign, so
    # one pass classifies every pair.  A pair witnesses branch (i) or (ii)
    # only if the intervals positively assert its strict circle inequality,
    # which the exact sign denies; branches (iii) and (iv) need an equality
    # the exact sign denies, so the intervals refute them or leave them open.
    witnesses = ([], [])  # branches (i), (ii)
    refuted_exact = [0, 0]
    refuted_enc = [0, 0]  # branches (iii), (iv)
    undecided = ([], [])
    for n1 in range(1, search_bound):
        for n2 in range(1, search_bound - n1 + 1):
            diff = n1 * r2 * r2 - n2 * r1 * r1  # sign of n1*c2 - n2*c1
            sep_gt = n1 * c2.lo > n2 * c1.hi
            sep_lt = n1 * c2.hi < n2 * c1.lo
            if diff <= 0:
                if sep_gt:
                    witnesses[0].append((n1, n2))
                else:
                    refuted_exact[0] += 1
            if diff >= 0:
                if sep_lt:
                    witnesses[1].append((n1, n2))
                else:
                    refuted_exact[1] += 1
            if diff != 0:
                i = 0 if diff < 0 else 1
                if sep_gt or sep_lt:
                    refuted_enc[i] += 1
                else:
                    undecided[i].append((n1, n2))

    branches = (
        BranchScan("(i)  n1*c2 > n2*c1 and n1*s2 <= n2*s1",
                   tuple(witnesses[0]), refuted_exact[0], 0, ()),
        BranchScan("(ii) n2*c1 > n1*c2 and n2*s1 <= n1*s2",
                   tuple(witnesses[1]), refuted_exact[1], 0, ()),
        BranchScan("(iii) n1*c2 = n2*c1 and n1*s2 < n2*s1",
                   (), 0, refuted_enc[0], tuple(undecided[0])),
        BranchScan("(iv) n2*c1 = n1*c2 and n2*s1 < n1*s2",
                   (), 0, refuted_enc[1], tuple(undecided[1])),
    )
    return Xii2Record(
        r1=r1,
        r2=r2,
        squares_ratio=target,
        contains_at_every_depth=contains,
        ratio_interval=ratio_iv,
        branches=branches,
        exhaustion_steps=depth,
        search_bound=search_bound,
    )


# -- the Fraction polygon ----------------------------------------------------------
# Reference for ``polygons.Polygon``, kept verbatim as it was before its checks
# and its content moved onto one integer frame: the shoelace sum, the
# coincident-vertex test and the simplicity scan all in Fraction arithmetic.

def shoelace(vertices) -> Fraction:
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2


class ShoelacePolygon:
    """Simple polygon, normalized to positive orientation."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        verts = [point(x, y) for (x, y) in vertices]
        if len(verts) < 3:
            raise DegeneratePolygonError("a polygon needs at least three vertices")
        n = len(verts)
        for i in range(n):
            if verts[i] == verts[(i + 1) % n]:
                raise DegeneratePolygonError("coincident consecutive vertices")
        signed = shoelace(verts)
        if signed == 0:
            raise DegeneratePolygonError("polygon has zero content")
        if signed < 0:
            verts.reverse()
        self._check_simple(verts)
        self.vertices = tuple(verts)

    @staticmethod
    def _check_simple(verts) -> None:
        n = len(verts)
        for i in range(n):
            a1, a2 = verts[i], verts[(i + 1) % n]
            for j in range(i + 1, n):
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                b1, b2 = verts[j], verts[(j + 1) % n]
                if adjacent:
                    # Edges share one vertex; only a fold-back (both other
                    # endpoints on the same ray out of it) is an overlap.
                    shared, p, q = (a2, a1, b2) if j == i + 1 else (a1, a2, b1)
                    up = (p[0] - shared[0], p[1] - shared[1])
                    uq = (q[0] - shared[0], q[1] - shared[1])
                    collinear = up[0] * uq[1] - up[1] * uq[0] == 0
                    same_way = up[0] * uq[0] + up[1] * uq[1] > 0
                    if collinear and same_way:
                        raise SelfIntersectionError("edge folds back on its neighbour")
                    continue
                if segments_intersect(a1, a2, b1, b2):
                    raise SelfIntersectionError(
                        f"edges {i} and {j} of the polygon intersect"
                    )


# -- the angle kind's two carries and the ray-by-ray triple test ------------------
# References for ``angles._value_sub`` and ``angles.angle_equiv``, kept verbatim
# as they were before subtraction reused the carry of addition and triple
# equivalence became equality of normalized angles.

def _value_add(a: AngleValue, b: AngleValue) -> AngleValue:
    h = a.half_turns + b.half_turns
    if a.residual is None:
        return AngleValue(h, b.residual)
    if b.residual is None:
        return AngleValue(h, a.residual)
    d, x = _dir_mul(a.residual, b.residual)
    if x > 0:
        return AngleValue(h, _dir_reduce((d, x)))
    if x == 0:  # exactly a straight angle: d < 0 here
        return AngleValue(h + 1, None)
    return AngleValue(h + 1, _dir_reduce((-d, -x)))


def _value_sub(a: AngleValue, b: AngleValue) -> AngleValue:
    if _value_compare(a, b) is not Comparison.GREATER:
        raise NotGreaterError("angle minuend is not greater")
    h = a.half_turns - b.half_turns
    if b.residual is None:
        return AngleValue(h, a.residual)
    if a.residual is None:
        # borrow a half-turn: pi - t has direction (-d, x)
        d, x = b.residual
        return AngleValue(h - 1, _dir_reduce((-d, x)))
    # divide directions: multiply by the conjugate of b
    d1, x1 = a.residual
    d2, x2 = b.residual
    d = d1 * d2 + x1 * x2
    x = x1 * d2 - x2 * d1
    if x > 0:
        return AngleValue(h, _dir_reduce((d, x)))
    if x == 0:
        return AngleValue(h, None) if h > 0 else _raise_zero()
    return AngleValue(h - 1, _dir_reduce((-d, -x)))


def _raise_zero():
    raise NotGreaterError("difference is the zero angle")


def _same_ray(b: Point, p: Point, q: Point) -> bool:
    """p and q on one ray from b: collinear and on the same side of b."""
    up = (p[0] - b[0], p[1] - b[1])
    uq = (q[0] - b[0], q[1] - b[1])
    if up[0] * uq[1] - up[1] * uq[0] != 0:
        return False
    return up[0] * uq[0] + up[1] * uq[1] > 0


def angle_equiv(t1: Sequence, t2: Sequence) -> bool:
    """Triple equivalence: same vertex and one-of-two betweenness conditions."""
    a1, b1, c1 = (_point(p) for p in t1)
    a2, b2, c2 = (_point(p) for p in t2)
    for (a, b, c) in ((a1, b1, c1), (a2, b2, c2)):
        if a == b or b == c or a == c:
            raise DuplicatePointError("angle points must be pairwise distinct")
        u = (a[0] - b[0], a[1] - b[1])
        v = (c[0] - b[0], c[1] - b[1])
        if u[0] * v[1] - u[1] * v[0] == 0:
            raise CollinearError("points lie on a straight line")
    if b1 != b2:
        return False
    cond1 = _same_ray(b1, a1, a2) and _same_ray(b1, c1, c2)
    cond2 = _same_ray(b1, a1, c2) and _same_ray(b1, c1, a2)
    return cond1 or cond2


carry_value_add = _value_add
carry_value_sub = _value_sub
ray_angle_equiv = angle_equiv


# -- the per-kind exact value ------------------------------------------------------
# Reference for ``ratios.exact_value``: the quotient of ``magnitude_exact``, the
# kind hook ``KindOps.exact`` with its four overrides, kept verbatim (each
# override's body under its kind) as they were before the exact value was read
# off the enclosure.

def _kind_exact_default(a, kind) -> Optional[Fraction]:
    enc = kinds.ops_for(kind).enclosure(a)
    return enc.exact if enc is not None else None


_KIND_EXACT = {
    KindId.NATURALS: lambda a: Fraction(a),
    KindId.POLYGON_CLASSES: lambda a: Fraction(a),  # inherits the naturals' override
    KindId.SEGMENTS: lambda a: a.exact,
    KindId.ANGLES: lambda a: None,
    KindId.REGION_CLASSES: lambda a: a.exact if a.pi_factor == 0 else None,
}


def magnitude_exact(x: E.Magnitude) -> Optional[Fraction]:
    exact = _KIND_EXACT.get(x.kind)
    return exact(x.payload) if exact is not None else _kind_exact_default(x.payload, x.kind)


def kind_exact_value(r: Ratio) -> Optional[Fraction]:
    en, ed = magnitude_exact(r.num), magnitude_exact(r.den)
    if en is None or ed is None:
        return None
    return en / ed


# -- the per-kind order checks of partial subtraction -----------------------------
# References for ``kinds.sub``: the five per-kind ``sub`` methods and
# ``kinds._separating_depth``, kept verbatim (each method's body under its
# kind) as they were before partial subtraction took its order from
# ``compare`` once.  The angle kind's method called the order-checking
# ``angles._value_sub`` of that time, kept here as ``checked_value_sub``.

def _separating_depth(ea: E.RealEnclosure, eb: E.RealEnclosure, res: Resolution) -> Optional[int]:
    for depth in range(res.depth_cap + 1):
        ia, ib = ea.at(depth), eb.at(depth)
        if ia.hi < ib.lo or ia.lo > ib.hi:
            return depth
        if ia.width < res.eps and ib.width < res.eps:
            return None
    return None


def _naturals_sub(self, a, b, res):
    if a <= b:
        raise NotGreaterError(f"{a} is not greater than {b}")
    return a - b


def _lex_pairs_sub(self, a, b, res):
    if not b < a:
        raise NotGreaterError(f"{a} is not greater than {b}")
    d = (a[0] - b[0], a[1] - b[1])
    if d[0] < 0 or d[1] < 0 or d == (0, 0):
        raise NoWitnessError(f"no pair z satisfies {b} + z = {a}")
    return d


def _segments_sub(self, a, b, res):
    depth = _separating_depth(a, b, res)
    if depth is None:
        raise IndistinguishableError("segments indistinguishable at resolution")
    if a.at(depth).hi < b.at(depth).lo:
        raise NotGreaterError("minuend segment is not greater")
    base = depth
    return E.RealEnclosure(
        lambda d: a.at(max(d, base)) - b.at(max(d, base)),
        exact=(a.exact - b.exact) if (a.exact is not None and b.exact is not None) else None,
    )


def checked_value_sub(a: AngleValue, b: AngleValue) -> AngleValue:
    if _value_compare(a, b) is not Comparison.GREATER:
        raise NotGreaterError("angle minuend is not greater")
    if b.residual is None:
        return AngleValue(a.half_turns - b.half_turns, a.residual)
    # a - b = a + (pi - b) - (h_b + 1) pi, where pi - t has direction (-d, x);
    # a > b keeps the half-turn count non-negative
    d, x = b.residual
    s = _value_add(a, AngleValue(0, (-d, x)))
    return AngleValue(s.half_turns - b.half_turns - 1, s.residual)


def _angles_sub(self, a, b, res):
    return checked_value_sub(a, b)


def _region_classes_sub(self, a, b, res):
    if self.compare(a, b, res) is not Comparison.GREATER:
        raise NotGreaterError("region minuend not certified greater")
    return _RegionClassValue(a.exact - b.exact, a.pi_factor - b.pi_factor)


_PER_KIND_SUB = {
    KindId.NATURALS: _naturals_sub,
    KindId.POLYGON_CLASSES: _naturals_sub,  # inherits the naturals' method
    KindId.LEX_PAIRS: _lex_pairs_sub,
    KindId.SEGMENTS: _segments_sub,
    KindId.ANGLES: _angles_sub,
    KindId.REGION_CLASSES: _region_classes_sub,
}


def per_kind_sub(x: E.Magnitude, y: E.Magnitude, res: Resolution = DEFAULT_RESOLUTION) -> E.Magnitude:
    sub = _PER_KIND_SUB[x.kind]
    return E.Magnitude(x.kind, sub(kinds.ops_for(x.kind), x.payload, y.payload, res))


def magnitudes_of_every_kind(rng: random.Random) -> list[list[E.Magnitude]]:
    """Seeded magnitudes, one list per kind, with and without exact values."""
    q = lambda: Fraction(rng.randint(1, 30), rng.randint(1, 12))  # noqa: E731
    square = lambda: E.rectangle(q(), q())  # noqa: E731
    segs = [E.segment_rational(q()) for _ in range(4)]
    segs += [E.segment_sqrt(q()) for _ in range(4)] + [E.segment_sqrt(Fraction(9, 4))]
    segs += [E.add(segs[0], segs[4]), E.kmul(3, segs[5]), E.add(segs[1], segs[2])]
    big, small = sorted(segs[:2], key=lambda s: s.payload.exact, reverse=True)
    if big.payload.exact != small.payload.exact:
        segs.append(E.sub(big, small))
    # a root whose depth-0 rounding reaches zero, and an enclosure first
    # positive at depth 2: read from a positive depth, both are positive
    root2 = E.magnitude_enclosure(E.segment_sqrt(2))
    segs += [E.segment_sqrt(Fraction(1, 2**201)),
             E.segment_from_enclosure(root2 - E.RealEnclosure.from_fraction(Fraction("1.414213562373095")))]
    angles = [E.angle_magnitude(E.angle_from_points((1, 0), (0, 0), (rng.randint(-5, 5), rng.randint(1, 5))))
              for _ in range(4)] + [E.angle_magnitude(E.Angle.turns(1))]
    regions = [E.region_magnitude(E.Region([square()])) for _ in range(3)]
    regions += [E.region_magnitude(E.Region([E.disk((0, 0), q())])),
                E.region_magnitude(E.Region([square(), E.Sector((100, 100), q(), 0, Fraction(1, 3))]))]
    regions.append(E.add(regions[0], regions[1]))
    return [
        [E.naturals(rng.randint(1, 40)) for _ in range(4)],
        [E.polygon_class(q()) for _ in range(3)] + [as_magnitude(square())],
        segs,
        angles,
        regions,
        [E.lex_pair(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(3)] + [E.lex_pair(2, 0)],
    ]


def outcome(call: Callable[[], object]) -> tuple:
    """("ok", result) or ("raised", error class, message): what a call did."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return ("raised", type(exc), str(exc))


def random_fraction(rng: random.Random, max_num: int = 50) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_num))


def random_convex_polygon(rng: random.Random, sides: int = 6, scale: int = 5) -> E.Polygon:
    """Convex lattice polygon from edge vectors sorted by angle."""
    while True:
        vecs = []
        for _ in range(sides):
            v = (rng.randint(-scale, scale), rng.randint(-scale, scale))
            if v != (0, 0):
                vecs.append(v)
        if len(vecs) < 3:
            continue
        sx = sum(v[0] for v in vecs)
        sy = sum(v[1] for v in vecs)
        vecs[-1] = (vecs[-1][0] - sx, vecs[-1][1] - sy)
        if vecs[-1] == (0, 0):
            continue
        vecs.sort(key=lambda v: math.atan2(v[1], v[0]))
        pts = []
        x = y = 0
        for v in vecs:
            x += v[0]
            y += v[1]
            pts.append((x, y))
        try:
            poly = E.Polygon(pts)
        except E.EudoxosError:
            continue
        # fan triangulation must be non-degenerate for the additivity test
        v0 = poly.vertices[0]
        ok = True
        for i in range(1, len(poly.vertices) - 1):
            a, b = poly.vertices[i], poly.vertices[i + 1]
            if (a[0] - v0[0]) * (b[1] - v0[1]) == (a[1] - v0[1]) * (b[0] - v0[0]):
                ok = False
        if ok:
            return poly


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)
