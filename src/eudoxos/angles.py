"""Angles as point-triple classes; direct measures; the two sine functions.

A rectilineal angle is an ordered triple of pairwise distinct, non-collinear
rational points, normalized by scaling both arms to primitive integer
direction vectors (and ordering them, since swapping the arms preserves the
angle).  The class of an angle strictly between 0 and pi is completely
captured by the primitive integer pair (d, x) with

    d = u . v,   x = |u x v|,   d^2 + x^2 = |u|^2 |v|^2,

i.e. by an integer "direction" d + ix of the unit complex number
cos t + i sin t.  Angle addition is then complex multiplication with a
half-turn carry, so the angle kind has exact addition, total comparison and
exact partial subtraction; no resolution parameter is ever consumed.

Measures: m(a) is the arc-to-radius enclosure (unit d, the radian), mu(a) the
sector-to-square enclosure (unit e), computed from chord/tangent and
triangle-fan/tangent-kite sums respectively; m = 2 mu holds at every depth,
whence e = 2d.  The analytic sine inverts the certified integral
of 1/sqrt(1-t^2) by bisection and never consults arc length.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence, Union

from .archimedes import (
    arc_length_bounds,
    halved_sincos,
    pi_interval,
    precision_denominator,
    sector_area_bounds,
)
from .enclosures import RealEnclosure
from .errors import (
    CollinearError,
    DomainError,
    DuplicatePointError,
    NotAcuteError,
    NotGreaterError,
    ZeroMagnitudeError,
)
from .intervals import Interval, Rat, exact_sqrt, sqrt_down, sqrt_interval, sqrt_up
from .kinds import KindId, KindOps, Magnitude, Comparison, register_kind, total_order

Point = tuple[Fraction, Fraction]
IntVec = tuple[int, int]


def _point(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def _primitive(v: tuple[Fraction, Fraction]) -> IntVec:
    """Scale a non-zero rational vector to integer coordinates with gcd 1."""
    x, y = Fraction(v[0]), Fraction(v[1])
    common = x.denominator * y.denominator
    a = int(x * common)
    b = int(y * common)
    g = gcd(abs(a), abs(b))
    return (a // g, b // g)


@dataclass(frozen=True)
class Angle:
    """Normalized angle representative: vertex plus primitive arm directions.

    ``windings`` counts whole turns on top of the triple part; a pure winding
    angle (full circles only) carries no arms.
    """

    vertex: Optional[Point]
    arm1: Optional[IntVec]
    arm2: Optional[IntVec]
    windings: int = 0

    def __post_init__(self):
        if self.windings < 0:
            raise ValueError("windings must be non-negative")
        if self.arm1 is None:
            if self.windings == 0:
                raise ValueError("angle must have arms or whole turns")
            return
        if self.arm1 > self.arm2:
            first, second = self.arm2, self.arm1
            object.__setattr__(self, "arm1", first)
            object.__setattr__(self, "arm2", second)

    @staticmethod
    def turns(k: int) -> "Angle":
        return Angle(vertex=None, arm1=None, arm2=None, windings=k)

    @property
    def has_arms(self) -> bool:
        return self.arm1 is not None

    def direction(self) -> Optional[IntVec]:
        """Primitive (dot, |cross|) pair of the triple part."""
        if not self.has_arms:
            return None
        u, v = self.arm1, self.arm2
        d = u[0] * v[0] + u[1] * v[1]
        x = abs(u[0] * v[1] - u[1] * v[0])
        g = gcd(abs(d), x)
        return (d // g, x // g)


def angle_from_points(a, b, c, windings: int = 0) -> Angle:
    a, b, c = _point(a), _point(b), _point(c)
    if a == b or b == c or a == c:
        raise DuplicatePointError("angle points must be pairwise distinct")
    u = (a[0] - b[0], a[1] - b[1])
    v = (c[0] - b[0], c[1] - b[1])
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise CollinearError("points lie on a straight line")
    return Angle(vertex=b, arm1=_primitive(u), arm2=_primitive(v), windings=windings)


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


# -- the angle kind -----------------------------------------------------------


@dataclass(frozen=True)
class AngleValue:
    """Canonical angle magnitude: half-turn count plus residual direction.

    The residual (d, x) is a primitive integer pair with x >= 1 representing
    an angle strictly between 0 and pi via cos t = d/sqrt(d^2+x^2).
    """

    half_turns: int
    residual: Optional[IntVec]

    def __post_init__(self):
        if self.half_turns < 0:
            raise ZeroMagnitudeError("angle value cannot be negative")
        if self.residual is None and self.half_turns == 0:
            raise ZeroMagnitudeError("zero angle excluded from the kind")
        if self.residual is not None:
            d, x = self.residual
            if x < 1:
                raise ZeroMagnitudeError("residual must lie strictly between 0 and pi")
            if gcd(abs(d), x) != 1:
                raise ZeroMagnitudeError("residual direction must be primitive")


def _dir_mul(p: IntVec, q: IntVec) -> IntVec:
    # complex multiplication (d1 + i x1)(d2 + i x2)
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _dir_reduce(v: IntVec) -> IntVec:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


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


def _residual_cos_rank(r: IntVec) -> tuple[int, Fraction]:
    """Orderable key decreasing in the angle: (sign of cos, signed cos^2)."""
    d, x = r
    n = d * d + x * x
    return (1 if d > 0 else (0 if d == 0 else -1), Fraction((d * abs(d)), n))


def _value_compare(a: AngleValue, b: AngleValue) -> Comparison:
    if a == b:
        return Comparison.EQUAL
    if a.half_turns != b.half_turns:
        return total_order(a.half_turns, b.half_turns)
    if a.residual is None or b.residual is None:
        return Comparison.LESS if a.residual is None else Comparison.GREATER
    # larger cos means smaller angle
    return total_order(_residual_cos_rank(b.residual), _residual_cos_rank(a.residual))


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


def _cos_interval_of_dir(r: IntVec, den: int) -> Interval:
    d, x = r
    n = d * d + x * x
    csq = Fraction(d * d, n)
    lo, hi = sqrt_down(csq, den), sqrt_up(csq, den)
    if d >= 0:
        return Interval(lo, hi)
    return Interval(-hi, -lo)


def _turn_enclosure(
    pi_multiple: Rat, direction: Optional[IntVec], bounds, r: Rat = 1, *, name: str
) -> RealEnclosure:
    """pi_multiple * pi plus the chord/tangent ``bounds`` of a direction on radius r.

    ``bounds`` is arc_length_bounds (a half-turn of arc is pi*r) or
    sector_area_bounds (a half-turn of sector is pi*r^2/2); a missing
    direction (whole turns only) contributes nothing.
    """

    def refine(depth: int) -> Interval:
        total = pi_interval(depth).scale(pi_multiple)
        if direction is not None:
            cos0 = _cos_interval_of_dir(direction, precision_denominator(depth))
            total = total + bounds(cos0, r, depth)
        return total

    return RealEnclosure(refine, name=name)


class _AnglesOps(KindOps):
    exact_compare = True  # canonical direction pairs give a total exact order
    kind = KindId.ANGLES

    def validate(self, payload):
        if not isinstance(payload, AngleValue):
            raise ZeroMagnitudeError("angle payload must be an AngleValue")
        return payload

    def add(self, a, b):
        return _value_add(a, b)

    def kmul(self, n, a):
        # square-and-multiply keeps the direction integers near n*log(d)
        # digits with only log(n) multiplications
        result = None
        base = a
        while n:
            if n & 1:
                result = base if result is None else _value_add(result, base)
            n >>= 1
            if n:
                base = _value_add(base, base)
        return result

    def compare(self, a, b, res):
        return _value_compare(a, b)

    def sub(self, a, b, res):
        return _value_sub(a, b)

    def enclosure(self, a):
        return _turn_enclosure(a.half_turns, a.residual, arc_length_bounds, name="angle")

    def exact(self, a):
        return None


register_kind(_AnglesOps())


def angle_magnitude(a: Angle) -> Magnitude:
    """The congruence class of the angle as a magnitude of kind (iii)."""
    value = AngleValue(half_turns=2 * a.windings, residual=a.direction())
    return Magnitude(KindId.ANGLES, value)


def straight_angle_magnitude() -> Magnitude:
    return Magnitude(KindId.ANGLES, AngleValue(half_turns=1, residual=None))


# -- measures ----------------------------------------------------------------


class AngleUnit(Enum):
    D = "d"            # radian: arc over radius equals one
    E = "e"            # sector over square on radius equals one; e = 2d
    RIGHT_ANGLE = "right-angles"


@dataclass(frozen=True)
class AngleMeasure:
    unit: AngleUnit
    value: RealEnclosure

    def at(self, depth: int) -> Interval:
        return self.value.at(depth)


def measure_m(a: Angle, depth: Optional[int] = None) -> AngleMeasure:
    """Arc-length-to-radius enclosure (unit d); radius cancels exactly."""
    enc = _turn_enclosure(2 * a.windings, a.direction(), arc_length_bounds, name="m")
    if depth is not None:
        enc.at(depth)
    return AngleMeasure(AngleUnit.D, enc)


def measure_mu(a: Angle, depth: Optional[int] = None) -> AngleMeasure:
    """Sector-content-to-square enclosure (unit e); satisfies m = 2 mu."""
    enc = _turn_enclosure(a.windings, a.direction(), sector_area_bounds, name="mu")
    if depth is not None:
        enc.at(depth)
    return AngleMeasure(AngleUnit.E, enc)


def convert_measure(m: AngleMeasure, unit: AngleUnit) -> AngleMeasure:
    """Exact unit changes: e = 2d; right angles derived through pi."""
    if m.unit is unit:
        return m
    if m.unit is AngleUnit.D:
        in_d = m.value
    elif m.unit is AngleUnit.E:
        in_d = m.value.scale(2)
    else:
        in_d = RealEnclosure(lambda d: m.value.at(d) * pi_interval(d).scale(Fraction(1, 2)))
    if unit is AngleUnit.D:
        return AngleMeasure(unit, in_d)
    if unit is AngleUnit.E:
        return AngleMeasure(unit, in_d.scale(Fraction(1, 2)))
    return AngleMeasure(
        unit, RealEnclosure(lambda d: in_d.at(d) / pi_interval(d).scale(Fraction(1, 2)))
    )


def right_angle() -> Angle:
    return angle_from_points((1, 0), (0, 0), (0, 1))


def sample_acute_angles(count: int = 20) -> list[Angle]:
    """Deterministic acute angles with rational-coordinate triples."""
    arms = [
        (1, 0), (5, 1), (4, 1), (3, 1), (5, 2), (2, 1), (5, 3), (3, 2),
        (4, 3), (5, 4), (1, 1), (4, 5), (3, 4), (2, 3), (3, 5), (1, 2),
        (2, 5), (1, 3), (1, 4), (1, 5), (1, 6), (6, 1), (7, 3), (3, 7),
    ]
    out: list[Angle] = []
    for i in range(len(arms)):
        for j in range(i + 1, len(arms)):
            u, v = arms[i], arms[j]
            dot = u[0] * v[0] + u[1] * v[1]
            cross = u[0] * v[1] - u[1] * v[0]
            if dot > 0 and cross != 0:
                out.append(angle_from_points(u, (0, 0), v))
            if len(out) == count:
                return out
    return out


@dataclass(frozen=True)
class UnitRelationEntry:
    angle: Angle
    m_interval: Interval
    mu_interval: Interval
    overlap_margin: Fraction


@dataclass(frozen=True)
class UnitRelationReport:
    depth: int
    entries: tuple[UnitRelationEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.overlap_margin > 0 for e in self.entries)

    def lines(self) -> list[str]:
        out = [f"unit relation m = 2*mu (hence e = 2d) at depth {self.depth}:"]
        for e in self.entries:
            mark = "pass" if e.overlap_margin > 0 else "FAIL"
            out.append(f"  [{mark}] margin {float(e.overlap_margin):.3e}")
        return out


def unit_relation_check(
    depth: int = 12, angles: Optional[Iterable[Angle]] = None
) -> UnitRelationReport:
    """Check the enclosure identity m(a) = 2 mu(a) on sampled angles."""
    if angles is None:
        angles = sample_acute_angles(20)
    entries = []
    for a in angles:
        m_iv = measure_m(a).at(depth)
        two_mu = measure_mu(a).at(depth).scale(2)
        margin = min(m_iv.hi, two_mu.hi) - max(m_iv.lo, two_mu.lo)
        entries.append(UnitRelationEntry(a, m_iv, two_mu, margin))
    return UnitRelationReport(depth, tuple(entries))


# -- geometric sine -----------------------------------------------------------


def is_acute(a: Angle) -> bool:
    direction = a.direction()
    return a.windings == 0 and direction is not None and direction[0] > 0


def sin_geometric(a: Angle, depth: Optional[int] = None) -> RealEnclosure:
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
        return RealEnclosure.from_fraction(root, name="Sin")
    pointed = Interval.point(ratio_sq)
    enc = RealEnclosure(
        lambda d: sqrt_interval(pointed, precision_denominator(d)), name="Sin"
    )
    if depth is not None:
        enc.at(depth)
    return enc


# -- analytic machinery -------------------------------------------------------


@dataclass(frozen=True)
class SqrtRational:
    """A number given by its exact square (e.g. sqrt(1/2))."""

    square: Fraction

    def __post_init__(self):
        object.__setattr__(self, "square", Fraction(self.square))
        if self.square <= 0:
            raise DomainError("square must be positive")

    def bounds(self, den: int) -> Interval:
        return Interval(sqrt_down(self.square, den), sqrt_up(self.square, den))


AsinArg = Union[Fraction, int, SqrtRational]


def _asin_square(x: AsinArg) -> tuple[Fraction, AsinArg]:
    if isinstance(x, SqrtRational):
        return x.square, x
    x = Fraction(x)
    if x <= 0:
        raise DomainError("asin_integral requires 0 < x < 1")
    return x * x, x


def asin_integral(x: AsinArg, depth: Optional[int] = None) -> RealEnclosure:
    """Certified enclosure of the integral of 1/sqrt(1-t^2) from 0 to x.

    For x^2 <= 1/2 the integrand is increasing and bounded, so left/right
    Riemann sums with outward-rounded root reciprocals bracket the value; for
    x^2 > 1/2 the complement identity asin(x) = pi/2 - asin(sqrt(1-x^2))
    avoids the singular endpoint.  Accepts a rational x or a SqrtRational
    (a number given by its exact square).
    """
    sq, xv = _asin_square(x)
    if not (0 < sq < 1):
        raise DomainError("asin_integral requires 0 < x < 1")
    if sq > Fraction(1, 2):
        comp = 1 - sq
        root = exact_sqrt(comp)
        inner = asin_integral(root if root is not None else SqrtRational(comp))
        enc = RealEnclosure(
            lambda d: pi_interval(d).scale(Fraction(1, 2)) - inner.at(d),
            name="asin",
        )
        if depth is not None:
            enc.at(depth)
        return enc

    p, q = sq.numerator, sq.denominator

    def refine(d: int) -> Interval:
        cells = 1 << d
        den = 1 << (48 + 2 * d)
        den_sq = den * den
        nn_q = cells * cells * q
        b_scaled = nn_q * den_sq
        lo_sum = 0
        hi_sum = 0
        for i in range(cells + 1):
            a_i = nn_q - i * i * p  # positive: t_i <= x <= 1/sqrt(2)
            if i < cells:
                lo_sum += isqrt(b_scaled // a_i)
            if i > 0:
                t = -(-b_scaled // a_i)
                r = isqrt(t)
                if r * r < t:
                    r += 1
                hi_sum += r
        if isinstance(xv, SqrtRational):
            x_iv = xv.bounds(den)
            x_lo, x_hi = x_iv.lo, x_iv.hi
        else:
            x_lo = x_hi = xv
        return Interval(
            Fraction(lo_sum, den) * x_lo / cells,
            Fraction(hi_sum, den) * x_hi / cells,
        )

    enc = RealEnclosure(refine, name="asin")
    if depth is not None:
        enc.at(depth)
    return enc


_ASIN_MEMO: dict[Fraction, RealEnclosure] = {}


def _asin_at(x: Fraction) -> RealEnclosure:
    if x not in _ASIN_MEMO:
        if len(_ASIN_MEMO) > 4096:
            _ASIN_MEMO.clear()
        _ASIN_MEMO[x] = asin_integral(x)
    return _ASIN_MEMO[x]


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


SinArg = Union[Fraction, int, RealEnclosure, AngleMeasure]


def _input_enclosure(x: SinArg) -> RealEnclosure:
    if isinstance(x, AngleMeasure):
        return convert_measure(x, AngleUnit.D).value
    if isinstance(x, RealEnclosure):
        return x
    x = Fraction(x)
    if x < 0:
        raise DomainError("argument must be non-negative")
    return RealEnclosure.from_fraction(x)


def sin_analytic(x: SinArg, depth: Optional[int] = None) -> RealEnclosure:
    """The analytic sine: inversion of the asin integral by bisection on
    [0, pi/2] with the endpoint pairs (0,0) and (pi/2,1) adjoined, extended by
    reflection and 2pi-periodicity; signed enclosure on (pi, 2pi)."""
    enc_x = _input_enclosure(x)
    if enc_x.exact == 0:
        return RealEnclosure.from_fraction(0, name="sin")
    enc = RealEnclosure(lambda d: _sin_eval(enc_x.at(d), d), name="sin")
    if depth is not None:
        enc.at(depth)
    return enc


def cos_analytic(x: SinArg, depth: Optional[int] = None) -> RealEnclosure:
    """cos x = sin(x + pi/2), with pi from the certified enclosure."""
    enc_x = _input_enclosure(x)
    enc = RealEnclosure(
        lambda d: _sin_eval(enc_x.at(d) + pi_interval(d + 2).scale(Fraction(1, 2)), d),
        name="cos",
    )
    if depth is not None:
        enc.at(depth)
    return enc


def tan_analytic(x: SinArg, depth: int) -> Interval:
    """Quotient enclosure sin/cos at a fixed depth (no dedicated theory)."""
    s = sin_analytic(x).at(depth)
    c = cos_analytic(x).at(depth)
    try:
        return s / c
    except ZeroDivisionError:
        raise DomainError("cosine enclosure straddles zero at this depth") from None


# -- the celebrated limit ------------------------------------------------------


@dataclass(frozen=True)
class LimitEntry:
    label: str
    ratio: Interval


@dataclass(frozen=True)
class LimitReport:
    entries: tuple[LimitEntry, ...]
    tolerance: Fraction

    @property
    def lower_bounds_monotone(self) -> bool:
        lows = [e.ratio.lo for e in self.entries]
        return all(a < b for a, b in zip(lows, lows[1:]))

    @property
    def final_within_tolerance(self) -> bool:
        last = self.entries[-1].ratio
        return last.lo > 1 - self.tolerance and last.hi <= 1

    @property
    def passed(self) -> bool:
        return self.lower_bounds_monotone and self.final_within_tolerance

    def lines(self) -> list[str]:
        out = ["Sin(a)/m(a) along the sequence (geometric data only):"]
        for e in self.entries:
            out.append(f"  {e.label}: [{float(e.ratio.lo):.9f}, {float(e.ratio.hi):.9f}]")
        out.append(
            f"lower bounds monotone: {self.lower_bounds_monotone}; "
            f"final within (1-{self.tolerance}, 1]: {self.final_within_tolerance}"
        )
        return out


def celebrated_limit_check(
    angles: Optional[Sequence[Angle]] = None,
    halvings: int = 8,
    depth: int = 12,
    tolerance: Fraction = Fraction(1, 1000),
) -> LimitReport:
    """Enclosures of Sin(a)/m(a) on a sequence of angles shrinking to zero.

    Uses only the geometric sine and the arc measure: with an explicit angle
    list, via sin_geometric and measure_m directly; with a single start angle
    (default 45 degrees), halved angles come from the chord half-angle
    construction and exact measure halving, which never leaves rational
    square-root arithmetic.  The analytic sine is never consulted.
    """
    entries: list[LimitEntry] = []
    if angles is not None:
        for idx, a in enumerate(angles):
            s = sin_geometric(a).at(depth)
            m = measure_m(a).at(depth)
            entries.append(LimitEntry(f"angle {idx}", s / m))
    else:
        start = angle_from_points((1, 0), (0, 0), (1, 1))
        direction = start.direction()
        m0 = measure_m(start)
        for k in range(halvings + 1):
            d_eff = depth + k
            den = precision_denominator(d_eff)
            s_k, _ = halved_sincos(_cos_interval_of_dir(direction, den), k, den)
            m_k = m0.at(d_eff).scale(Fraction(1, 1 << k))
            entries.append(LimitEntry(f"45/2^{k} deg", s_k / m_k))
    return LimitReport(tuple(entries), Fraction(tolerance))
