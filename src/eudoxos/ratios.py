"""Eudoxean ratios: the cut function, proportion, order, and arithmetic.

The cut of a ratio x:y is the set of positive fractions m/n with m*y <= n*x,
an initial segment of the positive rationals.  Proportion (``eq_E``) compares
the full trichotomy of equimultiple outcomes; cut equality (``eq_L``) compares
membership only.  Both are semi-decided by a bounded witness search over pairs
(m, n) ordered by m+n then m; on enclosure-backed kinds individual comparisons
may stay unknown at the working resolution, in which case the verdict is
honestly Undecided.

``to_real`` is the order embedding into real enclosures: rational-valued
ratios map to exact points, all others to nested bracketing intervals found
by bisecting the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .enclosures import RealEnclosure
from .errors import KindMismatchError, NotArchimedeanError, IndistinguishableError
from .intervals import Interval
from . import kinds
from .kinds import (
    Comparison,
    DEFAULT_RESOLUTION,
    Magnitude,
    Resolution,
    compare,
    kmul,
    magnitude_enclosure,
    magnitude_exact,
    naturals,
    segment_from_enclosure,
    segment_rational,
)

DEFAULT_SEARCH_BOUND = 10_000


class CutSide(Enum):
    BELOW = "below"
    BOUNDARY = "boundary"
    ABOVE = "above"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Ratio:
    num: Magnitude
    den: Magnitude

    def __post_init__(self):
        if self.num.kind is not self.den.kind:
            raise KindMismatchError("ratio terms must be of the same kind")

    def __repr__(self) -> str:
        return f"Ratio({self.num!r} : {self.den!r})"


def ratio(num: Magnitude, den: Magnitude) -> Ratio:
    return Ratio(num, den)


def rational_ratio(value: Fraction | int) -> Ratio:
    """The ratio p:q of naturals representing a positive fraction."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("ratio value must be positive")
    return Ratio(naturals(value.numerator), naturals(value.denominator))


def exact_value(r: Ratio) -> Optional[Fraction]:
    en, ed = magnitude_exact(r.num), magnitude_exact(r.den)
    if en is None or ed is None:
        return None
    return en / ed


def value_enclosure(r: Ratio) -> Optional[RealEnclosure]:
    en, ed = magnitude_enclosure(r.num), magnitude_enclosure(r.den)
    if en is None or ed is None:
        return None
    return en / ed


def cut_member(r: Ratio, m: int, n: int, res: Resolution = DEFAULT_RESOLUTION) -> CutSide:
    """Place the fraction m/n against the ratio: Below means m*den < n*num."""
    if m < 1 or n < 1:
        raise ValueError("cut queries take positive integers")
    return _side_fn(r, res)(m, n)


def _side_of_fraction(f: Fraction, v: Fraction) -> CutSide:
    if f < v:
        return CutSide.BELOW
    if f > v:
        return CutSide.ABOVE
    return CutSide.BOUNDARY


def _side_fn(r: Ratio, res: Resolution) -> Callable[[int, int], CutSide]:
    """Cheapest sound placement oracle for fractions against the ratio."""
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


def _hull(r: Ratio, res: Resolution, probe_depth: int = 16) -> Optional[Interval]:
    v = exact_value(r)
    if v is not None:
        return Interval.point(v)
    enc = value_enclosure(r)
    if enc is not None:
        return enc.at(probe_depth)
    return None


class Proportionality(Enum):
    PROPORTIONAL = "proportional"
    NOT_PROPORTIONAL = "not-proportional"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ProportionVerdict:
    outcome: Proportionality
    witness: Optional[tuple[int, int]] = None
    undecided_at: Optional[tuple[int, int]] = None

    @property
    def is_proportional(self) -> bool:
        return self.outcome is Proportionality.PROPORTIONAL


def _candidate_range(s: int, window: Optional[Interval], bound: int) -> Iterable[int]:
    """m values with m+n=s whose fraction m/(s-m) may fall inside window."""
    m_lo, m_hi = 1, s - 1
    m_lo = max(m_lo, s - bound)  # n <= bound
    m_hi = min(m_hi, bound)      # m <= bound
    if window is not None:
        a, b = window.lo, window.hi
        # m/(s-m) >= a  <=>  m >= a*s/(1+a);   m/(s-m) <= b  <=>  m <= b*s/(1+b)
        m_lo = max(m_lo, math.ceil(a * s / (1 + a)))
        m_hi = min(m_hi, math.floor(b * s / (1 + b)))
    return range(m_lo, m_hi + 1)


def _witness_scan(
    side1: Callable[[int, int], CutSide],
    side2: Callable[[int, int], CutSide],
    window: Optional[Interval],
    bound: int,
    decisive: Callable[[CutSide, CutSide], bool],
) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    """Scan fractions p/q (p, q <= bound, inside window) by p+q, then p.

    Returns the least pair whose two definite sides are ``decisive`` and the
    least pair before it on which a side stayed UNKNOWN (None when absent).
    """
    first_unknown: Optional[tuple[int, int]] = None
    for s in range(2, 2 * bound + 1):
        for p in _candidate_range(s, window, bound):
            q = s - p
            c1, c2 = side1(p, q), side2(p, q)
            if c1 is CutSide.UNKNOWN or c2 is CutSide.UNKNOWN:
                if first_unknown is None:
                    first_unknown = (p, q)
                continue
            if decisive(c1, c2):
                return (p, q), first_unknown
    return None, first_unknown


def _proportion_scan(
    r1: Ratio,
    r2: Ratio,
    search_bound: int,
    res: Resolution,
    differ: Callable[[CutSide, CutSide], bool],
) -> ProportionVerdict:
    """Shared witness search; ``differ`` judges a pair of definite sides."""
    h1, h2 = _hull(r1, res), _hull(r2, res)
    window = h1.hull(h2) if (h1 is not None and h2 is not None) else None
    witness, unknown = _witness_scan(
        _side_fn(r1, res), _side_fn(r2, res), window, search_bound, differ
    )
    if unknown is not None:
        return ProportionVerdict(Proportionality.UNDECIDED, undecided_at=unknown)
    if witness is not None:
        return ProportionVerdict(Proportionality.NOT_PROPORTIONAL, witness=witness)
    return ProportionVerdict(Proportionality.PROPORTIONAL)


def eq_E(
    r1: Ratio,
    r2: Ratio,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    res: Resolution = DEFAULT_RESOLUTION,
) -> ProportionVerdict:
    """Eudoxean proportion: all equimultiple trichotomy outcomes agree."""
    return _proportion_scan(r1, r2, search_bound, res, lambda a, b: a is not b)


def eq_L(
    r1: Ratio,
    r2: Ratio,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    res: Resolution = DEFAULT_RESOLUTION,
) -> ProportionVerdict:
    """Cut equality: membership of every fraction agrees (boundary counts in)."""

    def differ(a: CutSide, b: CutSide) -> bool:
        ina = a in (CutSide.BELOW, CutSide.BOUNDARY)
        inb = b in (CutSide.BELOW, CutSide.BOUNDARY)
        return ina is not inb

    return _proportion_scan(r1, r2, search_bound, res, differ)


class LessOutcome(Enum):
    LESS = "less"
    NOT_LESS = "not-less"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class LessVerdict:
    outcome: LessOutcome
    witness: Optional[tuple[int, int]] = None
    undecided_at: Optional[tuple[int, int]] = None


def less_E(
    r1: Ratio,
    r2: Ratio,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    res: Resolution = DEFAULT_RESOLUTION,
) -> LessVerdict:
    """r1 < r2 iff r2 has the greater ratio: some equimultiples (m, n) have
    m*r2.num > n*r2.den while m*r1.num does not exceed n*r1.den.

    The fraction under test is n/m: below r2, at or above r1.  As in eq_E, a
    witness behind a pair that stayed unknown gives Undecided at that pair.
    """
    h1, h2 = _hull(r1, res), _hull(r2, res)
    window = None
    if h1 is not None and h2 is not None:
        if h1.lo > h2.hi:
            return LessVerdict(LessOutcome.NOT_LESS)  # r1 certainly above r2
        window = Interval(h1.lo, h2.hi)
    witness, unknown = _witness_scan(
        _side_fn(r2, res), _side_fn(r1, res), window, search_bound,
        lambda c2, c1: c2 is CutSide.BELOW and c1 is not CutSide.BELOW,
    )
    if unknown is not None:
        return LessVerdict(LessOutcome.UNDECIDED, undecided_at=unknown[::-1])
    if witness is not None:
        return LessVerdict(LessOutcome.LESS, witness=witness[::-1])
    return LessVerdict(LessOutcome.NOT_LESS)


def inverse(r: Ratio) -> Ratio:
    return Ratio(r.den, r.num)


def scale_rational(m: int, n: int, r: Ratio) -> Ratio:
    """(m/n) * ratio as <m*num, n*den>; independent of the representative."""
    if m < 1 or n < 1:
        raise ValueError("scaling takes positive integers")
    return Ratio(kmul(m, r.num), kmul(n, r.den))


def _re(r: Ratio, res: Resolution) -> RealEnclosure:
    v = exact_value(r)
    if v is not None:
        return RealEnclosure.from_fraction(v)
    enc = value_enclosure(r)
    if enc is not None:
        return enc
    return to_real(r, res)


def add_ratio(r1: Ratio, r2: Ratio, res: Resolution = DEFAULT_RESOLUTION) -> Ratio:
    """Sum via common-denominator representatives over the segment kind.

    Rational-valued ratios get the exact fourth proportional (a ratio of
    naturals); all others are re-expressed as u:w, v:w with w the unit
    segment, giving (u+v):w.
    """
    v1, v2 = exact_value(r1), exact_value(r2)
    if v1 is not None and v2 is not None:
        return rational_ratio(v1 + v2)
    e = _re(r1, res) + _re(r2, res)
    return Ratio(segment_from_enclosure(e), segment_rational(1))


def mul_ratio(r1: Ratio, r2: Ratio, res: Resolution = DEFAULT_RESOLUTION) -> Ratio:
    """Product via the chained representation u:w, w:v -> u:v."""
    v1, v2 = exact_value(r1), exact_value(r2)
    if v1 is not None and v2 is not None:
        return rational_ratio(v1 * v2)
    e = _re(r1, res) * _re(r2, res)
    return Ratio(segment_from_enclosure(e), segment_rational(1))


_EXPANSION_CAP = 64


def to_real(r: Ratio, res: Resolution = DEFAULT_RESOLUTION) -> RealEnclosure:
    """Order embedding into real enclosures by bisecting the cut.

    At depth k the bracket has width at most 2^-k; every fraction below the
    bracket is in the cut and every fraction above is out.  Raises
    NotArchimedean when the cut is empty or full (detected exactly on exact
    kinds, after a bounded doubling search otherwise).
    """
    v = exact_value(r)
    if v is not None:
        return RealEnclosure.from_fraction(v)

    def refine(depth: int) -> Interval:
        eps = Fraction(1, 1 << depth)
        side = _side_fn(r, Resolution(Fraction(1, 1 << (depth + 32))))

        def place(f: Fraction) -> CutSide:
            s = side(f.numerator, f.denominator)
            if s is CutSide.UNKNOWN:
                raise IndistinguishableError(
                    "cut query unresolved while embedding; raise the resolution"
                )
            return s

        hi = Fraction(1)
        for _ in range(_EXPANSION_CAP):
            s = place(hi)
            if s is CutSide.ABOVE:
                break
            if s is CutSide.BOUNDARY:
                return Interval.point(hi)
            hi *= 2
        else:
            raise NotArchimedeanError("cut is full: numerator infinite relative to denominator")
        lo = hi / 2 if hi > 1 else Fraction(1, 2)
        while True:
            s = place(lo)
            if s is CutSide.BELOW:
                break
            if s is CutSide.BOUNDARY:
                return Interval.point(lo)
            lo /= 2
            if lo < Fraction(1, 1 << _EXPANSION_CAP):
                raise NotArchimedeanError(
                    "cut is empty: numerator infinitesimal relative to denominator"
                )
        while hi - lo > eps:
            mid = (lo + hi) / 2
            s = place(mid)
            if s is CutSide.BELOW:
                lo = mid
            elif s is CutSide.ABOVE:
                hi = mid
            else:
                return Interval.point(mid)
        return Interval(lo, hi)

    return RealEnclosure(refine, name="Re")


# -- the Archimedean-equivalences proposition harness --------------------------


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PropositionReport:
    clauses: tuple[ClauseResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def lines(self) -> list[str]:
        out = []
        for c in self.clauses:
            mark = "pass" if c.passed else "FAIL"
            out.append(f"[{mark}] {c.clause}: {c.detail}")
        return out


def _lex(a: int, b: int) -> Magnitude:
    return kinds.lex_pair(a, b)


def proposition_suite(
    bound: int = 30, res: Resolution = DEFAULT_RESOLUTION
) -> PropositionReport:
    """Exercise clauses (i), (iii), (vii) on Archimedean kinds and produce the
    non-Archimedean counterexamples on the lexicographic pairs."""
    clauses: list[ClauseResult] = []

    # Clause (i) on naturals: eq_E and eq_L agree on sampled ratio pairs.
    nat_pairs = [(3, 2), (6, 4), (2, 1), (5, 3), (7, 7), (1, 3), (4, 6), (9, 12), (11, 5)]
    agree = True
    for (a, b) in nat_pairs:
        for (c, d) in nat_pairs:
            r1 = Ratio(naturals(a), naturals(b))
            r2 = Ratio(naturals(c), naturals(d))
            ve = eq_E(r1, r2, bound, res)
            vl = eq_L(r1, r2, bound, res)
            if ve.outcome is not vl.outcome:
                agree = False
    clauses.append(
        ClauseResult("(i) naturals", agree, f"eq_E == eq_L on {len(nat_pairs)}^2 ratio pairs")
    )

    # Clause (i) on segments: samples with irrational values.
    seg_samples = [
        (kinds.segment_sqrt(2), kinds.segment_rational(1)),
        (kinds.segment_sqrt(3), kinds.segment_sqrt(2)),
        (kinds.segment_rational(Fraction(3, 2)), kinds.segment_rational(1)),
    ]
    agree = True
    for (n1, d1) in seg_samples:
        for (n2, d2) in seg_samples:
            r1, r2 = Ratio(n1, d1), Ratio(n2, d2)
            ve = eq_E(r1, r2, bound, res)
            vl = eq_L(r1, r2, bound, res)
            if ve.outcome is not vl.outcome:
                agree = False
    clauses.append(
        ClauseResult("(i) segments", agree, f"eq_E == eq_L on {len(seg_samples)}^2 ratio pairs")
    )

    # Clause (iii) on naturals: eq_E(<x,z>, <y,z>) implies x = y; exhaustive.
    cancel = True
    for x in range(1, 11):
        for y in range(1, 11):
            for z in range(1, 8):
                v = eq_E(Ratio(naturals(x), naturals(z)), Ratio(naturals(y), naturals(z)), bound, res)
                if v.is_proportional and x != y:
                    cancel = False
    clauses.append(
        ClauseResult("(iii) naturals", cancel, "cancellation over x,y<=10, z<=7")
    )

    # Clause (vii): cut and co-cut partition the sampled fractions.
    partition = True
    samples = [
        Ratio(naturals(3), naturals(2)),
        Ratio(kinds.segment_sqrt(2), kinds.segment_rational(1)),
        Ratio(kinds.segment_sqrt(3), kinds.segment_sqrt(2)),
    ]
    for r in samples:
        members = 0
        cocut = 0
        for m in range(1, min(bound, 12) + 1):
            for n in range(1, min(bound, 12) + 1):
                side = cut_member(r, m, n, res)
                if side is CutSide.UNKNOWN:
                    partition = False
                elif side is CutSide.ABOVE:
                    cocut += 1
                else:
                    members += 1
        if members == 0 or cocut == 0:
            partition = False
    clauses.append(
        ClauseResult("(vii)", partition, "cut and co-cut both inhabited, membership total")
    )

    # Non-Archimedean witness for (i) <=> (ii): eq_L-equal but eq_E-unequal.
    r_inf = Ratio(_lex(1, 1), _lex(1, 0))
    r_one = Ratio(_lex(1, 0), _lex(1, 0))
    vl = eq_L(r_inf, r_one, min(bound, 50), res)
    ve = eq_E(r_inf, r_one, min(bound, 50), res)
    sep = vl.is_proportional and ve.outcome is Proportionality.NOT_PROPORTIONAL
    clauses.append(
        ClauseResult(
            "not(ii) -> not(i) witness",
            sep,
            f"<(1,1),(1,0)> vs <(1,0),(1,0)>: eq_L {vl.outcome.value}, "
            f"eq_E {ve.outcome.value} witness {ve.witness}",
        )
    )

    # Non-Archimedean failure of (iii): z infinitesimal kills cancellation.
    vx = eq_E(Ratio(_lex(1, 1), _lex(0, 1)), Ratio(_lex(1, 2), _lex(0, 1)), min(bound, 50), res)
    anti = vx.is_proportional
    clauses.append(
        ClauseResult(
            "not(iii) witness",
            anti,
            f"<(1,1),(0,1)> =_E <(1,2),(0,1)> with (1,1) != (1,2): {vx.outcome.value}",
        )
    )

    return PropositionReport(tuple(clauses))
