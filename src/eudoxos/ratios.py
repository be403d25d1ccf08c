"""Eudoxean ratios: the cut function, proportion, order, and arithmetic.

The cut of a ratio x:y is the set of positive fractions m/n with m*y <= n*x,
an initial segment of the positive rationals.  Proportion (``eq_E``) compares
the full trichotomy of equimultiple outcomes; cut equality (``eq_L``) compares
membership only.  Both, and the order ``less_E``, are semi-decided by the least
pair (m, n), m, n <= bound, by m+n then m, that tells the ratios apart; a
Stern–Brocot descent finds it with O(log bound) cut placements.  On
enclosure-backed kinds individual comparisons may stay unknown at the working
resolution; when such a pair comes first the verdict is honestly Undecided.

``to_real`` is the order embedding into real enclosures: rational-valued
ratios map to exact points, all others to the nested brackets of their
base-2 positional measurement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property
from itertools import count
from typing import Callable, Optional

from .enclosures import RealEnclosure
from .errors import DomainError, KindMismatchError, NotArchimedeanError
from .intervals import Interval
from . import kinds
from .kinds import (
    Comparison,
    DEFAULT_RESOLUTION,
    Magnitude,
    Resolution,
    kmul,
    magnitude_enclosure,
    naturals,
    segment_from_enclosure,
    segment_rational,
    total_order,
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

    @cached_property
    def _enclosure(self) -> Optional[RealEnclosure]:
        # One value enclosure per ratio: every cut oracle shares its cache.
        en, ed = magnitude_enclosure(self.num), magnitude_enclosure(self.den)
        if en is None or ed is None:
            return None
        return en / ed


def ratio(num: Magnitude, den: Magnitude) -> Ratio:
    return Ratio(num, den)


def rational_ratio(value: Fraction | int) -> Ratio:
    """The ratio p:q of naturals representing a positive fraction."""
    value = Fraction(value)
    if value <= 0:
        raise DomainError("ratio value must be positive")
    return Ratio(naturals(value.numerator), naturals(value.denominator))


def value_enclosure(r: Ratio) -> Optional[RealEnclosure]:
    return r._enclosure


def exact_value(r: Ratio) -> Optional[Fraction]:
    """The ratio's rational value, if it has one: its enclosure's ``exact``."""
    enc = value_enclosure(r)
    return enc.exact if enc is not None else None


def cut_member(r: Ratio, m: int, n: int, res: Resolution = DEFAULT_RESOLUTION) -> CutSide:
    """Place the fraction m/n against the ratio: Below means m*den < n*num."""
    if m < 1 or n < 1:
        raise DomainError("cut queries take positive integers")
    return _side_fn(r, res)(m, n)


_SIDE_OF_COMPARISON = {
    Comparison.LESS: CutSide.BELOW,
    Comparison.EQUAL: CutSide.BOUNDARY,
    Comparison.GREATER: CutSide.ABOVE,
    Comparison.INDISTINGUISHABLE: CutSide.UNKNOWN,
}


def _side_fn(
    r: Ratio, res: Resolution, reached: Optional[list] = None
) -> Callable[[int, int], CutSide]:
    """One placement oracle for fractions m/n against the ratio at ``res``.

    What does not change between queries is settled once, so a scan builds
    one oracle per ratio and places each m/n in integers:

    * an exact value p/q compares m*q with n*p;
    * exact-compare kinds (lex pairs, angles) compare the equimultiples
      m*den and n*num with the kind's own operations;
    * other kinds read the value enclosure, resuming at the deepest depth
      reached so far (read lazily, never ahead of a query).  A walk from
      depth 0 would pass only depths wider than eps, and cached depths
      nest, so the deepest one places m/n on the same side: a placement
      costs O(1) amortized depths.  UNKNOWN means m/n lies in an interval
      narrower than eps, or in the one at the depth cap.

    Oracles for one ratio may share ``reached``, a one-element list that
    holds the deepest depth read; a positional stream builds one oracle per
    digit at eps/base^i and shares it.  Resuming stays sound while each
    oracle's eps is no coarser than the one before: its depth cap is then no
    lower, so every depth passed before was wider than the new eps and below
    the new cap, and a walk from depth 0 would pass it too.
    """
    v = exact_value(r)
    if v is not None:
        p, q = v.numerator, v.denominator
        return lambda m, n: _SIDE_OF_COMPARISON[total_order(m * q, n * p)]

    ops = kinds.ops_for(r.num.kind)
    enc = None if ops.exact_compare else value_enclosure(r)
    if enc is None:
        num, den = r.num.payload, r.den.payload

        def side_magnitudes(m: int, n: int) -> CutSide:
            x = den if m == 1 else ops.kmul(m, den)
            y = num if n == 1 else ops.kmul(n, num)
            return _SIDE_OF_COMPARISON[ops.compare(x, y, res)]

        return side_magnitudes

    eps, cap = res.eps, res.depth_cap
    if reached is None:
        reached = [None]  # (depth, lo.num, lo.den, hi.num, hi.den, interval) of the deepest depth

    def reach(depth: int) -> tuple:
        iv = enc.at(depth)
        reached[0] = depth, iv.lo.numerator, iv.lo.denominator, iv.hi.numerator, iv.hi.denominator, iv
        return reached[0]

    def side_enclosure(m: int, n: int) -> CutSide:
        deepest = reached[0] or reach(0)
        while True:
            depth, a, b, c, d, iv = deepest
            if m * b < n * a:
                return CutSide.BELOW
            if m * d > n * c:
                return CutSide.ABOVE
            if depth >= cap or iv.width < eps:
                return CutSide.UNKNOWN
            deepest = reach(depth + 1)

    return side_enclosure


def _hull(r: Ratio, probe_depth: int = 16) -> Optional[Interval]:
    enc = value_enclosure(r)
    return enc.at(probe_depth) if enc is not None else None


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


def _simplest(
    toward: Callable[[int, int], Optional[int]],
    bound: int,
    limit: Optional[tuple[int, int]] = None,
) -> Optional[tuple[int, int]]:
    """The simplest fraction p/q that ``toward`` seeks, by Stern–Brocot descent.

    ``toward(p, q)`` is 0 when p/q is sought, +1 or -1 when all that is
    sought lies above or below p/q, and None when nothing is; what is
    sought must be an interval.  The simplest fraction of an interval has
    the least p and the least q in it (Graham, Knuth and Patashnik,
    *Concrete Mathematics*, section 4.5), so it is the least by (p+q, p);
    None unless it has p, q <= bound and (p+q, p) < limit.  A run of moves
    one way is galloped (doubled until it ends, then bisected), so the
    descent places O(log bound) fractions.
    """
    a, b, c, d = 0, 1, 1, 0  # what is sought lies strictly between a/b and c/d

    def move(p: int, q: int) -> Optional[int]:
        if p > bound or q > bound or (limit is not None and (p + q, p) >= limit):
            return None
        return toward(p, q)

    while True:
        t = move(a + c, b + d)
        if not t:
            return None if t is None else (a + c, b + d)
        # the run's k-th node is (p0 + k*dp)/(q0 + k*dq); node 1 moves by t
        (p0, q0), (dp, dq) = ((a, b), (c, d)) if t > 0 else ((c, d), (a, b))
        k = kinds._gallop(lambda i: move(p0 + i * dp, q0 + i * dq) == t, 1)
        if t > 0:
            a, b = p0 + k * dp, q0 + k * dq
        else:
            c, d = p0 + k * dp, q0 + k * dq


_TOWARD_UNKNOWN = {
    CutSide.BELOW: 1,
    CutSide.ABOVE: -1,
    CutSide.UNKNOWN: 0,
    CutSide.BOUNDARY: None,
}


def _pull(c1: CutSide, c2: CutSide) -> Optional[int]:
    """eq_E and eq_L off a witness: where any witness lies from p/q.

    Below p/q a BELOW side stays BELOW, and a BOUNDARY or UNKNOWN side is
    BELOW or UNKNOWN; above, mirrored.  So with a side BELOW and none ABOVE
    every witness lies above p/q, with a side ABOVE and none BELOW below it,
    and with neither there is none.
    """
    pull = (c1 is CutSide.BELOW) + (c2 is CutSide.BELOW) - (c1 is CutSide.ABOVE) - (c2 is CutSide.ABOVE)
    return (pull > 0) - (pull < 0) or None


def _witness_search(
    r1: Ratio,
    r2: Ratio,
    res: Resolution,
    window: Optional[Interval],
    bound: int,
    decisive: Callable[[CutSide, CutSide], bool],
    steer: Callable[[CutSide, CutSide], Optional[int]],
) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    """The least event among pairs (p, q), p, q <= bound, p/q in the window,
    ordered by p+q then p.

    An event is a witness (both sides definite and ``decisive``) or an
    unknown (a side UNKNOWN).  Returns the least witness and the least
    unknown before it (None when absent), as a scan in that order would.

    Each oracle is monotone in p/q, so each event set is an interval and
    its least pair is its simplest fraction: the witnesses lie between the
    two cut values, and a side's unknowns in the enclosure interval where
    its walk stops (none for exact oracles).  Every set has a descent:
    ``steer`` says, for sides that make no witness (one UNKNOWN, or both
    definite and not decisive), whether the witnesses lie above (+1),
    below (-1) or nowhere (None).  Oracles are pure functions of p/q, so
    one placement serves all descents.
    """
    side1, side2 = cache(_side_fn(r1, res)), cache(_side_fn(r2, res))
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 0  # the window in integers; 1/0 for none
    if window is not None:
        lo, hi = max(window.lo, 0), window.hi  # ratio values are positive
        lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def seek(judge: Callable[[int, int], Optional[int]], limit=None) -> Optional[tuple[int, int]]:
        def toward(p: int, q: int) -> Optional[int]:
            if p * lo_d < q * lo_n:
                return 1
            if p * hi_d > q * hi_n:
                return -1
            return judge(p, q)

        return _simplest(toward, bound, limit)

    def witness_at(p: int, q: int) -> Optional[int]:
        c1, c2 = side1(p, q), side2(p, q)
        if CutSide.UNKNOWN in (c1, c2) or not decisive(c1, c2):
            return steer(c1, c2)
        return 0

    witness = seek(witness_at)
    unknown = None
    for r, side in ((r1, side1), (r2, side2)):
        if exact_value(r) is None and not kinds.ops_for(r.num.kind).exact_compare:
            least = unknown or witness
            found = seek(lambda p, q, side=side: _TOWARD_UNKNOWN[side(p, q)],
                         least and (least[0] + least[1], least[0]))
            unknown = found or unknown
    return witness, unknown


def _proportion_scan(
    r1: Ratio,
    r2: Ratio,
    search_bound: int,
    res: Resolution,
    differ: Callable[[CutSide, CutSide], bool],
) -> ProportionVerdict:
    """Shared witness search; ``differ`` judges a pair of definite sides."""
    h1, h2 = _hull(r1), _hull(r2)
    window = h1.hull(h2) if (h1 is not None and h2 is not None) else None
    witness, unknown = _witness_search(r1, r2, res, window, search_bound, differ, _pull)
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
    h1, h2 = _hull(r1), _hull(r2)
    window = None
    if h1 is not None and h2 is not None:
        if h1.lo > h2.hi:
            return LessVerdict(LessOutcome.NOT_LESS)  # r1 certainly above r2
        window = Interval(h1.lo, h2.hi)
    witness, unknown = _witness_search(
        r2, r1, res, window, search_bound,
        lambda c2, c1: c2 is CutSide.BELOW and c1 is not CutSide.BELOW,
        # off a witness: r2's side BELOW leaves r1's BELOW or UNKNOWN, as it
        # is everywhere below, so witnesses lie above; r1's side ABOVE leaves
        # r2's not BELOW, as it is everywhere above, so they lie below
        lambda c2, c1: 1 if c2 is CutSide.BELOW else -1 if c1 is CutSide.ABOVE else None,
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
        raise DomainError("scaling takes positive integers")
    return Ratio(kmul(m, r.num), kmul(n, r.den))


def _re(r: Ratio) -> RealEnclosure:
    return value_enclosure(r) or to_real(r)


def _combine(r1: Ratio, r2: Ratio, op) -> Ratio:
    """op of two ratio values: a ratio of naturals when both are rational,
    else the segment whose enclosure is op of theirs, against the unit segment."""
    v1, v2 = exact_value(r1), exact_value(r2)
    if v1 is not None and v2 is not None:
        return rational_ratio(op(v1, v2))
    return Ratio(segment_from_enclosure(op(_re(r1), _re(r2))), segment_rational(1))


def add_ratio(r1: Ratio, r2: Ratio) -> Ratio:
    """Sum via common-denominator representatives over the segment kind.

    Rational-valued ratios get the exact fourth proportional (a ratio of
    naturals); all others are re-expressed as u:w, v:w with w the unit
    segment, giving (u+v):w.
    """
    return _combine(r1, r2, operator.add)


def mul_ratio(r1: Ratio, r2: Ratio) -> Ratio:
    """Product via the chained representation u:w, w:v -> u:v."""
    return _combine(r1, r2, operator.mul)


def to_real(r: Ratio) -> RealEnclosure:
    """Order embedding into real enclosures: the binary measurement of r.

    Depth k is a prefix of the base-2 digit stream of r, measured on the
    first query: k digits (at least one) for values from 1/2 up, and below
    1/2 one digit more, reaching at least the first non-zero digit.  So the
    bracket has width at most 2^-k; every fraction below it is in the cut and
    every fraction above is out.  Raises NotArchimedean when the cut is empty
    (no multiple of the numerator exceeds the denominator) or full (none of
    the denominator exceeds the numerator).
    """
    v = exact_value(r)
    if v is not None:
        return RealEnclosure.from_fraction(v)
    from .positional import measure_positional, stream_to_enclosure

    stream = None

    def refine(depth: int) -> Interval:
        nonlocal stream
        if stream is None:
            stream = measure_positional(r.num, r.den, 2)
        length = depth
        if stream.int_part == 0:
            if kinds.ops_for(r.num.kind).never_exceeds(r.num.payload, r.den.payload):
                raise NotArchimedeanError(
                    "cut is empty: numerator infinitesimal relative to denominator"
                )
            lead = next(i for i in count() if stream.digit(i))
            length = max(depth, 1) if lead == 0 else max(depth + 1, lead + 1)
        return stream_to_enclosure(stream, length)

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

    # Clause (i): eq_E and eq_L agree on sampled ratio pairs of naturals, and
    # of segments with irrational values.
    nat_pairs = [(3, 2), (6, 4), (2, 1), (5, 3), (7, 7), (1, 3), (4, 6), (9, 12), (11, 5)]
    seg_samples = [
        (kinds.segment_sqrt(2), kinds.segment_rational(1)),
        (kinds.segment_sqrt(3), kinds.segment_sqrt(2)),
        (kinds.segment_rational(Fraction(3, 2)), kinds.segment_rational(1)),
    ]
    nat_samples = [(naturals(a), naturals(b)) for (a, b) in nat_pairs]
    for label, samples in (("naturals", nat_samples), ("segments", seg_samples)):
        agree = True
        for p1 in samples:
            for p2 in samples:
                r1, r2 = Ratio(*p1), Ratio(*p2)
                if eq_E(r1, r2, bound, res).outcome is not eq_L(r1, r2, bound, res).outcome:
                    agree = False
        clauses.append(
            ClauseResult(f"(i) {label}", agree, f"eq_E == eq_L on {len(samples)}^2 ratio pairs")
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
