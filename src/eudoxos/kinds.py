"""Magnitude kinds: the shared contract and the arithmetic-backed instances.

A kind is an Archimedean strictly ordered cancellative commutative semigroup
with partial subtraction; a quasi-kind drops the Archimedean requirement.
Registered kinds:

* ``NATURALS``       -- positive integers, exact.
* ``SEGMENTS``       -- congruence classes of straight segments, carried by a
                        positive real enclosure, semi-decidable comparison.
* ``POLYGON_CLASSES``-- equal-content classes of polygons, exact positive
                        rational content.
* ``LEX_PAIRS``      -- pairs of non-negative integers (not both zero) under
                        componentwise addition and lexicographic order: the
                        canonical quasi-kind with infinitesimals.
* ``ANGLES`` / ``REGION_CLASSES`` -- registered by the angle and region
                        modules on import.

Universes never mix: every operation demands equal ``KindId``.  Comparison on
enclosure-backed kinds takes a :class:`Resolution` and may honestly answer
``INDISTINGUISHABLE`` instead of guessing.

The Archimedean property lives here alone: ``KindOps.never_exceeds`` holds
only on the lex quasi-kind, so only it makes measurement raise
NotArchimedean, and every search for a multiple that exceeds (the witness,
the integer part of a measurement, a Stern–Brocot run) is one uncapped
gallop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count
from typing import Any, Callable, Iterable, Optional

from .enclosures import RealEnclosure
from .errors import (
    DomainError,
    IndistinguishableError,
    KindMismatchError,
    NoWitnessError,
    NotGreaterError,
    ZeroMagnitudeError,
)
from .intervals import Interval, Rat, _rational, _repr, _text, exact_sqrt, sqrt_interval


class KindId(Enum):
    NATURALS = "naturals"
    SEGMENTS = "segments"
    ANGLES = "angles"
    POLYGON_CLASSES = "polygon-classes"
    REGION_CLASSES = "region-classes"
    LEX_PAIRS = "lex-pairs"


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INDISTINGUISHABLE = "indistinguishable-at-resolution"


def total_order(a, b) -> Comparison:
    """The comparison of two exactly ordered values (numbers, tuples)."""
    if a < b:
        return Comparison.LESS
    if a > b:
        return Comparison.GREATER
    return Comparison.EQUAL


@dataclass(frozen=True)
class Resolution:
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps <= 0:
            raise DomainError("resolution eps must be positive")

    @property
    def depth_cap(self) -> int:
        # Refinement depths to try before giving up; generators in this
        # library shrink at least geometrically, so the cap is generous.
        # It reads the size of 1/eps, so a coarser eps never walks deeper.
        return max(8, (self.eps.denominator // self.eps.numerator).bit_length() + 32)


DEFAULT_RESOLUTION = Resolution(Fraction(1, 2**53))


@dataclass(frozen=True)
class Magnitude:
    kind: KindId
    payload: Any

    def __repr__(self) -> str:
        return f"Magnitude({self.kind.value}, {_repr(self.payload)})"


class KindOps:
    """Per-kind arithmetic; exact kinds override compare with total orders."""

    kind: KindId
    exact_compare = False  # True when compare never answers Indistinguishable

    def add(self, a, b):
        raise NotImplementedError

    def never_exceeds(self, a, b) -> bool:
        """True when no multiple of a exceeds b; never, in an Archimedean kind."""
        return False

    def compare(self, a, b, res: Resolution) -> Comparison:
        ea, eb = self.enclosure(a), self.enclosure(b)
        if ea is None or eb is None:
            raise NotImplementedError
        if a == b:
            return Comparison.EQUAL
        return compare_enclosures(ea, eb, res)

    def sub(self, a, b):
        """The difference a - b, called only once a > b is certified."""
        raise NotImplementedError

    def enclosure(self, a) -> Optional[RealEnclosure]:
        return None


def compare_enclosures(ea: RealEnclosure, eb: RealEnclosure, res: Resolution) -> Comparison:
    """Refine both enclosures until separated or both narrower than eps."""
    if ea is eb:
        return Comparison.EQUAL
    if ea.exact is not None and eb.exact is not None:
        return total_order(ea.exact, eb.exact)
    for depth in range(res.depth_cap + 1):
        ia, ib = ea.at(depth), eb.at(depth)
        if ia.hi < ib.lo:
            return Comparison.LESS
        if ia.lo > ib.hi:
            return Comparison.GREATER
        if ia.width < res.eps and ib.width < res.eps:
            break
    return Comparison.INDISTINGUISHABLE


def _positive_from(enc: RealEnclosure, depths: Iterable[int]) -> RealEnclosure:
    """``enc`` read from its first depth in ``depths`` with a positive lower
    end: a shallower depth reads that one, so every depth read is positive.

    ``enc`` itself when that depth is 0.  Raises ZeroMagnitudeError when the
    depths run out, or one of them certifies the value is not positive.
    """
    for base in depths:
        iv = enc.at(base)
        if iv.lo > 0:
            if base == 0:
                return enc
            return RealEnclosure(lambda d: enc.at(max(d, base)), exact=enc.exact, name=enc.name)
        if iv.hi <= 0:
            break
    raise ZeroMagnitudeError("could not certify the enclosure positive")


class _NaturalsOps(KindOps):
    kind = KindId.NATURALS

    def add(self, a, b):
        return a + b

    def kmul(self, n, a):
        return n * a

    def compare(self, a, b, res):
        return total_order(a, b)

    def sub(self, a, b):
        return a - b

    def enclosure(self, a):
        return RealEnclosure.from_fraction(a)


class _PolygonClassesOps(_NaturalsOps):
    """Equal-content classes: the naturals' arithmetic on rational contents."""

    kind = KindId.POLYGON_CLASSES


class _LexPairsOps(KindOps):
    """Lexicographically ordered pairs: the non-Archimedean quasi-kind.

    (0, b) is infinitesimal relative to (a, 0) for a >= 1.  The order-sum
    link of kind axiom (ii) fails here by construction: (1,5) < (2,3) but no
    non-negative pair z satisfies (1,5) + z = (2,3).
    """

    exact_compare = True
    kind = KindId.LEX_PAIRS

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def kmul(self, n, a):
        return (n * a[0], n * a[1])

    def compare(self, a, b, res):
        return total_order(a, b)

    def never_exceeds(self, a, b):
        return a[0] == 0 and b[0] > 0

    def sub(self, a, b):
        d = (a[0] - b[0], a[1] - b[1])
        if d[0] < 0 or d[1] < 0 or d == (0, 0):
            raise NoWitnessError(f"no pair z satisfies {b} + z = {a}")
        return d


class _SegmentsOps(KindOps):
    kind = KindId.SEGMENTS

    def add(self, a, b):
        return a + b

    def kmul(self, n, a):
        return a.scale(n)

    def sub(self, a, b):
        # a > b is certified, so some depth separates them and a - b is
        # positive there: the walk ends
        return _positive_from(a - b, count())

    def enclosure(self, a):
        return a


_REGISTRY: dict[KindId, KindOps] = {}


def register_kind(ops: KindOps) -> None:
    _REGISTRY[ops.kind] = ops


def ops_for(kind: KindId) -> KindOps:
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise KindMismatchError(f"kind {kind} is not registered") from None


register_kind(_NaturalsOps())
register_kind(_PolygonClassesOps())
register_kind(_LexPairsOps())
register_kind(_SegmentsOps())


# -- constructors ------------------------------------------------------------

def naturals(n: int) -> Magnitude:
    if not isinstance(n, int) or n < 1:
        raise ZeroMagnitudeError(f"natural magnitude must be a positive integer, got {n!r}")
    return Magnitude(KindId.NATURALS, n)


def lex_pair(a: int, b: int) -> Magnitude:
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ZeroMagnitudeError("lex pair components must be integers")
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ZeroMagnitudeError("lex pair must be non-negative and not both zero")
    return Magnitude(KindId.LEX_PAIRS, (a, b))


def polygon_class(content: Rat) -> Magnitude:
    content = Fraction(content)
    if content <= 0:
        raise ZeroMagnitudeError("polygon class content must be positive")
    return Magnitude(KindId.POLYGON_CLASSES, content)


def segment_rational(value: Rat) -> Magnitude:
    value = _rational(value, "segment length")
    if value <= 0:
        raise ZeroMagnitudeError("segment length must be positive")
    return Magnitude(KindId.SEGMENTS, RealEnclosure.from_fraction(value, name=_text(value)))


def segment_sqrt(value: Rat) -> Magnitude:
    """Segment of length sqrt(value), e.g. the diagonal of a square."""
    value = _rational(value, "segment length")
    if value <= 0:
        raise ZeroMagnitudeError("segment length must be positive")
    root = exact_sqrt(value)
    if root is not None:
        return segment_rational(root)
    # the root rounded down at 2^-(48+4d) is positive iff value >= 2^-(96+8d);
    # depths below the least such d, found from the value, read that one
    p, q = value.numerator, value.denominator
    shift = max(q.bit_length() - p.bit_length(), 0)
    shift += p << shift < q  # the least k with value * 2^k >= 1
    base = max(0, -((96 - shift) // 8))
    point = Interval.point(value)
    enc = RealEnclosure(
        lambda d: sqrt_interval(point, 1 << (48 + 4 * max(d, base))), name=f"sqrt({_text(value)})"
    )
    return Magnitude(KindId.SEGMENTS, enc)


def segment_from_enclosure(enc: RealEnclosure) -> Magnitude:
    return Magnitude(KindId.SEGMENTS, _positive_from(enc, range(64)))


# -- operations --------------------------------------------------------------

def _require_same_kind(x: Magnitude, y: Magnitude) -> KindOps:
    if x.kind is not y.kind:
        raise KindMismatchError(f"cannot combine {x.kind.value} with {y.kind.value}")
    return ops_for(x.kind)


def kmul(n: int, x: Magnitude) -> Magnitude:
    if not isinstance(n, int) or n < 1:
        raise DomainError("multiplier must be a positive integer")
    if n == 1:
        return x
    return Magnitude(x.kind, ops_for(x.kind).kmul(n, x.payload))


def add(x: Magnitude, y: Magnitude) -> Magnitude:
    ops = _require_same_kind(x, y)
    return Magnitude(x.kind, ops.add(x.payload, y.payload))


def compare(x: Magnitude, y: Magnitude, res: Resolution = DEFAULT_RESOLUTION) -> Comparison:
    ops = _require_same_kind(x, y)
    return ops.compare(x.payload, y.payload, res)


def sub(x: Magnitude, y: Magnitude, res: Resolution = DEFAULT_RESOLUTION) -> Magnitude:
    """Partial subtraction: x - y exists exactly when y < x in the kind's order."""
    ops = _require_same_kind(x, y)
    order = ops.compare(x.payload, y.payload, res)
    if order is Comparison.INDISTINGUISHABLE:
        raise IndistinguishableError(
            f"{x.payload} and {y.payload} are indistinguishable at resolution {res.eps}"
        )
    if order is not Comparison.GREATER:
        raise NotGreaterError(f"{x.payload} is not greater than {y.payload}")
    return Magnitude(x.kind, ops.sub(x.payload, y.payload))


def _gallop(holds: Callable[[int], bool], k: int = 0) -> int:
    """The last n >= 1 with holds(n), or 0, for a predicate that holds up to
    some n and fails beyond it; k is 0 or an n known to hold.

    Doubles past k until holds fails, then bisects between the last n that
    held and the first that failed: O(log n) probes (Bentley and Yao, *An
    almost optimal algorithm for unbounded searching*, 1976).
    """
    j = 2 * k or 1
    while holds(j):
        k, j = j, 2 * j
    while j - k > 1:
        mid = (k + j) // 2
        if holds(mid):
            k = mid
        else:
            j = mid
    return k


def archimedean_witness(
    x: Magnitude, y: Magnitude, bound: int, res: Resolution = DEFAULT_RESOLUTION
) -> Optional[int]:
    """Least n <= bound with n*x certified greater than y, if any.

    Certified exceeding is monotone in n, so the last n that does not exceed
    is galloped to.  Absence is a value (None), not an error.
    """
    if _require_same_kind(x, y).never_exceeds(x.payload, y.payload):
        return None
    n = _gallop(lambda m: m <= bound and compare(kmul(m, x), y, res) is not Comparison.GREATER)
    return n + 1 if n < bound else None


def magnitude_enclosure(x: Magnitude) -> Optional[RealEnclosure]:
    return ops_for(x.kind).enclosure(x.payload)
