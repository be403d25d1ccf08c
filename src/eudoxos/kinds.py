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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Optional

from .enclosures import RealEnclosure
from .errors import (
    IndistinguishableError,
    KindMismatchError,
    NoWitnessError,
    NotGreaterError,
    ZeroMagnitudeError,
)
from .intervals import Rat, sqrt_interval, Interval, exact_sqrt


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
            raise ValueError("resolution eps must be positive")

    @property
    def depth_cap(self) -> int:
        # Refinement depths to try before giving up; generators in this
        # library shrink at least geometrically, so the cap is generous.
        return max(8, self.eps.denominator.bit_length() + 32)


DEFAULT_RESOLUTION = Resolution(Fraction(1, 2**53))


@dataclass(frozen=True)
class Magnitude:
    kind: KindId
    payload: Any

    def __repr__(self) -> str:
        return f"Magnitude({self.kind.value}, {self.payload!r})"


class KindOps:
    """Per-kind arithmetic; exact kinds override compare with total orders."""

    kind: KindId
    exact_compare = False  # True when compare never answers Indistinguishable

    def validate(self, payload):
        return payload

    def add(self, a, b):
        raise NotImplementedError

    def kmul(self, n: int, a):
        acc = a
        for _ in range(n - 1):
            acc = self.add(acc, a)
        return acc

    def compare(self, a, b, res: Resolution) -> Comparison:
        ea, eb = self.enclosure(a), self.enclosure(b)
        if ea is None or eb is None:
            raise NotImplementedError
        if a == b:
            return Comparison.EQUAL
        return compare_enclosures(ea, eb, res)

    def sub(self, a, b, res: Resolution):
        raise NotImplementedError

    def enclosure(self, a) -> Optional[RealEnclosure]:
        return None

    def exact(self, a) -> Optional[Fraction]:
        enc = self.enclosure(a)
        return enc.exact if enc is not None else None


def compare_enclosures(ea: RealEnclosure, eb: RealEnclosure, res: Resolution) -> Comparison:
    """Refine both enclosures until separated or both narrower than eps."""
    if ea is eb:
        return Comparison.EQUAL
    if ea.exact is not None and eb.exact is not None:
        return total_order(ea.exact, eb.exact)
    depth = _separating_depth(ea, eb, res)
    if depth is None:
        return Comparison.INDISTINGUISHABLE
    ia, ib = ea.at(depth), eb.at(depth)
    return Comparison.LESS if ia.hi < ib.lo else Comparison.GREATER


def _separating_depth(ea: RealEnclosure, eb: RealEnclosure, res: Resolution) -> Optional[int]:
    for depth in range(res.depth_cap + 1):
        ia, ib = ea.at(depth), eb.at(depth)
        if ia.hi < ib.lo or ia.lo > ib.hi:
            return depth
        if ia.width < res.eps and ib.width < res.eps:
            return None
    return None


class _NaturalsOps(KindOps):
    exact_compare = True
    kind = KindId.NATURALS

    def validate(self, payload):
        if not isinstance(payload, int) or payload < 1:
            raise ZeroMagnitudeError(f"natural magnitude must be a positive integer, got {payload!r}")
        return payload

    def add(self, a, b):
        return a + b

    def kmul(self, n, a):
        return n * a

    def compare(self, a, b, res):
        return total_order(a, b)

    def sub(self, a, b, res):
        if a <= b:
            raise NotGreaterError(f"{a} is not greater than {b}")
        return a - b

    def enclosure(self, a):
        return RealEnclosure.from_fraction(a)

    def exact(self, a):
        return Fraction(a)


class _PolygonClassesOps(_NaturalsOps):
    """Equal-content classes: the naturals' arithmetic on rational contents."""

    kind = KindId.POLYGON_CLASSES

    def validate(self, payload):
        payload = Fraction(payload)
        if payload <= 0:
            raise ZeroMagnitudeError("polygon class content must be positive")
        return payload


class _LexPairsOps(KindOps):
    """Lexicographically ordered pairs: the non-Archimedean quasi-kind.

    (0, b) is infinitesimal relative to (a, 0) for a >= 1.  The order-sum
    link of kind axiom (ii) fails here by construction: (1,5) < (2,3) but no
    non-negative pair z satisfies (1,5) + z = (2,3).
    """

    exact_compare = True
    kind = KindId.LEX_PAIRS

    def validate(self, payload):
        a, b = payload
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ZeroMagnitudeError("lex pair components must be integers")
        if a < 0 or b < 0 or (a == 0 and b == 0):
            raise ZeroMagnitudeError("lex pair must be non-negative and not both zero")
        return (a, b)

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def kmul(self, n, a):
        return (n * a[0], n * a[1])

    def compare(self, a, b, res):
        return total_order(a, b)

    def sub(self, a, b, res):
        if not b < a:
            raise NotGreaterError(f"{a} is not greater than {b}")
        d = (a[0] - b[0], a[1] - b[1])
        if d[0] < 0 or d[1] < 0 or d == (0, 0):
            raise NoWitnessError(f"no pair z satisfies {b} + z = {a}")
        return d


class _SegmentsOps(KindOps):
    kind = KindId.SEGMENTS

    def validate(self, payload):
        if not isinstance(payload, RealEnclosure):
            raise ZeroMagnitudeError("segment payload must be a RealEnclosure")
        return payload

    def add(self, a, b):
        return a + b

    def kmul(self, n, a):
        return a.scale(n)

    def sub(self, a, b, res):
        depth = _separating_depth(a, b, res)
        if depth is None:
            raise IndistinguishableError("segments indistinguishable at resolution")
        if a.at(depth).hi < b.at(depth).lo:
            raise NotGreaterError("minuend segment is not greater")
        base = depth
        return RealEnclosure(
            lambda d: a.at(max(d, base)) - b.at(max(d, base)),
            exact=(a.exact - b.exact) if (a.exact is not None and b.exact is not None) else None,
        )

    def enclosure(self, a):
        return a

    def exact(self, a):
        return a.exact


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
    return Magnitude(KindId.NATURALS, ops_for(KindId.NATURALS).validate(n))


def lex_pair(a: int, b: int) -> Magnitude:
    return Magnitude(KindId.LEX_PAIRS, ops_for(KindId.LEX_PAIRS).validate((a, b)))


def polygon_class(content: Rat) -> Magnitude:
    return Magnitude(KindId.POLYGON_CLASSES, ops_for(KindId.POLYGON_CLASSES).validate(content))


def segment_rational(value: Rat) -> Magnitude:
    value = Fraction(value)
    if value <= 0:
        raise ZeroMagnitudeError("segment length must be positive")
    return Magnitude(KindId.SEGMENTS, RealEnclosure.from_fraction(value, name=str(value)))


def segment_sqrt(value: Rat) -> Magnitude:
    """Segment of length sqrt(value), e.g. the diagonal of a square."""
    value = Fraction(value)
    if value <= 0:
        raise ZeroMagnitudeError("segment length must be positive")
    root = exact_sqrt(value)
    if root is not None:
        return segment_rational(root)
    point = Interval.point(value)
    enc = RealEnclosure(
        lambda d: sqrt_interval(point, 1 << (48 + 4 * d)), name=f"sqrt({value})"
    )
    return Magnitude(KindId.SEGMENTS, enc)


def segment_from_enclosure(enc: RealEnclosure) -> Magnitude:
    for depth in range(64):
        iv = enc.at(depth)
        if iv.lo > 0:
            return Magnitude(KindId.SEGMENTS, enc)
        if iv.hi <= 0:
            break
    raise ZeroMagnitudeError("could not certify the enclosure positive")


# -- operations --------------------------------------------------------------

def _require_same_kind(x: Magnitude, y: Magnitude) -> KindOps:
    if x.kind is not y.kind:
        raise KindMismatchError(f"cannot combine {x.kind.value} with {y.kind.value}")
    return ops_for(x.kind)


def kmul(n: int, x: Magnitude) -> Magnitude:
    if not isinstance(n, int) or n < 1:
        raise ValueError("multiplier must be a positive integer")
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
    ops = _require_same_kind(x, y)
    return Magnitude(x.kind, ops.sub(x.payload, y.payload, res))


def archimedean_witness(
    x: Magnitude, y: Magnitude, bound: int, res: Resolution = DEFAULT_RESOLUTION
) -> Optional[int]:
    """Least n <= bound with n*x certified greater than y, if any.

    Uses the monotonicity of n |-> n*x: binary search over certified
    comparisons.  Absence is a value (None), not an error.
    """
    _require_same_kind(x, y)
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


def magnitude_enclosure(x: Magnitude) -> Optional[RealEnclosure]:
    return ops_for(x.kind).enclosure(x.payload)


def magnitude_exact(x: Magnitude) -> Optional[Fraction]:
    return ops_for(x.kind).exact(x.payload)
