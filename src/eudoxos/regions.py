"""Regions generated by polygons and circular sectors; certified pi; XII.2.

A region is a finite essentially-disjoint union of generators.  Sector
start/extent are exact rational fractions of a full turn; their content and
arc length route through the certified pi enclosure, which is itself the
inscribed/circumscribed polygon computation.  Arcs subtending a point-triple
angle instead use chord and tangent sums on the halved-cosine recurrence.

Disjointness is certified conservatively (exact polygon predicates, bounding
boxes with shared boundaries allowed, same-disk angular ranges, disk-disk
separation); undecidable placements are rejected by the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .archimedes import arc_length_bounds, pi_interval
from .angles import Angle, _turn_enclosure
from .enclosures import RealEnclosure
from .errors import (
    DomainError,
    EmptyArcError,
    NotDisjointError,
    ZeroMagnitudeError,
)
from .intervals import Interval, _rational
from .kinds import KindId, KindOps, Magnitude, magnitude_enclosure, register_kind
from .polygons import Point, Polygon, content, parse_coordinate

__all__ = [
    "Sector",
    "Arc",
    "Region",
    "arc_sup_b",
    "sector_content",
    "region_content",
    "region_eta",
    "EtaResult",
    "xii2_verify",
    "Xii2Record",
    "parse_region",
    "region_magnitude",
]


@dataclass(frozen=True)
class Sector:
    """Circular sector: center, radius, start and extent in turns (0..1]."""

    center: Point
    radius: Fraction
    start: Fraction
    extent: Fraction

    def __post_init__(self):
        try:
            cx, cy = self.center
        except (TypeError, ValueError):
            raise DomainError(f"sector center must be two rationals, got {self.center!r}") from None
        cx, cy = _rational(cx, "sector center"), _rational(cy, "sector center")
        object.__setattr__(self, "center", (cx, cy))
        object.__setattr__(self, "radius", _rational(self.radius, "sector radius"))
        object.__setattr__(self, "start", _rational(self.start, "sector start") % 1)
        object.__setattr__(self, "extent", _rational(self.extent, "sector extent"))
        if self.radius <= 0:
            raise DomainError("sector radius must be positive")
        if not (0 < self.extent <= 1):
            raise DomainError("sector extent must lie in (0, 1] turns")

    @property
    def is_full_disk(self) -> bool:
        return self.extent == 1


def disk(center, radius) -> Sector:
    return Sector(center, radius, Fraction(0), Fraction(1))


def sector_content(s: Sector) -> RealEnclosure:
    """Content enclosure: extent * pi * r^2 (2 * sector = r * arc throughout)."""
    factor = s.extent * s.radius * s.radius
    return RealEnclosure(lambda d: pi_interval(d).scale(factor), name="sector")


@dataclass(frozen=True)
class Arc:
    """Arc of a circle of radius r: rational turns, or a point-triple angle."""

    radius: Fraction
    turns: Optional[Fraction] = None
    angle: Optional[Angle] = None

    def __post_init__(self):
        object.__setattr__(self, "radius", _rational(self.radius, "arc radius"))
        if self.radius <= 0:
            raise DomainError("arc radius must be positive")
        if (self.turns is None) == (self.angle is None):
            raise DomainError("give exactly one of turns or angle")
        if self.angle is not None and not isinstance(self.angle, Angle):
            raise DomainError(f"arc angle must be an Angle, got {self.angle!r}")
        if self.turns is not None:
            object.__setattr__(self, "turns", _rational(self.turns, "arc turns"))
            if self.turns <= 0:
                raise EmptyArcError("arc extent must be positive")


def arc_sup_b(c: Arc) -> RealEnclosure:
    """Enclosure of the arc-length supremum (inscribed chord sums below,
    circumscribed tangent sums above); finitely additive over enclosures."""
    if c.angle is None:
        turns, direction = c.turns, None
    else:
        turns, direction = c.angle.windings, c.angle.direction()
    # on the unit circle, then scaled: a positive factor commutes with the
    # nesting's intersection and hull, so every depth is r times the unit arc
    return _turn_enclosure(2 * turns, direction, arc_length_bounds, name="arc").scale(c.radius)


RegionPart = Union[Polygon, Sector]


def _bbox(part: RegionPart) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    if isinstance(part, Polygon):
        xs = [v[0] for v in part.vertices]
        ys = [v[1] for v in part.vertices]
        return (min(xs), min(ys), max(xs), max(ys))
    cx, cy = part.center
    r = part.radius
    return (cx - r, cy - r, cx + r, cy + r)


def _boxes_separated(a, b) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax1 <= bx0 or bx1 <= ax0 or ay1 <= by0 or by1 <= ay0


def _point_strictly_inside_polygon(pt: Point, poly: Polygon) -> bool:
    # Exact crossing-number test; boundary points count as outside.
    x, y = pt
    verts = poly.vertices
    n = len(verts)
    inside = False
    for i in range(n):
        (x1, y1), (x2, y2) = verts[i], verts[(i + 1) % n]
        if (min(x1, x2) <= x <= max(x1, x2)) and (min(y1, y2) <= y <= max(y1, y2)):
            cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if cross == 0:
                return False  # on the boundary
        if (y1 > y) != (y2 > y):
            # x-coordinate of the edge at height y, exactly
            t = (y - y1) / (y2 - y1)
            xi = x1 + t * (x2 - x1)
            if xi == x:
                return False
            if xi > x:
                inside = not inside
    return inside


def _dist_sq(p: Point, q: Point) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _segment_dist_sq_at_least(p1: Point, p2: Point, c: Point, rsq: Fraction) -> bool:
    """Exact test: squared distance from segment p1p2 to c is >= rsq."""
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    length_sq = dx * dx + dy * dy
    t_num = (c[0] - p1[0]) * dx + (c[1] - p1[1]) * dy
    if t_num <= 0:
        return _dist_sq(p1, c) >= rsq
    if t_num >= length_sq:
        return _dist_sq(p2, c) >= rsq
    # perpendicular distance^2 = cross^2 / |p2-p1|^2
    cross = dx * (c[1] - p1[1]) - dy * (c[0] - p1[0])
    return cross * cross >= rsq * length_sq


def _angular_ranges_disjoint(a: Sector, b: Sector) -> bool:
    # start values normalized into [0, 1); ranges may wrap.
    def covers(s: Sector):
        end = s.start + s.extent
        if end <= 1:
            return [(s.start, end)]
        return [(s.start, Fraction(1)), (Fraction(0), end - 1)]

    for (a0, a1) in covers(a):
        for (b0, b1) in covers(b):
            if a0 < b1 and b0 < a1:
                return False
    return True


def _certify_disjoint(a: RegionPart, b: RegionPart) -> None:
    if _boxes_separated(_bbox(a), _bbox(b)):
        return
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        raise NotDisjointError("polygon parts overlap or are not certified disjoint")
    if isinstance(a, Sector) and isinstance(b, Sector):
        if a.center == b.center and a.radius == b.radius:
            if _angular_ranges_disjoint(a, b):
                return
            raise NotDisjointError("sectors of the same disk overlap")
        if _dist_sq(a.center, b.center) >= (a.radius + b.radius) ** 2:
            return
        if a.is_full_disk and b.is_full_disk:
            raise NotDisjointError("disks overlap")
        raise NotDisjointError("sector placement undecidable for this constructor")
    poly, sect = (a, b) if isinstance(a, Polygon) else (b, a)
    rsq = sect.radius * sect.radius
    outside = all(
        _segment_dist_sq_at_least(
            poly.vertices[i],
            poly.vertices[(i + 1) % len(poly.vertices)],
            sect.center,
            rsq,
        )
        for i in range(len(poly.vertices))
    )
    if outside and not _point_strictly_inside_polygon(sect.center, poly):
        return
    if sect.is_full_disk:
        for pt in poly.vertices:
            if _dist_sq(pt, sect.center) < rsq:
                raise NotDisjointError("polygon vertex inside the disk")
        if _point_strictly_inside_polygon(sect.center, poly):
            raise NotDisjointError("disk center inside the polygon")
    raise NotDisjointError("polygon/sector placement undecidable for this constructor")


class Region:
    """Finite essentially-disjoint union of polygons and sectors."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ZeroMagnitudeError("region needs at least one part")
        for p in parts:
            if not isinstance(p, (Polygon, Sector)):
                raise DomainError(f"unsupported region part {p!r}")
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                _certify_disjoint(parts[i], parts[j])
        self.parts = parts

    def __repr__(self) -> str:
        return f"Region({len(self.parts)} parts)"


def region_content(x: Region) -> RealEnclosure:
    """Sum of part contents; a point enclosure for purely polygonal regions."""
    return magnitude_enclosure(region_magnitude(x))


class EtaResult(Enum):
    LEQ_CERTIFIED = "leq-certified"
    GT_CERTIFIED = "gt-certified"
    UNDECIDED = "undecided"


def region_eta(x: Region, y: Region, depth: int) -> EtaResult:
    """Certify the inner/outer-polygon pre-order: content(x) <= content(y)."""
    cx, cy = region_content(x), region_content(y)
    for d in range(depth + 1):
        ix, iy = cx.at(d), cy.at(d)
        if ix.hi <= iy.lo:
            return EtaResult.LEQ_CERTIFIED
        if ix.lo > iy.hi:
            return EtaResult.GT_CERTIFIED
    return EtaResult.UNDECIDED


class _RegionClassesOps(KindOps):
    kind = KindId.REGION_CLASSES

    def add(self, a, b):
        # classes add without placement: disjoint representatives always
        # exist after translation
        return _RegionClassValue(a.exact + b.exact, a.pi_factor + b.pi_factor)

    def kmul(self, n, a):
        return _RegionClassValue(n * a.exact, n * a.pi_factor)

    def sub(self, a, b):
        return _RegionClassValue(a.exact - b.exact, a.pi_factor - b.pi_factor)

    def enclosure(self, a):
        if a.pi_factor == 0:
            return RealEnclosure.from_fraction(a.exact, name="region")
        return RealEnclosure(
            lambda d: pi_interval(d).scale(a.pi_factor).shift(a.exact), name="region"
        )


@dataclass(frozen=True)
class _RegionClassValue:
    """Content as exact + pi_factor * pi: the whole value of a region class.

    The pair is closed under addition, integer multiples and subtraction, and
    two regions of equal content give equal values wherever they lie.
    """

    exact: Fraction
    pi_factor: Fraction


register_kind(_RegionClassesOps())


def region_magnitude(x: Region) -> Magnitude:
    exact = Fraction(0)
    factor = Fraction(0)
    for p in x.parts:
        if isinstance(p, Polygon):
            exact += content(p)
        else:
            factor += p.extent * p.radius * p.radius
    return Magnitude(KindId.REGION_CLASSES, _RegionClassValue(exact, factor))


# -- XII.2 --------------------------------------------------------------------


@dataclass(frozen=True)
class BranchScan:
    branch: str
    witnesses: tuple[tuple[int, int], ...]
    refuted_exact: int
    refuted_by_enclosure: int
    undecided: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Xii2Record:
    r1: Fraction
    r2: Fraction
    squares_ratio: Fraction
    contains_at_every_depth: bool
    ratio_interval: Interval
    branches: tuple[BranchScan, ...]
    exhaustion_steps: int
    search_bound: int

    @property
    def passed(self) -> bool:
        return self.contains_at_every_depth and all(
            not b.witnesses and not b.undecided for b in self.branches
        )

    @property
    def undecided(self) -> bool:
        return any(b.undecided for b in self.branches)

    def lines(self) -> list[str]:
        out = [
            f"circles r1={self.r1}, r2={self.r2}; squares-on-diameters ratio "
            f"{self.squares_ratio}",
            f"content-ratio enclosure {self.ratio_interval} contains it at every "
            f"refinement <= {self.exhaustion_steps}: {self.contains_at_every_depth}",
        ]
        for b in self.branches:
            out.append(
                f"branch {b.branch}: witnesses={list(b.witnesses)} "
                f"(refuted exactly: {b.refuted_exact}, by enclosure: "
                f"{b.refuted_by_enclosure}, undecided: {list(b.undecided)})"
            )
        return out


def xii2_verify(r1, r2, depth: int = 10, search_bound: int = 100) -> Xii2Record:
    """Verify Proposition XII.2 computationally for two circles.

    Certifies that the enclosure of the content ratio c1:c2 contains the
    exact squares-on-diameters ratio s1:s2 at every refinement up to depth,
    and refutes the four contradiction branches for every integer pair
    (n1, n2) with n1+n2 <= search_bound.  A pair witnesses branch (i) or
    (ii) only when its exact square comparison holds and the depth-``depth``
    content enclosures positively assert the strict circle inequality;
    similar inscribed polygons carry the exact ratio s1:s2 at every depth,
    which refutes these branches exactly.  Branches (iii) and (iv) need a
    circle equality that the exact square sign denies; the enclosures refute
    such a pair when they separate n1*c2 from n2*c1 and leave it undecided
    otherwise.

    No pair is visited one by one.  For fixed n1 every predicate is
    monotone in n2 and changes at one threshold: the exact sign of
    n1*r2^2 - n2*r1^2 at n2 = n1*r2^2/r1^2, the separation n1*c2 > n2*c1
    below n1*c2.lo/c1.hi and n2*c1 > n1*c2 above n1*c2.hi/c1.lo.  The
    counts are run lengths between these thresholds, found by integer
    floor divisions, and only the listed witnesses and undecided pairs are
    enumerated, in (n1, n2) order.  The scan costs O(search_bound + listed
    pairs) instead of O(search_bound^2).
    """
    r1, r2 = Fraction(r1), Fraction(r2)
    if r1 <= 0 or r2 <= 0:
        raise DomainError("radii must be positive")
    s1, s2 = 4 * r1 * r1, 4 * r2 * r2  # squares on the diameters
    target = s1 / s2
    if depth < 0:
        raise DomainError("depth must be non-negative")
    contains = True
    for d in range(depth + 1):  # the last pass leaves c1, c2 and ratio_iv at depth
        pi_iv = pi_interval(d)
        c1 = pi_iv.scale(r1 * r1)
        c2 = pi_iv.scale(r2 * r2)
        ratio_iv = c1 / c2
        if not ratio_iv.contains(target):
            contains = False

    # Trichotomy of n1*c2 vs n2*c1: the exact route compares n1*r2^2 with
    # n2*r1^2 (similar inscribed/circumscribed polygons scale exactly, the
    # XII.1 step), the enclosure route requires interval separation.  Since
    # s = 4r^2, each branch's square condition is an exact circle sign.  With
    # c1, c2 > 0 (pi > 3) and n2 in 1..top, top = search_bound - n1:
    #   diff = n1*r2^2 - n2*r1^2 > 0  iff  n2*eq < n1*ep,  ep/eq = r2^2/r1^2;
    #   sep_gt: n1*c2.lo > n2*c1.hi  iff  n2*gq < n1*gp,  gp/gq = c2.lo/c1.hi;
    #   sep_lt: n1*c2.hi < n2*c1.lo  iff  n2*hq > n1*hp,  hp/hq = c2.hi/c1.lo.
    # The witness runs of (i) and (ii) are empty while lo <= hi (a witness
    # would need pi's enclosure inverted), but are computed all the same.
    e, g, h = 1 / target, c2.lo / c1.hi, c2.hi / c1.lo
    ep, eq = e.numerator, e.denominator
    gp, gq = g.numerator, g.denominator
    hp, hq = h.numerator, h.denominator
    witnesses = ([], [])  # branches (i), (ii)
    refuted_exact = [0, 0]
    refuted_enc = [0, 0]  # branches (iii), (iv)
    undecided = ([], [])
    for n1 in range(1, search_bound):
        top = search_bound - n1
        floor_eq, off_line = divmod(n1 * ep, eq)
        n_pos = min(top, floor_eq if off_line else floor_eq - 1)  # diff > 0 on 1..n_pos
        n_nonneg = min(top, floor_eq)  # diff >= 0 on 1..n_nonneg, < 0 above
        gt_last = (n1 * gp - 1) // gq  # sep_gt iff n2 <= gt_last
        lt_first = n1 * hp // hq + 1  # sep_lt iff n2 >= lt_first

        # (i): diff <= 0 on n_pos+1..top, a witness where sep_gt holds
        lo, hi = n_pos + 1, min(top, gt_last)
        listed = max(0, hi - lo + 1)
        if listed:
            witnesses[0].extend((n1, n2) for n2 in range(lo, hi + 1))
        refuted_exact[0] += top - n_pos - listed
        # (ii): diff >= 0 on 1..n_nonneg, a witness where sep_lt holds
        lo, hi = max(1, lt_first), n_nonneg
        listed = max(0, hi - lo + 1)
        if listed:
            witnesses[1].extend((n1, n2) for n2 in range(lo, hi + 1))
        refuted_exact[1] += n_nonneg - listed
        # (iii): diff < 0 on n_nonneg+1..top, undecided where neither separates
        lo, hi = max(n_nonneg, gt_last) + 1, min(top, lt_first - 1)
        listed = max(0, hi - lo + 1)
        if listed:
            undecided[0].extend((n1, n2) for n2 in range(lo, hi + 1))
        refuted_enc[0] += top - n_nonneg - listed
        # (iv): diff > 0 on 1..n_pos, undecided where neither separates
        lo, hi = max(1, gt_last + 1), min(n_pos, lt_first - 1)
        listed = max(0, hi - lo + 1)
        if listed:
            undecided[1].extend((n1, n2) for n2 in range(lo, hi + 1))
        refuted_enc[1] += n_pos - listed

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


# -- region file format --------------------------------------------------------


def parse_region(text: str) -> Region:
    """One generator per line: "polygon: (x,y) (x,y) ..." or
    "sector: cx,cy,r,start,extent" with exact rational fields."""
    parts: list[RegionPart] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        head = head.strip().lower()
        if head == "polygon":
            verts = []
            for chunk in rest.replace("(", " ").replace(")", " ").split():
                x, _, y = chunk.partition(",")
                verts.append((parse_coordinate(x), parse_coordinate(y)))
            parts.append(Polygon(verts))
        elif head == "sector":
            fields = [parse_coordinate(tok) for tok in rest.split(",")]
            if len(fields) != 5:
                raise DomainError("sector line needs cx,cy,r,start,extent")
            cx, cy, r, start, extent = fields
            parts.append(Sector((cx, cy), r, start, extent))
        else:
            raise DomainError(f"unknown region generator {head!r}")
    return Region(parts)


def format_enclosure(iv: Interval) -> str:
    return f"[{iv.lo}, {iv.hi}] (width {iv.width})"
