"""Polygons under equal-content equivalence (exact rational coordinates).

Content is the exact shoelace value; by the collapse of the dissection
equivalences onto equal content, ``rho1_equivalent`` is decided by comparing
contents.  Irrational coordinates never enter this kind: they belong to the
enclosure-backed regions instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .errors import (
    DegeneratePolygonError,
    DomainError,
    IrrationalVertexError,
    SelfIntersectionError,
)
from .kinds import Magnitude, polygon_class

Point = tuple[Fraction, Fraction]


def point(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def parse_coordinate(token: str) -> Fraction:
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError):
        raise IrrationalVertexError(
            f"coordinate {token.strip()!r} is not an exact rational"
        ) from None


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    """r collinear with pq assumed; is r within the closed segment box?"""
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Exact closed-segment intersection test."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


class Polygon:
    """Simple polygon, normalized to positive orientation."""

    __slots__ = ("vertices", "content_value")

    def __init__(self, vertices: Iterable):
        verts = [point(x, y) for (x, y) in vertices]
        if len(verts) < 3:
            raise DegeneratePolygonError("a polygon needs at least three vertices")
        # Every test runs on one integer frame: the vertices times the lcm of
        # their denominators.  Scaling by a positive integer keeps every
        # equality and every sign of a cross product.
        scale = math.lcm(*(c.denominator for v in verts for c in v))
        grid = [
            (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for x, y in verts
        ]
        succ = grid[1:] + grid[:1]
        if any(p == q for p, q in zip(grid, succ)):
            raise DegeneratePolygonError("coincident consecutive vertices")
        twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(grid, succ))
        if twice == 0:
            raise DegeneratePolygonError("polygon has zero content")
        if twice < 0:
            verts.reverse()
            grid.reverse()
        self._check_simple(grid)
        self.vertices: tuple[Point, ...] = tuple(verts)
        self.content_value = Fraction(abs(twice), 2 * scale * scale)

    @staticmethod
    def _check_simple(grid: list[tuple[int, int]]) -> None:
        n = len(grid)
        edges = list(zip(grid, grid[1:] + grid[:1]))
        boxes = [
            (min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1]))
            for p, q in edges
        ]
        for i in range(n):
            a1, a2 = edges[i]
            ax0, ax1, ay0, ay1 = boxes[i]
            for j in range(i + 1, n):
                b1, b2 = edges[j]
                if j == i + 1 or (i == 0 and j == n - 1):
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
                bx0, bx1, by0, by1 = boxes[j]
                if bx0 > ax1 or ax0 > bx1 or by0 > ay1 or ay0 > by1:
                    continue  # closed segments with disjoint boxes never meet
                if segments_intersect(a1, a2, b1, b2):
                    raise SelfIntersectionError(
                        f"edges {i} and {j} of the polygon intersect"
                    )

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        pts = ", ".join(f"({x},{y})" for x, y in self.vertices)
        return f"Polygon[{pts}]"


def content(p: Polygon) -> Fraction:
    """Exact content (strictly positive; additive over disjoint unions)."""
    return p.content_value


def rectangle(width, height, origin=(0, 0)) -> Polygon:
    w, h = Fraction(width), Fraction(height)
    ox, oy = Fraction(origin[0]), Fraction(origin[1])
    return Polygon([(ox, oy), (ox + w, oy), (ox + w, oy + h), (ox, oy + h)])


def unit_square() -> Polygon:
    return rectangle(1, 1)


def rectangle_normal_form(p: Polygon, side) -> tuple[Fraction, Fraction]:
    """Dimensions (l, content/l) of the content-equivalent rectangle on l."""
    side = Fraction(side)
    if side <= 0:
        raise DomainError("rectangle side must be positive")
    return (side, content(p) / side)


def rho1_equivalent(p: Polygon, q: Polygon) -> bool:
    """Equal content decides the dissection equivalence for polygons."""
    return content(p) == content(q)


def as_magnitude(p: Polygon) -> Magnitude:
    """The equal-content class of the polygon, as a magnitude of kind (iv)."""
    return polygon_class(content(p))


def transform(p: Polygon, rotation=(1, 0), translation=(0, 0)) -> Polygon:
    """Rational rigid motion; rotation must be an exact unit vector (c, s)."""
    c, s = Fraction(rotation[0]), Fraction(rotation[1])
    if c * c + s * s != 1:
        raise DomainError("rotation (c, s) must satisfy c^2 + s^2 = 1")
    dx, dy = Fraction(translation[0]), Fraction(translation[1])
    return Polygon(
        [(c * x - s * y + dx, s * x + c * y + dy) for (x, y) in p.vertices]
    )


def fan_triangles(p: Polygon) -> list[Polygon]:
    """Fan triangulation from vertex 0 (valid for convex polygons).

    A fan triangle of zero content (v0 collinear with the edge it spans)
    is left out, so the parts still sum to the polygon's content.
    """
    v = p.vertices
    return [
        Polygon([v[0], v[i], v[i + 1]])
        for i in range(1, len(v) - 1)
        if _cross(v[0], v[i], v[i + 1]) != 0
    ]


def parse_polygon(text: str) -> Polygon:
    """One vertex per line, coordinates as comma-separated fractions "p/q"."""
    verts = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IrrationalVertexError(f"vertex line {line!r} is not 'x,y'")
        verts.append((parse_coordinate(parts[0]), parse_coordinate(parts[1])))
    return Polygon(verts)


def format_polygon(p: Polygon) -> str:
    return "\n".join(f"{x},{y}" for x, y in p.vertices)
