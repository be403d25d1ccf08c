"""Polygon content: shoelace oracle, dissection-equivalence laws, rigid motions."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import eudoxos as E
from conftest import ShoelacePolygon, random_convex_polygon, shoelace
from eudoxos.polygons import as_magnitude
from eudoxos.ratios import exact_value

PYTHAGOREAN_ROTATIONS = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(-4, 5), Fraction(3, 5)),
    (Fraction(8, 17), Fraction(-15, 17)),
]


def test_content_examples():
    assert E.content(E.unit_square()) == 1
    assert E.content(E.Polygon([(0, 0), (1, 0), (0, 1)])) == Fraction(1, 2)
    # shoelace oracle by hand: box 4x3 minus right triangles 6+2+... = 6
    assert E.content(E.Polygon([(0, 0), (4, 0), (1, 3)])) == 6


def test_orientation_normalized():
    cw = E.Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert E.content(cw) == 1


def test_degenerate_rejected():
    with pytest.raises(E.DegeneratePolygonError):
        E.Polygon([(0, 0), (1, 0)])
    with pytest.raises(E.DegeneratePolygonError):
        E.Polygon([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(E.SelfIntersectionError):
        E.Polygon([(0, 0), (3, 1), (1, 0), (0, 2)])  # crossing edges


def test_fold_back_rejected():
    # edge (2,0)->(1,0) runs back along edge (0,0)->(2,0)
    with pytest.raises(E.SelfIntersectionError, match="edge folds back on its neighbour"):
        E.Polygon([(0, 0), (2, 0), (1, 0), (1, 1)])


def test_coincident_consecutive_vertices_rejected():
    with pytest.raises(E.DegeneratePolygonError, match="coincident consecutive vertices"):
        E.Polygon([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_non_adjacent_edges_touching_at_a_vertex_rejected():
    # two triangles meeting at (1, 1): edges 1 and 4 share only that point,
    # and their bounding boxes only touch at it
    with pytest.raises(E.SelfIntersectionError, match="edges 1 and 4 of the polygon intersect"):
        E.Polygon([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)])


def test_irrational_vertex_rejected():
    # the unit-side equilateral triangle needs sqrt(3)/2, which is not rational
    with pytest.raises(E.IrrationalVertexError):
        E.parse_polygon("0,0\n1,0\n1/2,sqrt(3)/2")


def test_rectangle_normal_form():
    assert E.rectangle_normal_form(E.unit_square(), 2) == (2, Fraction(1, 2))
    tri = E.Polygon([(0, 0), (1, 0), (0, 1)])
    assert E.rectangle_normal_form(tri, 1) == (1, Fraction(1, 2))
    hexa = E.Polygon([(0, 0), (4, 0), (1, 3)])
    assert E.rectangle_normal_form(hexa, Fraction(3, 2)) == (Fraction(3, 2), 4)


def test_rho1_examples():
    assert E.rho1_equivalent(E.unit_square(), E.rectangle(2, Fraction(1, 2)))
    assert E.rho1_equivalent(E.unit_square(), E.Polygon([(0, 0), (2, 0), (0, 1)]))
    assert not E.rho1_equivalent(E.unit_square(), E.Polygon([(0, 0), (1, 0), (0, 1)]))


def test_compare_content():
    sq, tri = E.unit_square(), E.Polygon([(0, 0), (1, 0), (0, 1)])
    assert E.compare(as_magnitude(sq), as_magnitude(tri)) is E.Comparison.GREATER
    assert E.compare(as_magnitude(sq), as_magnitude(sq)) is E.Comparison.EQUAL
    a = E.rectangle(Fraction(2, 3), 1)
    b = E.rectangle(Fraction(3, 4), 1)
    assert E.compare(as_magnitude(a), as_magnitude(b)) is E.Comparison.LESS


def test_additivity_on_random_fans(rng):
    for _ in range(40):
        poly = random_convex_polygon(rng)
        parts = E.fan_triangles(poly)
        assert sum(E.content(t) for t in parts) == E.content(poly)


def test_fan_of_convex_polygon_with_a_straight_vertex():
    # v0, v1 and v2 are collinear: that fan triangle has zero content
    poly = E.Polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
    parts = E.fan_triangles(poly)
    assert len(parts) == 2
    assert sum(E.content(t) for t in parts) == E.content(poly) == 4


def test_congruence_invariance(rng):
    for _ in range(25):
        poly = random_convex_polygon(rng)
        for rot in PYTHAGOREAN_ROTATIONS:
            moved = E.transform(poly, rotation=rot, translation=(Fraction(7, 3), -2))
            assert E.content(moved) == E.content(poly)


def test_bad_rotation_rejected():
    with pytest.raises(ValueError):
        E.transform(E.unit_square(), rotation=(Fraction(1, 2), Fraction(1, 2)))


def test_rectangle_bridge_ratio():
    # ratio of the rectangle (a, b) to the unit square is the product of a:1 and b:1
    a, b = Fraction(3, 2), Fraction(5, 7)
    rect = E.rectangle(a, b)
    bridge = E.ratio(E.polygon_class(E.content(rect)), E.polygon_class(E.content(E.unit_square())))
    prod = E.mul_ratio(E.rational_ratio(a), E.rational_ratio(b))
    assert E.eq_E(bridge, prod, 60).is_proportional
    assert exact_value(bridge) == a * b


def test_parse_and_format_round_trip():
    poly = E.Polygon([(0, 0), (Fraction(3, 2), 0), (1, Fraction(5, 7))])
    text = E.polygons.format_polygon(poly) if hasattr(E, "polygons") else None
    from eudoxos.polygons import format_polygon, parse_polygon

    assert parse_polygon(format_polygon(poly)).vertices == poly.vertices


def test_polygon_magnitude_kind():
    m = E.polygon_class(E.content(E.unit_square()))
    assert m.kind is E.KindId.POLYGON_CLASSES
    assert E.compare(m, E.polygon_class(Fraction(1, 2))) is E.Comparison.GREATER


# -- the integer frame against the Fraction reference -------------------------------

def _outcome(build, measure, verts):
    """(vertices, content) of the polygon, or (error class, message)."""
    try:
        poly = build(verts)
    except E.EudoxosError as err:
        return type(err), str(err)
    return poly.vertices, measure(poly)


def _assert_matches_reference(verts) -> str:
    """Assert the outcome equals the Fraction reference's; name the outcome."""
    got = _outcome(E.Polygon, E.content, verts)
    want = _outcome(ShoelacePolygon, lambda p: shoelace(p.vertices), verts)
    assert got == want, verts
    if isinstance(want[1], str):
        return want[1] if "intersect" not in want[1] else "edges intersect"
    return "built"


# Hand-picked cases; each comment names the branch it reaches.
FRAME_CASES = [
    [(0, 0), (1, 0)],  # fewer than three vertices
    [(0, 0), (4, 0), (1, 3)],  # triangle
    [(0, 0), (0, 1), (1, 1), (1, 0)],  # clockwise input
    [(0, 0), (3, 1), (1, 0), (0, 2)],  # crossing edges
    [(0, 0), (2, 0), (1, 0), (1, 1)],  # fold-back of adjacent edges
    [(0, 0), (2, 0), (2, -1), (3, 0)],  # fold-back of the wrap pair i = 0, j = n-1
    [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],  # non-adjacent edges touch at a vertex
    [(0, 0), (4, 0), (4, 4), (2, 0)],  # a vertex on a non-adjacent edge
    [(0, 0), (1, 0), (1, 0), (0, 1)],  # coincident consecutive vertices
    [(0, 0), (1, 1), (0, 0), (1, 0)],  # coincident across the wrap
    [(0, 0), (1, 0), (2, 0)],  # zero content
    [(0, 0), (2, 0), (2, 2), (0, 2), (0, 0), (2, 2)],  # zero content, not coincident
    [(Fraction(1, 2**55), 0), (1, Fraction(1, 3)), (Fraction(-2, 7), Fraction(5, 2**55))],
    [(0.5, 0.25), (1, 0), (2, 0.75)],  # float coordinates are exact dyadic rationals
]


@pytest.mark.parametrize("verts", FRAME_CASES)
def test_frame_matches_reference_on_named_cases(verts):
    _assert_matches_reference(verts)


_DENOMINATORS = (1, 2, 3, 7, 12, 65521, 2**55, 3**40)


def _affine(rng: random.Random):
    """A rational affine map with mixed and large denominators."""
    def coeff():
        return Fraction(rng.randint(-9, 9), rng.choice(_DENOMINATORS))

    while True:
        a, b, c, d = coeff(), coeff(), coeff(), coeff()
        if a * d - b * c != 0:
            e, f = coeff(), coeff()
            return lambda x, y: (a * x + b * y + e, c * x + d * y + f)


def _lattice_walk(rng: random.Random) -> list[tuple[int, int]]:
    """Three to nine lattice points on a small grid: mostly crossings, touches,
    fold-backs, coincidences and collinear runs, some simple polygons."""
    span = rng.choice((1, 2, 3, 6))
    return [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(rng.randint(3, 9))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frame_matches_reference_on_lattice_polygons(seed):
    rng = random.Random(f"frame-lattice-{seed}")
    seen = Counter(_assert_matches_reference(_lattice_walk(rng)) for _ in range(600))
    for _ in range(60):
        verts = list(random_convex_polygon(rng).vertices)
        seen[_assert_matches_reference(verts)] += 1
        seen[_assert_matches_reference(verts[::-1])] += 1  # clockwise
    assert set(seen) == {
        "built",
        "edges intersect",
        "edge folds back on its neighbour",
        "coincident consecutive vertices",
        "polygon has zero content",
    }, seen


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frame_matches_reference_on_rational_polygons(seed):
    rng = random.Random(f"frame-rational-{seed}")
    seen = Counter()
    for _ in range(300):
        # An affine image keeps every touch, fold and coincidence of the
        # lattice walk, at mixed denominators up to 3**40 and clockwise when
        # the map reflects.
        move = _affine(rng)
        seen[_assert_matches_reference([move(x, y) for x, y in _lattice_walk(rng)])] += 1
        # Independent denominators per coordinate.
        n = rng.randint(3, 7)
        verts = [
            (Fraction(rng.randint(-50, 50), rng.choice(_DENOMINATORS)),
             Fraction(rng.randint(-50, 50), rng.choice(_DENOMINATORS)))
            for _ in range(n)
        ]
        seen[_assert_matches_reference(verts)] += 1
    assert len(seen) == 5, seen


def _primes_below(limit: int, count: int) -> list[int]:
    """The count largest primes below limit, by trial division."""
    primes, k = [], limit - 1
    while len(primes) < count:
        if all(k % d for d in range(2, math.isqrt(k) + 1)):
            primes.append(k)
        k -= 1
    return primes


def prime_denominator_polygon(sides: int = 128) -> list[tuple[Fraction, Fraction]]:
    """A convex polygon on a circle of radius 1000 whose 2·sides coordinates
    have distinct prime denominators of about 16 bits."""
    primes = _primes_below(1 << 16, 2 * sides)
    verts = []
    for k in range(sides):
        p, q = primes[2 * k], primes[2 * k + 1]
        t = 2 * math.pi * (k + 0.5) / sides
        verts.append((Fraction(round(1000 * math.cos(t) * p), p),
                      Fraction(round(1000 * math.sin(t) * q), q)))
    return verts


def test_frame_matches_reference_on_prime_denominator_128_gon():
    verts = prime_denominator_polygon()
    assert len({c.denominator for v in verts for c in v}) == 256
    assert _assert_matches_reference(verts) == "built"
