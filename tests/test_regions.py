"""Exhaustion regions: certified pi, arcs, sectors, eta, and XII.2."""

import math
import time
from fractions import Fraction

import pytest

import eudoxos as E
from conftest import assert_contains_value

ARCHIMEDES_LOW = Fraction(3) + Fraction(10, 71)
ARCHIMEDES_HIGH = Fraction(3) + Fraction(1, 7)


class TestPiBounds:
    def test_96_gon_matches_archimedes(self):
        enc = E.pi_enclosure(4)
        assert enc.sides == 96
        assert ARCHIMEDES_LOW <= enc.lower and enc.upper <= ARCHIMEDES_HIGH

    def test_hexagon_start(self):
        p_lo, p_hi, a_lo, a_hi = E.inscribed_outer_bounds(1, 0)
        assert p_lo == 6  # inscribed hexagon side equals the radius
        assert p_hi <= 8 and a_hi <= 4  # circumscribed square caps
        assert E.pi_enclosure(0).lower >= 3

    def test_bounds_bracket_true_pi(self):
        for depth in range(0, 13, 3):
            enc = E.pi_enclosure(depth)
            assert float(enc.lower) < math.pi < float(enc.upper)

    def test_strict_nesting(self):
        prev = E.pi_enclosure(0)
        for depth in range(1, 13):
            cur = E.pi_enclosure(depth)
            assert prev.lower < cur.lower and cur.upper < prev.upper
            prev = cur

    def test_width_at_depth_12(self):
        assert E.pi_enclosure(10).width <= Fraction(1, 10**4)
        assert E.pi_enclosure(12).width <= Fraction(1, 10**4)

    def test_area_perimeter_bounds_scale_with_radius(self):
        r = Fraction(7, 3)
        p_lo, p_hi, a_lo, a_hi = E.inscribed_outer_bounds(r, 5)
        p1_lo, p1_hi, a1_lo, a1_hi = E.inscribed_outer_bounds(1, 5)
        assert p_lo == p1_lo * r and p_hi == p1_hi * r
        assert a_lo == a1_lo * r * r and a_hi == a1_hi * r * r

    def test_area_bounds_bracket_circle(self):
        _, _, a_lo, a_hi = E.inscribed_outer_bounds(1, 4)
        assert float(a_lo) < math.pi < float(a_hi)
        assert a_lo >= Fraction(3139, 1000) and a_hi <= Fraction(3146, 1000)


class TestArcs:
    def test_full_circle(self):
        arc = E.arc_sup_b(E.Arc.from_turns(1, 1))
        iv = arc.at(8)
        two_pi = E.pi_interval(8).scale(2)
        assert iv.intersects(two_pi)
        assert_contains_value(iv, 2 * math.pi)

    def test_quarter_circle_from_angle(self):
        arc = E.arc_sup_b(E.Arc.from_angle(1, E.right_angle()))
        assert_contains_value(arc.at(10), math.pi / 2)

    def test_empty_arc_rejected(self):
        with pytest.raises(E.EmptyArcError):
            E.Arc.from_turns(1, 0)

    def test_additivity(self):
        a1 = E.arc_sup_b(E.Arc.from_turns(1, Fraction(1, 8)))
        a2 = E.arc_sup_b(E.Arc.from_turns(1, Fraction(3, 8)))
        concat = E.arc_sup_b(E.Arc.from_turns(1, Fraction(1, 2)))
        d = 8
        assert concat.at(d).intersects(a1.at(d) + a2.at(d))

    def test_windings_in_angle_arcs(self):
        a = E.angle_from_points((1, 0), (0, 0), (0, 1), windings=1)
        iv = E.arc_sup_b(E.Arc.from_angle(1, a)).at(8)
        assert_contains_value(iv, 2 * math.pi + math.pi / 2)


class TestSectors:
    def test_quarter_disk(self):
        s = E.Sector((0, 0), 1, Fraction(0), Fraction(1, 4))
        assert_contains_value(E.sector_content(s).at(10), math.pi / 4)

    def test_half_disk_radius_two(self):
        s = E.Sector((0, 0), 2, Fraction(0), Fraction(1, 2))
        assert_contains_value(E.sector_content(s).at(10), 2 * math.pi)

    def test_full_disk_matches_pi(self):
        s = E.disk((0, 0), 1)
        assert E.sector_content(s).at(9).intersects(E.pi_interval(9))

    def test_two_sector_equals_r_times_arc(self):
        s = E.Sector((0, 0), Fraction(3, 2), Fraction(1, 8), Fraction(1, 3))
        arc = E.arc_sup_b(E.Arc.from_turns(Fraction(3, 2), Fraction(1, 3)))
        for d in range(0, 12, 3):
            two_sector = E.sector_content(s).at(d).scale(2)
            r_arc = arc.at(d).scale(Fraction(3, 2))
            assert two_sector.intersects(r_arc)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            E.Sector((0, 0), 1, Fraction(0), Fraction(3, 2))


class TestRegions:
    def test_single_polygon_point_content(self):
        reg = E.Region([E.unit_square()])
        enc = E.region_content(reg)
        assert enc.exact == 1
        assert enc.at(0).is_point()

    def test_square_plus_quarter_disk(self):
        wedge = E.Sector((10, 10), 1, Fraction(0), Fraction(1, 4))
        reg = E.Region([E.unit_square(), wedge])
        assert_contains_value(E.region_content(reg).at(10), 1 + math.pi / 4)

    def test_overlap_detected(self):
        with pytest.raises(E.NotDisjointError):
            E.Region([E.unit_square(), E.rectangle(1, 1, (Fraction(1, 2), 0))])

    def test_same_disk_sectors(self):
        s1 = E.Sector((0, 0), 1, Fraction(0), Fraction(1, 4))
        s2 = E.Sector((0, 0), 1, Fraction(1, 4), Fraction(1, 4))
        reg = E.Region([s1, s2])
        assert_contains_value(E.region_content(reg).at(10), math.pi / 2)
        with pytest.raises(E.NotDisjointError):
            E.Region([s1, E.Sector((0, 0), 1, Fraction(1, 8), Fraction(1, 4))])

    def test_touching_squares_allowed(self):
        reg = E.Region([E.unit_square(), E.rectangle(1, 1, (1, 0))])
        assert E.region_content(reg).exact == 2

    def test_undecidable_rejected(self):
        inner = E.Sector((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4), 0, Fraction(1, 3))
        with pytest.raises(E.NotDisjointError):
            E.Region([E.unit_square(), inner])

    def test_polygon_embedding_into_regions(self):
        for poly in (E.unit_square(), E.Polygon([(0, 0), (4, 0), (1, 3)])):
            reg = E.Region([poly])
            enc = E.region_content(reg)
            assert enc.exact == E.content(poly)

    def test_region_magnitude_kind(self):
        m1 = E.region_magnitude(E.Region([E.unit_square()]))
        m2 = E.region_magnitude(E.Region([E.disk((0, 0), 1)]))
        assert E.compare(m1, m2) is E.Comparison.LESS  # 1 < pi
        total = E.add(m1, m2)
        assert_contains_value(E.magnitude_enclosure(total).at(10), 1 + math.pi)
        with pytest.raises(E.NotGreaterError):
            E.sub(m1, m2)


class TestEta:
    def test_quarter_disk_below_unit_square(self):
        x = E.Region([E.Sector((0, 0), 1, Fraction(0), Fraction(1, 4))])
        y = E.Region([E.unit_square()])
        assert E.region_eta(x, y, 8) is E.EtaResult.LEQ_CERTIFIED

    def test_reflexive_at_depth_zero_for_polygons(self):
        x = E.Region([E.unit_square()])
        assert E.region_eta(x, x, 0) is E.EtaResult.LEQ_CERTIFIED

    def test_square_above_inscribed_disk(self):
        x = E.Region([E.unit_square()])
        y = E.Region([E.disk((Fraction(1, 2), Fraction(1, 2)), Fraction(1, 2))])
        assert E.region_eta(x, y, 8) is E.EtaResult.GT_CERTIFIED

    def test_equal_curved_contents_undecided(self):
        x = E.Region([E.Sector((0, 0), 1, Fraction(0), Fraction(1, 4))])
        y = E.Region([E.Sector((5, 5), 1, Fraction(0), Fraction(1, 4))])
        assert E.region_eta(x, y, 10) is E.EtaResult.UNDECIDED

    def test_zeta_symmetric_on_exact(self):
        x = E.Region([E.unit_square()])
        y = E.Region([E.rectangle(2, Fraction(1, 2), (5, 5))])
        assert E.region_eta(x, y, 0) is E.EtaResult.LEQ_CERTIFIED
        assert E.region_eta(y, x, 0) is E.EtaResult.LEQ_CERTIFIED


class TestXii2:
    def test_one_two(self):
        t0 = time.time()
        rec = E.xii2_verify(1, 2, depth=10, search_bound=100)
        assert time.time() - t0 < 10
        assert rec.squares_ratio == Fraction(1, 4)
        assert rec.contains_at_every_depth
        assert rec.passed
        for b in rec.branches:
            assert not b.witnesses and not b.undecided

    def test_two_three(self):
        rec = E.xii2_verify(2, 3, depth=10, search_bound=100)
        assert rec.squares_ratio == Fraction(4, 9)
        assert rec.passed

    def test_scaling_symmetry(self):
        rec = E.xii2_verify(1, 3, depth=6, search_bound=50)
        assert rec.squares_ratio == Fraction(1, 9)
        assert rec.contains_at_every_depth

    def test_branch_scan_counts(self):
        rec = E.xii2_verify(1, 2, depth=8, search_bound=40)
        scanned = sum(b.refuted_exact + b.refuted_by_enclosure for b in rec.branches)
        assert scanned > 0


class TestRegionFiles:
    def test_parse_round_trip(self):
        text = """
        # a region
        polygon: (0,0) (1,0) (1,1) (0,1)
        sector: 10,10,1,0,1/4
        """
        reg = E.parse_region(text)
        assert len(reg.parts) == 2
        assert_contains_value(E.region_content(reg).at(10), 1 + math.pi / 4)

    def test_bad_generator(self):
        with pytest.raises(ValueError):
            E.parse_region("blob: 1,2,3")

    def test_irrational_field_rejected(self):
        with pytest.raises(E.IrrationalVertexError):
            E.parse_region("sector: 0,0,sqrt(2),0,1/4")
