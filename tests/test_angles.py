"""Angle construction, equivalence, the exact angle kind, and the measures."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import assert_contains_value
from eudoxos.angles import AngleValue
from eudoxos.archimedes import pi_interval


def angle_float(a: E.Angle) -> float:
    u, v = a.arm1, a.arm2
    return math.acos(
        (u[0] * v[0] + u[1] * v[1])
        / math.hypot(*u)
        / math.hypot(*v)
    )


class TestConstruction:
    def test_right_angle(self):
        a = E.angle_from_points((1, 0), (0, 0), (0, 1))
        assert a.direction() == (0, 1)

    def test_scaling_arms_is_identity(self):
        a = E.angle_from_points((2, 0), (0, 0), (0, 3))
        b = E.angle_from_points((1, 0), (0, 0), (0, 1))
        assert a == b

    def test_collinear_rejected(self):
        with pytest.raises(E.CollinearError):
            E.angle_from_points((1, 0), (0, 0), (2, 0))
        with pytest.raises(E.CollinearError):
            E.angle_from_points((1, 0), (0, 0), (-1, 0))  # straight angle

    def test_duplicate_rejected(self):
        with pytest.raises(E.DuplicatePointError):
            E.angle_from_points((1, 0), (0, 0), (1, 0))


class TestEquivalence:
    def test_swap_arms(self):
        assert E.angle_equiv(
            [(1, 0), (0, 0), (0, 1)], [(0, 1), (0, 0), (1, 0)]
        )

    def test_different_vertex(self):
        assert not E.angle_equiv(
            [(1, 0), (0, 0), (0, 1)], [(2, 1), (1, 1), (1, 2)]
        )

    def test_points_along_rays(self):
        assert E.angle_equiv(
            [(1, 0), (0, 0), (1, 1)], [(1, 0), (0, 0), (2, 2)]
        )

    def test_invalid_triples(self):
        with pytest.raises(E.CollinearError):
            E.angle_equiv([(1, 0), (0, 0), (3, 0)], [(1, 0), (0, 0), (0, 1)])


class TestAngleKind:
    def test_addition_is_direction_product(self):
        a45 = E.angle_magnitude(E.angle_from_points((1, 0), (0, 0), (1, 1)))
        total = E.add(a45, a45)
        assert total.payload == AngleValue(0, (0, 1))  # exactly the right angle

    def test_carry_into_half_turns(self):
        r = E.angle_magnitude(E.right_angle())
        two_rights = E.add(r, r)
        assert two_rights.payload == AngleValue(1, None)
        three = E.add(two_rights, r)
        assert three.payload == AngleValue(1, (0, 1))

    def test_windings_allowed_beyond_full_turn(self):
        turn = E.angle_magnitude(E.Angle.turns(1))
        assert turn.payload == AngleValue(2, None)
        more = E.add(turn, E.angle_magnitude(E.right_angle()))
        assert more.payload == AngleValue(2, (0, 1))

    def test_kmul_matches_repeated_add(self):
        a = E.angle_magnitude(E.angle_from_points((3, 0), (0, 0), (3, 4)))
        acc = a
        for n in range(2, 12):
            acc = E.add(acc, a)
            assert E.kmul(n, a) == acc

    def test_compare_total_and_exact(self):
        a30ish = E.angle_magnitude(E.angle_from_points((2, 0), (0, 0), (2, 1)))
        a45 = E.angle_magnitude(E.angle_from_points((1, 0), (0, 0), (1, 1)))
        assert E.compare(a30ish, a45) is E.Comparison.LESS
        assert E.compare(a45, a30ish) is E.Comparison.GREATER
        same = E.angle_magnitude(E.angle_from_points((5, 0), (0, 0), (5, 5)))
        assert E.compare(a45, same) is E.Comparison.EQUAL

    def test_sub_exact(self):
        r = E.angle_magnitude(E.right_angle())
        a45 = E.angle_magnitude(E.angle_from_points((1, 0), (0, 0), (1, 1)))
        diff = E.sub(r, a45)
        assert diff.payload == a45.payload
        with pytest.raises(E.NotGreaterError):
            E.sub(a45, r)

    def test_obtuse_directions(self):
        a135 = E.angle_magnitude(E.angle_from_points((1, 1), (0, 0), (-1, 0)))
        assert a135.payload.residual[0] < 0
        a45 = E.angle_magnitude(E.angle_from_points((1, 0), (0, 0), (1, 1)))
        assert E.compare(a45, a135) is E.Comparison.LESS

    def test_order_sum_link_on_angles(self):
        a30ish = E.angle_magnitude(E.angle_from_points((2, 0), (0, 0), (2, 1)))
        a45 = E.angle_magnitude(E.angle_from_points((1, 0), (0, 0), (1, 1)))
        z = E.sub(a45, a30ish)
        assert E.add(a30ish, z) == a45


class TestMeasures:
    def test_right_angle_measure(self):
        m = E.measure_m(E.right_angle()).at(12)
        pi_iv = pi_interval(12)
        # contains pi/2 certified through the pi enclosure
        assert m.intersects(pi_iv.scale(Fraction(1, 2)))
        assert m.width <= Fraction(1, 1000)
        assert_contains_value(m, math.pi / 2)

    def test_right_angle_mu(self):
        mu = E.measure_mu(E.right_angle()).at(12)
        assert_contains_value(mu, math.pi / 4)

    def test_full_turn_mu_is_pi(self):
        mu = E.measure_mu(E.Angle.turns(1)).at(10)
        assert_contains_value(mu, math.pi)

    def test_measure_against_atan2_oracle(self):
        for a in E.sample_acute_angles(12):
            m = E.measure_m(a).at(10)
            assert_contains_value(m, angle_float(a))

    def test_m_equals_two_mu_everywhere(self):
        for a in E.sample_acute_angles(8):
            for depth in (2, 6, 10):
                m = E.measure_m(a).at(depth)
                mu2 = E.measure_mu(a).at(depth).scale(2)
                assert m.intersects(mu2)

    def test_radius_independence(self):
        # arc over radius: the arc enclosure on radius r, scaled by 1/r
        a = E.angle_from_points((3, 0), (0, 0), (3, 4))
        for depth in (2, 6, 10):
            m1, m2 = (
                E.arc_sup_b(E.Arc.from_angle(r, a)).at(depth).scale(1 / r)
                for r in (Fraction(1), Fraction(7, 3))
            )
            assert m1.intersects(m2)

    def test_additivity_on_shared_arm(self):
        # (p, b, q) + (q, b, r) composes to (p, b, r)
        a1 = E.angle_from_points((1, 0), (0, 0), (1, 1))
        a2 = E.angle_from_points((1, 1), (0, 0), (0, 1))
        total = E.angle_from_points((1, 0), (0, 0), (0, 1))
        assert E.add(E.angle_magnitude(a1), E.angle_magnitude(a2)).payload == (
            E.angle_magnitude(total).payload
        )
        d = 10
        sum_iv = E.measure_m(a1).at(d) + E.measure_m(a2).at(d)
        assert E.measure_m(total).at(d).intersects(sum_iv)

    def test_monotone_with_angle(self):
        small = E.angle_from_points((3, 0), (0, 0), (3, 1))
        large = E.angle_from_points((3, 0), (0, 0), (3, 2))
        d = 10
        assert E.measure_m(small).at(d).hi < E.measure_m(large).at(d).lo
        assert E.sin_geometric(small).at(d).hi < E.sin_geometric(large).at(d).lo

    def test_nested_in_depth(self):
        a = E.angle_from_points((5, 0), (0, 0), (3, 4))
        m = E.measure_m(a)
        prev = m.at(0)
        for depth in range(1, 12):
            cur = m.at(depth)
            assert prev.encloses(cur)
            prev = cur

    def test_unit_conversions(self):
        m = E.measure_m(E.right_angle())
        in_e = E.convert_measure(m, E.AngleUnit.E)
        assert_contains_value(in_e.at(10), math.pi / 4)
        in_right = E.convert_measure(m, E.AngleUnit.RIGHT_ANGLE)
        assert_contains_value(in_right.at(10), 1.0)


angle_arms = st.sampled_from(
    [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1), (3, 1), (1, 3)]
)


@st.composite
def angle_values(draw):
    u = draw(angle_arms)
    v = draw(angle_arms)
    if u[0] * v[1] - u[1] * v[0] == 0:
        v = (v[1] + 1, v[0] + 2)  # perturb away from collinearity
        if u[0] * v[1] - u[1] * v[0] == 0:
            v = (v[0] + 1, v[1])
    w = draw(st.integers(min_value=0, max_value=2))
    return E.angle_magnitude(E.angle_from_points(u, (0, 0), v, windings=w))


@given(angle_values(), angle_values(), angle_values())
def test_angle_addition_laws(x, y, z):
    assert E.add(x, y) == E.add(y, x)
    assert E.add(E.add(x, y), z) == E.add(x, E.add(y, z))


@given(angle_values(), angle_values())
def test_angle_sub_round_trip(x, y):
    total = E.add(x, y)
    assert E.sub(total, y) == x
    assert E.sub(total, x) == y


@given(angle_values(), angle_values())
def test_angle_compare_consistent_with_measures(x, y):
    cmp = E.compare(x, y)
    if cmp is E.Comparison.EQUAL:
        assert x.payload == y.payload
        return
    d = 8
    ix = E.magnitude_enclosure(x).at(d)
    iy = E.magnitude_enclosure(y).at(d)
    mid_x = (ix.lo + ix.hi) / 2
    mid_y = (iy.lo + iy.hi) / 2
    assert (mid_x < mid_y) == (cmp is E.Comparison.LESS)


def test_unit_relation_report():
    report = E.unit_relation_check(depth=12)
    assert report.passed
    assert len(report.entries) == 20
    assert all(e.overlap_margin > 0 for e in report.entries)
