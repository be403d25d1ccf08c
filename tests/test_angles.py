"""Angle construction, equivalence, the exact angle kind, and the measures."""

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import (
    assert_contains_value,
    carry_value_add,
    carry_value_sub,
    halved_sincos,
    outcome,
    per_depth_turn,
    ray_angle_equiv,
)
from eudoxos.angles import AngleValue, _value_add, _value_compare, _value_sub
from eudoxos.archimedes import HalvingChain, pi_interval, precision_denominator
from eudoxos.intervals import Interval


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


def _angle_values() -> list[AngleValue]:
    """Half-turns 0-3 with every primitive residual of |d|, x <= 9, or none."""
    residuals = [None] + [
        (d, x) for d in range(-9, 10) for x in range(1, 10) if gcd(abs(d), x) == 1
    ]
    return [AngleValue(h, r) for h in range(4) for r in residuals if (h, r) != (0, None)]


def _assert_not_greater(a: AngleValue, b: AngleValue) -> None:
    """Subtraction of angle magnitudes refuses a <= b, as ``kinds.sub`` words it."""
    x, y = E.Magnitude(E.KindId.ANGLES, a), E.Magnitude(E.KindId.ANGLES, b)
    with pytest.raises(E.NotGreaterError) as info:
        E.sub(x, y)
    assert str(info.value) == f"{a} is not greater than {b}"


class TestCarryReference:
    """Addition and subtraction share one carry; both give what the two
    carries gave where a > b, and the order refuses the rest."""

    def test_seeded_pairs(self):
        values = _angle_values()
        rng = random.Random(16)
        pairs = [(rng.choice(values), rng.choice(values)) for _ in range(6000)]
        # equal residuals reach the zero-angle and whole-half-turn branches
        pairs += [(a, AngleValue(h, a.residual)) for a in values[::7] for h in range(4)
                  if (h, a.residual) != (0, None)]
        subtracted = 0
        for a, b in pairs:
            assert _value_add(a, b) == carry_value_add(a, b)
            if _value_compare(a, b) is E.Comparison.GREATER:
                assert _value_sub(a, b) == carry_value_sub(a, b), (a, b)
                subtracted += 1
            else:
                _assert_not_greater(a, b)
                assert outcome(lambda: carry_value_sub(a, b))[1] is E.NotGreaterError
        assert 2000 < subtracted < len(pairs) - 2000

    def test_whole_half_turn_differences(self):
        for h in range(1, 4):
            a, b = AngleValue(h, (3, 4)), AngleValue(0, (3, 4))
            assert _value_sub(a, b) == carry_value_sub(a, b) == AngleValue(h, None)
        _assert_not_greater(AngleValue(1, (3, 4)), AngleValue(1, (3, 4)))


def _random_triple(rng: random.Random, grid: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    return [(rng.choice(grid), rng.choice(grid)) for _ in range(3)]


def _along(rng: random.Random, vertex, p):
    """A point on the ray from vertex through p, or on its opposite ray."""
    k = rng.choice([Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(-1), Fraction(-1, 3)])
    return (vertex[0] + k * (p[0] - vertex[0]), vertex[1] + k * (p[1] - vertex[1]))


class TestEquivReference:
    """Triple equivalence as equality of normalized angles answers, and
    raises, as the ray-by-ray test did."""

    def test_seeded_triple_pairs(self):
        grid = [Fraction(n, 2) for n in range(-4, 5)]
        rng = random.Random(16)
        verdicts = {True: 0, False: 0}
        for _ in range(6000):
            t1 = _random_triple(rng, grid)
            a, b, c = t1
            kind = rng.randrange(4)
            if kind == 0:  # a fresh triple
                t2 = _random_triple(rng, grid)
            elif kind == 1:  # shared vertex, arms moved along or across their rays
                t2 = [_along(rng, b, a), b, _along(rng, b, c)]
            elif kind == 2:  # shared vertex, arms swapped and moved
                t2 = [_along(rng, b, c), b, _along(rng, b, a)]
            else:  # shared vertex, one arm fresh
                t2 = [a, b, (rng.choice(grid), rng.choice(grid))]
            got = outcome(lambda: E.angle_equiv(t1, t2))
            assert got == outcome(lambda: ray_angle_equiv(t1, t2)), (t1, t2)
            if got[0] == "ok":
                verdicts[got[1]] += 1
        assert min(verdicts.values()) > 500


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
                E.arc_sup_b(E.Arc(r, angle=a)).at(depth).scale(1 / r)
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

    @pytest.mark.parametrize("windings", [0, 1])
    @pytest.mark.parametrize("p", [(0, 1), (3, 4), (2, 1), (1, 7), (-1, 3), (-5, 2)])
    def test_turn_enclosures_match_per_depth_oracle(self, p, windings):
        # a single query rounds exactly as fresh halvings at that depth's
        # denominator; walked and deepest-first queries lie inside them
        a = E.angle_from_points((1, 0), (0, 0), p, windings=windings)
        r = Fraction(7, 3)
        series = [
            (lambda: E.measure_m(a).value, 2 * windings, False, 1),
            (lambda: E.measure_mu(a).value, windings, True, 1),
            (lambda: E.arc_sup_b(E.Arc(r, angle=a)), 2 * r * windings, False, r),
        ]
        depths = range(17)
        for make, pi_multiple, sector, radius in series:
            oracle = [per_depth_turn(pi_multiple, a.direction(), sector, radius, d) for d in depths]
            assert [make().at(d) for d in depths] == oracle
            walked, deepest_first = make(), make()
            assert all(oracle[d].encloses(walked.at(d)) for d in depths)
            assert all(oracle[d].encloses(deepest_first.at(d)) for d in reversed(depths))

    @staticmethod
    def _count_halvings(monkeypatch) -> dict:
        from eudoxos import archimedes

        pi_interval(42)  # the pi table halves too; build it before counting
        calls = {"half_cos": 0, "half_sin": 0}

        def counted(name):
            fn = getattr(archimedes, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(archimedes, name, counted(name))
        return calls

    def test_walk_halves_linearly(self, monkeypatch):
        # one halving chain per enclosure: a walk to depth d halves O(d)
        # times, where recomputing every depth's chain costs O(d^2)
        calls = self._count_halvings(monkeypatch)
        m = E.measure_m(E.angle_from_points((1, 0), (0, 0), (2, 3)))
        for depth in range(41):
            m.at(depth)
        assert sum(calls.values()) <= 4 * 41

    def test_chain_computes_each_sine_once(self, monkeypatch):
        # sector bounds read levels d and d+1 of the chain: a walk computes
        # each level's sine once per chain build, not twice per depth (81),
        # and a point query still computes only the two sines it reads
        calls = self._count_halvings(monkeypatch)
        a = E.angle_from_points((1, 0), (0, 0), (2, 3))
        mu = E.measure_mu(a)
        for depth in range(41):
            mu.at(depth)
        assert calls["half_sin"] <= 48
        assert calls["half_cos"] == 104
        calls.update(half_cos=0, half_sin=0)
        E.measure_mu(a).at(40)
        assert calls == {"half_cos": 41, "half_sin": 2}

    @pytest.mark.parametrize("p", [(2, 3), (-5, 2)])
    def test_chain_cache_matches_recomputed_sines(self, monkeypatch, p):
        # walked and deepest-first series are the same intervals when every
        # (sin, cos) pair is recomputed from the chain's cos(t) on each read
        from eudoxos import archimedes

        class RecomputingChain(HalvingChain):
            def sincos(self, k):
                return halved_sincos(self._cos[0], k, self.den)

        a = E.angle_from_points((1, 0), (0, 0), p, windings=1)
        r = Fraction(7, 3)
        makers = [lambda: E.measure_mu(a).value, lambda: E.arc_sup_b(E.Arc(r, angle=a))]
        depths = range(20)

        def series():
            out = []
            for make in makers:
                walked, deepest_first = make(), make()
                out.append([walked.at(d) for d in depths])
                out.append([deepest_first.at(d) for d in reversed(depths)])
            return out

        cached = series()
        monkeypatch.setattr(archimedes, "HalvingChain", RecomputingChain)
        assert series() == cached

    def test_chain_rejects_negative_levels(self):
        den = 1 << 64
        cos0 = Interval(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            HalvingChain(cos0, den).sincos(-1)
        grown, fresh = HalvingChain(cos0, den), HalvingChain(cos0, den)
        grown.sincos(5)
        for k in (-1, -5, -6):
            with pytest.raises(ValueError):
                grown.sincos(k)
        assert all(k >= 0 for k in grown._sin)
        assert [grown.sincos(k) for k in range(7)] == [fresh.sincos(k) for k in range(7)]

    def test_shared_chain_under_threads(self):
        # readers racing on one chain may compute a level twice, but every
        # pair they read is the one a chain read alone gives
        import sys
        import threading

        den = precision_denominator(12)
        cos0 = Interval(Fraction(3, 5), Fraction(3, 5))
        expected = [HalvingChain(cos0, den).sincos(k) for k in range(30)]
        shared = HalvingChain(cos0, den)
        wrong = []

        def reader(seed):
            for i in range(200):
                k = (seed * 7 + i * 13) % 30
                if shared.sincos(k) != expected[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert set(shared._sin) <= set(range(30))

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
