"""Geometric sine, the asin integral, analytic sine/cosine, and the limit."""

import math
import os
import random
import sys
import threading
from fractions import Fraction

import pytest

import eudoxos as E
from conftest import (
    assert_contains_value,
    bisect_root,
    bisection_sin_eval,
    foot_sin_geometric,
    riemann_asin,
)
from eudoxos import angles
from eudoxos.angles import _sin_eval
from eudoxos.archimedes import pi_interval
from eudoxos.enclosures import RealEnclosure
from eudoxos.intervals import Interval


def pi_times(q: Fraction) -> RealEnclosure:
    return RealEnclosure(lambda d: pi_interval(d).scale(q))


class TestGeometricSine:
    def test_three_four_five_exact(self):
        a = E.angle_from_points((5, 0), (0, 0), (3, 4))
        s = E.sin_geometric(a)
        assert s.exact == Fraction(4, 5)
        assert s.at(0).is_point()

    def test_forty_five_degrees(self):
        a = E.angle_from_points((1, 0), (0, 0), (1, 1))
        iv = E.sin_geometric(a).at(14)
        lo, hi = bisect_root(Fraction(1, 2), 12)  # 1/sqrt(2)
        assert iv.lo <= hi and lo <= iv.hi
        assert iv.width < Fraction(1, 10**10)

    def test_right_angle_not_acute(self):
        with pytest.raises(E.NotAcuteError):
            E.sin_geometric(E.right_angle())

    def test_obtuse_not_acute(self):
        with pytest.raises(E.NotAcuteError):
            E.sin_geometric(E.angle_from_points((1, 1), (0, 0), (-1, 0)))

    def test_direction_matches_the_perpendicular_foot(self):
        # 10 000 seeded acute angles, lattice arms from rational vertices: the
        # same exact value as the foot construction, and the same interval at
        # every depth 0-20
        rng = random.Random(19)
        checked = exact = 0
        while checked < 10_000:
            u = (rng.randint(-12, 12), rng.randint(-12, 12))
            v = (rng.randint(-12, 12), rng.randint(-12, 12))
            if u[0] * v[0] + u[1] * v[1] <= 0 or u[0] * v[1] == u[1] * v[0]:
                continue
            bx, by = (Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(2))
            k, l = (Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2))
            a = E.angle_from_points((bx + k * u[0], by + k * u[1]), (bx, by), (bx + l * v[0], by + l * v[1]))
            got, want = E.sin_geometric(a), foot_sin_geometric(a)
            assert got.exact == want.exact, a
            assert [got.at(d) for d in range(21)] == [want.at(d) for d in range(21)], a
            checked += 1
            exact += got.exact is not None
        assert exact > 0  # both branches ran


class TestAsinIntegral:
    def test_half_matches_math_oracle(self):
        iv = E.asin_integral(Fraction(1, 2)).at(12)
        assert_contains_value(iv, math.asin(0.5))
        assert_contains_value(iv, math.pi / 6)

    def test_inv_sqrt2_gives_quarter_pi(self):
        iv = E.asin_integral(E.SqrtRational(Fraction(1, 2))).at(14)
        assert_contains_value(iv, math.pi / 4)
        assert iv.width <= Fraction(1, 1000)
        doubled = iv.scale(2)
        assert doubled.intersects(pi_interval(14).scale(Fraction(1, 2)))

    def test_domain_errors(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(E.DomainError):
                E.asin_integral(bad)

    def test_complement_branch(self):
        # x = 4/5 > 1/sqrt(2): asin(4/5) = pi/2 - asin(3/5)
        iv = E.asin_integral(Fraction(4, 5)).at(12)
        assert_contains_value(iv, math.asin(0.8))

    def test_monotone_in_x(self):
        xs = [Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)]
        d = 10
        ivs = [E.asin_integral(x).at(d) for x in xs]
        for a, b in zip(ivs, ivs[1:]):
            assert a.lo < b.hi  # weak order; strict on midpoints
        mids = [(iv.lo + iv.hi) / 2 for iv in ivs]
        assert mids == sorted(mids)

    def test_nested_in_depth(self):
        enc = E.asin_integral(Fraction(1, 3))
        prev = enc.at(2)
        for d in (4, 6, 8, 10):
            cur = enc.at(d)
            assert prev.encloses(cur)
            prev = cur


ASIN_GRID = [
    Fraction(1, 2**60), Fraction(1, 2**30), Fraction(1, 1000),
    Fraction(1, 3), Fraction(1, 2), Fraction(7, 10), Fraction(4, 5),
    Fraction(9, 10), Fraction(99, 100),
    E.SqrtRational(Fraction(1, 2)), E.SqrtRational(Fraction(1, 3)),
    E.SqrtRational(Fraction(2, 3)), E.SqrtRational(Fraction(1, 2**40)),
]


class TestAsinMemo:
    def test_a_memo_cleared_after_the_store_still_answers(self, monkeypatch):
        # another thread may clear the memo between the store and a read of it
        class ClearedOnStore(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.clear()

        monkeypatch.setattr(angles, "_ASIN_MEMO", ClearedOnStore())
        x = Fraction(1, 3)
        assert angles._asin_at(x).at(4) == E.asin_integral(x).at(4)

    def test_threads_clearing_the_memo(self, monkeypatch):
        # more threads than cores fill the memo past its cap, so it is cleared
        # while others store and read; every answer is the asin of its own x
        monkeypatch.setattr(angles, "_ASIN_MEMO", {})
        workers = (os.cpu_count() or 1) + 2
        per_worker = 12_000 // workers + 1
        errors, wrong = [], []

        def reader(seed):
            try:
                for i in range(per_worker):
                    x = Fraction(seed * per_worker + i + 1, 1 << 16)
                    enc = angles._asin_at(x)
                    if i % 500 == 0 and enc.at(0) != E.asin_integral(x).at(0):
                        wrong.append(x)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []


class TestAsinSeries:
    @pytest.mark.parametrize("x", ASIN_GRID, ids=str)
    def test_never_wider_than_riemann_sum(self, x):
        for d in range(15):
            series = E.asin_integral(x).at(d)
            cells = riemann_asin(x, d)
            assert series.intersects(cells), (d, series, cells)
            assert series.width <= cells.width, d

    def test_deep_query_beyond_any_cell_count(self):
        # the Riemann sum would need 2^60 cells here
        iv = E.asin_integral(E.SqrtRational(Fraction(1, 2))).at(60)
        assert iv.width <= Fraction(1, 2**150)
        assert iv.scale(4).intersects(pi_interval(60))


class TestTrigPrecision:
    """Widths only, no timing.  These arguments have sines near short dyadics
    (cos 29 = -0.748..., sin 11/3 = sin 0.525... = 0.501...), where a
    bisection whose probes cannot separate keeps a coarse bracket."""

    STALLED = [
        (E.cos_analytic, Fraction(29)),
        (E.sin_analytic, Fraction(11, 3)),
        (E.sin_analytic, Fraction(18)),
    ]

    @pytest.mark.parametrize("fn, x", STALLED, ids=lambda v: getattr(v, "__name__", str(v)))
    def test_no_stall_at_depth_12(self, fn, x):
        assert fn(x).at(12).width <= Fraction(1, 2**12)

    @pytest.mark.parametrize(
        "fn, x",
        STALLED + [(E.sin_analytic, Fraction(1)), (E.cos_analytic, Fraction(1))],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_53_bits_at_depth_53(self, fn, x):
        iv = fn(x).at(53)
        assert iv.width <= Fraction(1, 2**53)
        ref = math.sin if fn is E.sin_analytic else math.cos
        assert_contains_value(iv, ref(float(x)))

    @pytest.mark.parametrize(
        "fn, x",
        [(E.sin_analytic, Fraction(1)), (E.cos_analytic, Fraction(29)),
         (E.sin_analytic, Fraction(11, 3))],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_100_bits_at_depth_100(self, fn, x):
        # each reduces its argument by pi, which once stopped near 2^-60
        iv = fn(x).at(100)
        assert iv.width <= Fraction(1, 2**100)
        ref = math.sin if fn is E.sin_analytic else math.cos
        assert_contains_value(iv, ref(float(x)))


class TestAnalyticSine:
    def test_zero(self):
        assert E.sin_analytic(Fraction(0)).at(8).is_point()
        assert E.sin_analytic(Fraction(0)).at(8).lo == 0

    def test_pi_sixth_is_half(self):
        iv = E.sin_analytic(pi_times(Fraction(1, 6))).at(10)
        assert iv.lo <= Fraction(1, 2) <= iv.hi

    def test_pi_half_is_one(self):
        iv = E.sin_analytic(pi_times(Fraction(1, 2))).at(10)
        assert iv.lo <= 1 <= iv.hi
        assert iv.lo > Fraction(99, 100)

    def test_reflection_and_sign(self):
        # sin(3pi/4) = sin(pi/4) > 0; sin(5pi/4) < 0
        pos = E.sin_analytic(pi_times(Fraction(3, 4))).at(10)
        assert_contains_value(pos, math.sin(3 * math.pi / 4))
        neg = E.sin_analytic(pi_times(Fraction(5, 4))).at(10)
        assert_contains_value(neg, math.sin(5 * math.pi / 4))
        assert neg.hi < 0

    def test_periodicity(self):
        iv = E.sin_analytic(pi_times(Fraction(13, 6))).at(10)  # 2pi + pi/6
        assert_contains_value(iv, 0.5)

    def test_rational_arguments_against_oracle(self):
        for x in (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(5), Fraction(7, 2)):
            iv = E.sin_analytic(x).at(10)
            assert_contains_value(iv, math.sin(float(x)))

    def test_negative_rational_rejected(self):
        with pytest.raises(E.DomainError):
            E.sin_analytic(Fraction(-1, 2))

    def test_argument_wider_than_a_turn(self, monkeypatch):
        # a turn or more covers every value of sin, so no asin series is summed
        monkeypatch.setattr(angles, "_asin_at", lambda x: pytest.fail("asin evaluated"))
        wide = RealEnclosure(lambda d: Interval(Fraction(0), Fraction(7)))
        assert E.sin_analytic(wide).at(4) == Interval(Fraction(-1), Fraction(1))


class TestAnalyticCosine:
    def test_zero_is_one(self):
        iv = E.cos_analytic(Fraction(0)).at(10)
        assert iv.lo <= 1 <= iv.hi and iv.lo > Fraction(99, 100)

    def test_pi_third_is_half(self):
        iv = E.cos_analytic(pi_times(Fraction(1, 3))).at(10)
        assert iv.lo <= Fraction(1, 2) <= iv.hi

    def test_pythagorean_at_pi_fifth(self):
        x = pi_times(Fraction(1, 5))
        d = 10
        s, c = E.sin_analytic(x).at(d), E.cos_analytic(x).at(d)
        square_sum = s * s + c * c
        assert square_sum.contains(1)


class TestBisectionReference:
    """One bisection for both bounds gives every interval the mirrored pair gave."""

    def test_intervals_near_multiples_of_quarter_pi(self):
        # the crests, troughs and zeros of sin, where the deleted settle loop
        # and crest/trough pass would have acted
        rng = random.Random(12)
        pi = Fraction(math.pi)
        for _ in range(2000):
            offset = Fraction(rng.uniform(-1, 1)) / 10 ** rng.randint(1, 12)
            centre = rng.randint(0, 24) * pi / 4 + offset
            half = Fraction(rng.randint(1, 99), 10 ** rng.randint(2, 13))
            iv = Interval(centre - half, centre + half)
            dep = rng.randint(0, 14)
            assert _sin_eval(iv, dep) == bisection_sin_eval(iv, dep), (iv, dep)

    def test_rationals_at_one_depth(self):
        rng = random.Random(13)
        for _ in range(200):
            x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
            d = rng.randint(0, 40)
            point = Interval.point(x)
            shifted = point + pi_interval(d + 2).scale(Fraction(1, 2))
            assert E.sin_analytic(x).at(d) == bisection_sin_eval(point, d), (x, d)
            assert E.cos_analytic(x).at(d) == bisection_sin_eval(shifted, d), (x, d)

    @pytest.mark.parametrize("q", range(1, 49))
    def test_walked_multiples_of_pi_twelfth(self, q):
        x = pi_times(Fraction(q, 12))
        walked = E.sin_analytic(x)
        reference = RealEnclosure(lambda d: bisection_sin_eval(x.at(d), d))
        for d in range(28):
            assert walked.at(d) == reference.at(d), d


class TestRoundTrip:
    def test_explication_on_sampled_angles(self):
        for a in E.sample_acute_angles(6):
            analytic = E.sin_analytic(E.measure_m(a)).at(10)
            geometric = E.sin_geometric(a).at(10)
            assert analytic.intersects(geometric)


class TestCelebratedLimit:
    def test_halving_sequence_report(self):
        report = E.celebrated_limit_check(depth=12)
        assert report.passed
        assert len(report.entries) == 9
        first = report.entries[0].ratio
        # value (1/sqrt2)/(pi/4) = 0.90032...
        assert_contains_value(first, (1 / math.sqrt(2)) / (math.pi / 4))
        assert first.lo > Fraction(9002, 10000) - Fraction(1, 1000)

    def test_explicit_angle_list(self):
        angles = [
            E.angle_from_points((1, 0), (0, 0), (1, 1)),
            E.angle_from_points((2, 0), (0, 0), (2, 1)),
            E.angle_from_points((4, 0), (0, 0), (4, 1)),
            E.angle_from_points((8, 0), (0, 0), (8, 1)),
        ]
        report = E.celebrated_limit_check(angles=angles, depth=12, tolerance=Fraction(1, 10))
        assert report.lower_bounds_monotone
        for entry, a in zip(report.entries, angles):
            u, v = a.arm1, a.arm2
            theta = math.acos(
                (u[0] * v[0] + u[1] * v[1]) / math.hypot(*u) / math.hypot(*v)
            )
            assert_contains_value(entry.ratio, math.sin(theta) / theta)

    def test_ratios_certified_below_one(self):
        report = E.celebrated_limit_check(depth=12)
        assert all(e.ratio.hi <= 1 for e in report.entries)
