"""Interval arithmetic and directed-rounded square roots."""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import bisect_root, reference_sqrt_down, reference_sqrt_up
from eudoxos.errors import DomainError
from eudoxos.intervals import Interval, exact_sqrt, sqrt_interval

fractions = st.fractions(min_value=Fraction(0), max_value=Fraction(10**6))
positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
)


# The lower and the upper end of the root of a point, named as the
# one-ended roots the tests below check.
def sqrt_down(value, den):
    return sqrt_interval(Interval.point(value), den).lo


def sqrt_up(value, den):
    return sqrt_interval(Interval.point(value), den).hi


def test_point_and_width():
    iv = Interval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert Interval.point(2).is_point()


def test_inverted_rejected():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


def test_arithmetic_soundness_examples():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-3), Fraction(1, 2))
    assert (a + b).contains(Fraction(1) + Fraction(-3))
    assert (a * b).contains(Fraction(2) * Fraction(-3))
    assert (a - b).contains(Fraction(1) - Fraction(1, 2))
    assert (a / Interval(Fraction(1, 4), Fraction(1, 2))).contains(4)


def test_division_by_zero_interval():
    with pytest.raises(ZeroDivisionError):
        Interval(Fraction(1), Fraction(2)) / Interval(Fraction(-1), Fraction(1))


@given(fractions)
def test_sqrt_bounds_bracket(x):
    den = 1 << 40
    lo, hi = sqrt_down(x, den), sqrt_up(x, den)
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(2, den) + Fraction(1, den)


@given(positive_fractions)
def test_sqrt_exact_squares_detected(x):
    sq = x * x
    assert exact_sqrt(sq) == x
    den = 1 << 20
    assert sqrt_down(sq, den) == x == sqrt_up(sq, den)
    with pytest.raises(DomainError):
        sqrt_down(-sq, den)


def test_sqrt_interval_monotone_in_den():
    x = Interval.point(Fraction(2))
    wide = sqrt_interval(x, 1 << 8)
    tight = sqrt_interval(x, 1 << 32)
    assert wide.encloses(tight)
    lo, hi = bisect_root(Fraction(2), 12)
    assert tight.lo <= hi and lo <= tight.hi


def _dyadic(rng):
    return Fraction(rng.getrandbits(rng.randint(1, 200)), 1 << rng.randint(0, 200))


def _rational(rng):
    return Fraction(rng.getrandbits(rng.randint(1, 160)), rng.getrandbits(rng.randint(1, 160)) or 1)


_FAMILIES = {
    "dyadic": _dyadic,
    "rational": _rational,
    "dyadic square": lambda rng: _dyadic(rng) ** 2,
    "rational square": lambda rng: _rational(rng) ** 2,
}


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_roots_match_the_exact_root_test_first(family):
    # 50 000 seeded (value, den) pairs per family, den from 2^0 to 2^300:
    # both ends equal the reference's, where the exact-root test ran first
    rng = random.Random(f"sqrt {family}")
    draw = _FAMILIES[family]
    for _ in range(50_000):
        value, den = draw(rng), 1 << rng.randint(0, 300)
        lo, hi = reference_sqrt_down(value, den), reference_sqrt_up(value, den)
        iv = sqrt_interval(Interval.point(value), den)
        assert (iv.lo, iv.hi) == (lo, hi), (value, den)


def test_an_interval_takes_its_ends_from_its_ends():
    rng = random.Random(11)
    for _ in range(2_000):
        a, b = sorted((_rational(rng), _rational(rng)))
        den = 1 << rng.randint(0, 300)
        expected = Interval(reference_sqrt_down(a, den), reference_sqrt_up(b, den))
        assert sqrt_interval(Interval(a, b), den) == expected


@pytest.mark.parametrize("bits", [0, 64, 300])
def test_an_exact_root_off_the_grid_comes_back_unrounded(bits):
    value, den = Fraction(9, 25), 1 << bits
    assert sqrt_down(value, den) == Fraction(3, 5) == sqrt_up(value, den)
    assert sqrt_interval(Interval.point(value), den) == Interval.point(Fraction(3, 5))


@pytest.mark.parametrize("bits", [0, 64])
def test_the_root_of_zero_is_zero(bits):
    den = 1 << bits
    assert sqrt_down(0, den) == 0 == sqrt_up(0, den)
    assert sqrt_interval(Interval.point(0), den) == Interval.point(0)


@pytest.mark.parametrize("root", [sqrt_down, sqrt_up, reference_sqrt_down, reference_sqrt_up])
def test_a_negative_value_is_refused_with_its_payload(root):
    with pytest.raises(DomainError) as info:
        root(Fraction(-9, 25), 1 << 64)
    assert info.value.args == (Fraction(-9, 25),)


def test_a_negative_interval_is_refused_at_its_lower_end():
    for iv in (Interval.point(Fraction(-1, 3)), Interval(Fraction(-1, 3), Fraction(4))):
        with pytest.raises(DomainError) as info:
            sqrt_interval(iv, 1 << 64)
        assert info.value.args == (Fraction(-1, 3),)


def test_an_end_with_too_many_digits_prints_its_binary_magnitude():
    tiny = Fraction(3, 2**20000)  # 2^20000 has more digits than int -> str allows
    assert str(Interval(-tiny, tiny)) == "[-~2^-19999, ~2^-19999]"
    assert str(Interval(Fraction(1, 3), 2)) == "[1/3, 2]"


def test_repr_prints_an_end_with_too_many_digits_by_its_binary_magnitude():
    tiny = Fraction(1, 2**100001)  # 2^100001 has more digits than int -> str allows
    iv = E.magnitude_enclosure(E.segment_rational(tiny)).at(0)
    assert repr(iv) == "Interval(lo=~2^-100001, hi=~2^-100001)"
    # every other end prints as the dataclass repr did
    assert repr(Interval(Fraction(-1, 3), 2)) == "Interval(lo=Fraction(-1, 3), hi=Fraction(2, 1))"


def test_scale_and_shift():
    iv = Interval(Fraction(1), Fraction(3))
    assert iv.scale(-2) == Interval(Fraction(-6), Fraction(-2))
    assert iv.shift(Fraction(1, 2)) == Interval(Fraction(3, 2), Fraction(7, 2))


class _Third(Fraction):
    """A Fraction subclass, which an endpoint must not keep."""


@pytest.mark.parametrize("lo, hi", [(1, 2), (0.5, 2.25), (_Third(1, 3), _Third(2, 3)), (-1, Fraction(1, 3))])
def test_endpoints_are_plain_fractions(lo, hi):
    iv = Interval(lo, hi)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert (iv.lo, iv.hi) == (Fraction(lo), Fraction(hi))
    point = Interval.point(lo)
    assert type(point.lo) is Fraction and type(point.hi) is Fraction


def test_interval_contract():
    a = Interval(Fraction(1, 3), Fraction(1, 2))
    b = Interval(_Third(2, 6), 0.5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Interval(Fraction(1, 3), Fraction(1, 2))}) == 1
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), _Third(1, 3))
    with pytest.raises(ValueError):
        Interval(1, 0.5)
    with pytest.raises(FrozenInstanceError):
        a.lo = Fraction(0)
    with pytest.raises(FrozenInstanceError):
        a.hi = Fraction(1)


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 7])
def test_scale_and_shift_by_int(k):
    iv = Interval(Fraction(-1, 3), Fraction(5, 2))
    scaled, shifted = iv.scale(k), iv.shift(k)
    assert scaled == iv.scale(Fraction(k))
    assert shifted == iv.shift(Fraction(k))
    assert (scaled.lo, scaled.hi) == tuple(sorted((iv.lo * k, iv.hi * k)))
    assert (shifted.lo, shifted.hi) == (iv.lo + k, iv.hi + k)
    for end in (scaled.lo, scaled.hi, shifted.lo, shifted.hi):
        assert type(end) is Fraction
