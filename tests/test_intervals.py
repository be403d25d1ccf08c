"""Interval arithmetic and directed-rounded square roots."""

from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import bisect_root
from eudoxos.errors import DomainError
from eudoxos.intervals import (
    Interval,
    exact_sqrt,
    sqrt_down,
    sqrt_interval,
    sqrt_up,
)

fractions = st.fractions(min_value=Fraction(0), max_value=Fraction(10**6))
positive_fractions = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6)
)


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
