"""Interval arithmetic and directed-rounded square roots."""

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
