"""Base-k measurement streams against exact fraction and bisection oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import bisect_root
from eudoxos import positional
from eudoxos.positional import decimal_display


def rational_stream(value: Fraction, base: int = 10):
    return E.measure_positional(
        E.segment_rational(value), E.segment_rational(1), base=base
    )


def test_five_fourths_terminates():
    s = rational_stream(Fraction(5, 4))
    assert s.int_part == 1
    assert s.prefix(6) == [2, 5]
    assert s.terminated
    assert E.render_stream(s) == "1.25 (terminated)"


def test_unit_measures_itself():
    s = E.measure_positional(E.naturals(7), E.naturals(7), base=2)
    assert s.int_part == 1
    assert s.prefix(4) == []
    assert s.terminated


def test_sqrt2_digits_from_bisection_oracle():
    lo, _ = bisect_root(Fraction(2), 12)
    # oracle digits: integer part and first 7 decimals of the bracket
    oracle = [int(lo * 10**k) % 10 for k in range(1, 8)]
    s = E.measure_positional(E.segment_sqrt(2), E.segment_rational(1), base=10)
    assert s.int_part == 1
    assert s.prefix(7) == oracle == [4, 1, 4, 2, 1, 3, 5]


def test_sqrt2_hundred_decimals():
    # the resolution refines per digit, so no digit hits a precision floor
    s = E.measure_positional(E.segment_sqrt(2), E.segment_rational(1), base=10)
    digits = str(math.isqrt(2 * 10**200))
    assert s.int_part == 1
    assert s.prefix(100) == [int(ch) for ch in digits[1:]]


def test_stream_to_enclosure_formula():
    s = rational_stream(Fraction(314, 100))
    assert s.prefix(2) == [1, 4]
    iv = E.stream_to_enclosure(s, 2)
    assert iv.lo == Fraction(314, 100) and iv.is_point()  # terminated inside
    s2 = rational_stream(Fraction(1, 3))
    iv2 = E.stream_to_enclosure(s2, 2)
    assert iv2.lo == Fraction(33, 100) and iv2.hi == Fraction(34, 100)


def test_terminated_point_interval():
    s = rational_stream(Fraction(5, 4))
    iv = E.stream_to_enclosure(s, 5)
    assert iv.is_point() and iv.lo == Fraction(5, 4)


def test_sqrt2_prefix_three():
    s = E.measure_positional(E.segment_sqrt(2), E.segment_rational(1), base=10)
    iv = E.stream_to_enclosure(s, 3)
    assert iv.lo == Fraction(1414, 1000) and iv.hi == Fraction(1415, 1000)


@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 6))
def test_prefixes_contain_exact_fraction(p, q, prefix):
    value = Fraction(p, q)
    s = rational_stream(value)
    iv = E.stream_to_enclosure(s, prefix)
    assert iv.lo <= value <= iv.hi


@given(st.integers(1, 40), st.integers(1, 40))
def test_base2_and_base10_agree(p, q):
    value = Fraction(p, q)
    s2 = rational_stream(value, base=2)
    s10 = rational_stream(value, base=10)
    iv2 = E.stream_to_enclosure(s2, 8)
    iv10 = E.stream_to_enclosure(s10, 4)
    assert iv2.intersects(iv10)


def test_base2_vs_base10_on_angle_magnitudes():
    b = E.angle_magnitude(E.angle_from_points((3, 0), (0, 0), (3, 4)))
    u = E.angle_magnitude(E.right_angle())
    s2 = E.measure_positional(b, u, base=2)
    s10 = E.measure_positional(b, u, base=10)
    for p2, p10 in [(4, 2), (7, 3), (10, 4)]:
        assert E.stream_to_enclosure(s2, p2).intersects(E.stream_to_enclosure(s10, p10))


def test_digit_uniqueness_under_finer_resolution():
    b = E.segment_sqrt(3)
    u = E.segment_rational(1)
    coarse = E.measure_positional(b, u, base=10, res=E.Resolution(Fraction(1, 2**30)))
    fine = E.measure_positional(b, u, base=10, res=E.Resolution(Fraction(1, 2**80)))
    assert coarse.prefix(8) == fine.prefix(8)


def test_angle_sum_collapses_to_exact_boundary():
    # 45 + 45 degrees collapses to the canonical right angle, so measuring
    # it against the right angle terminates exactly
    a45 = E.angle_from_points((1, 0), (0, 0), (1, 1))
    b = E.add(E.angle_magnitude(a45), E.angle_magnitude(a45))
    assert b.payload == E.angle_magnitude(E.right_angle()).payload
    s = E.measure_positional(b, E.angle_magnitude(E.right_angle()), base=10)
    assert s.int_part == 1 and s.prefix(3) == [] and s.terminated


def test_indistinguishable_raises():
    # equal-valued but structurally distinct enclosures cannot place the
    # integer part; the caller is told to raise the resolution
    b = E.segment_sqrt(2)
    u = E.segment_sqrt(2)
    with pytest.raises(E.IndistinguishableError):
        E.measure_positional(b, u, base=10, res=E.Resolution(Fraction(1, 2**20)))
    # (sqrt2*sqrt2)/8 is exactly 1/4, but no enclosure of it certifies the
    # boundary 0.25: digit 1 stays undetermined on every request, and the
    # stream never claims to have terminated
    root2 = E.magnitude_enclosure(E.segment_sqrt(2))
    quarter = E.segment_from_enclosure(root2 * root2 / E.RealEnclosure.from_fraction(8))
    s = E.measure_positional(quarter, E.segment_rational(1), base=10)
    for _ in range(2):
        with pytest.raises(E.IndistinguishableError):
            s.prefix(5)
    assert s.prefix(1) == [2] and not s.terminated
    # the enclosure of a prefix needs no digit past it
    assert E.stream_to_enclosure(s, 1) == E.Interval(Fraction(1, 5), Fraction(3, 10))
    with pytest.raises(E.IndistinguishableError):
        s.prefix(5)


def test_decimal_display():
    iv = E.Interval(Fraction(314159, 100000), Fraction(3141595, 1000000))
    assert decimal_display(iv).startswith("3.1415")
    assert decimal_display(E.Interval(Fraction(1, 2), Fraction(3, 2))) in ("", "0...", "1...")


@pytest.mark.parametrize("lo, hi, shown", [
    (Fraction(-2049, 4096), Fraction(-2047, 4096), "-0..."),  # around -1/2
    (Fraction(-507, 512), Fraction(-1013, 1024), "-0.9..."),  # around cos 3
    (Fraction(-775, 1024), Fraction(-387, 512), "-0.75..."),  # around sin 4
    (Fraction(-5, 2), Fraction(-5, 2), "-2.500000000000..."),
    (Fraction(-1, 3), Fraction(1, 3), ""),
])
def test_decimal_display_below_zero(lo, hi, shown):
    # below zero the certain digits are those of the mirror, after a minus sign
    iv = E.Interval(lo, hi)
    assert decimal_display(iv) == shown
    if hi < 0:
        assert shown == "-" + decimal_display(-iv)


def test_digit_oracles_share_the_deepest_depth(monkeypatch):
    # each digit's oracle at its finer eps resumes where the digits before
    # it stopped, instead of walking the value enclosure from depth 0 again
    # (which made 497 calls for these 40 digits)
    calls = 0
    at = E.RealEnclosure.at

    def counted(self, depth):
        nonlocal calls
        calls += 1
        return at(self, depth)

    # an oracle is called with (m, n) only, so a wrapper taking just those
    # two (as a run-time tracer's does) must keep working
    side_fn = positional._side_fn

    def two_argument_side_fn(*args, **kwargs):
        oracle = side_fn(*args, **kwargs)
        return lambda m, n: oracle(m, n)

    monkeypatch.setattr(E.RealEnclosure, "at", counted)
    monkeypatch.setattr(positional, "_side_fn", two_argument_side_fn)
    disk = E.region_magnitude(E.Region([E.disk((0, 0), 1)]))
    square = E.region_magnitude(E.Region([E.unit_square()]))
    s = E.measure_positional(disk, square, base=2)
    digits = s.prefix(40)
    assert calls <= 64
    assert s.int_part == 3
    expected = bin(int(Fraction(3141592653589793238462643383279, 10**30) * 2**40))[4:]
    assert digits == [int(ch) for ch in expected]


def test_invalid_base():
    with pytest.raises(ValueError):
        E.measure_positional(E.naturals(1), E.naturals(1), base=1)
