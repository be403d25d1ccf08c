"""Magnitude kinds: worked examples plus the algebraic laws."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import bisect_root

naturals_vals = st.integers(min_value=1, max_value=50)
lex_vals = st.tuples(
    st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10)
).filter(lambda p: p != (0, 0))


def test_kmul_identity_and_examples():
    x = E.naturals(2)
    assert E.kmul(1, x) is x
    assert E.kmul(3, x).payload == 6
    assert E.kmul(5, E.lex_pair(0, 1)).payload == (0, 5)


def test_kmul_matches_repeated_add():
    x = E.lex_pair(2, 3)
    acc = x
    for n in range(2, 8):
        acc = E.add(acc, x)
        assert E.kmul(n, x) == acc


def test_add_examples():
    assert E.add(E.naturals(2), E.naturals(3)).payload == 5
    assert E.add(E.lex_pair(1, 0), E.lex_pair(0, 1)).payload == (1, 1)
    one_plus_root2 = E.add(E.segment_rational(1), E.segment_sqrt(2))
    lo, hi = bisect_root(Fraction(2), 8)
    iv = E.magnitude_enclosure(one_plus_root2).at(12)
    assert iv.lo <= 1 + hi and 1 + lo <= iv.hi
    assert iv.width < Fraction(1, 10**6)


def test_kind_mismatch_rejected():
    with pytest.raises(E.KindMismatchError):
        E.add(E.naturals(1), E.lex_pair(1, 0))
    with pytest.raises(E.KindMismatchError):
        E.compare(E.naturals(1), E.segment_rational(1))


def test_zero_magnitudes_rejected():
    with pytest.raises(E.ZeroMagnitudeError):
        E.naturals(0)
    with pytest.raises(E.ZeroMagnitudeError):
        E.lex_pair(0, 0)
    with pytest.raises(E.ZeroMagnitudeError):
        E.segment_rational(0)
    with pytest.raises(E.ZeroMagnitudeError):
        E.polygon_class(Fraction(-1, 2))


def test_compare_examples():
    assert E.compare(E.naturals(2), E.naturals(3)) is E.Comparison.LESS
    assert E.compare(E.lex_pair(0, 99), E.lex_pair(1, 0)) is E.Comparison.LESS
    # sqrt(2) against the rational 1.41421 (the truncation is below)
    seg = E.segment_sqrt(2)
    rat = E.segment_rational(Fraction(141421, 100000))
    assert E.compare(seg, rat, E.Resolution(Fraction(1, 10**6))) is E.Comparison.GREATER


def test_compare_indistinguishable_on_equal_value_enclosures():
    a = E.segment_sqrt(2)
    b = E.segment_sqrt(2)
    res = E.Resolution(Fraction(1, 2**40))
    assert E.compare(a, b, res) is E.Comparison.INDISTINGUISHABLE
    assert E.compare(a, a, res) is E.Comparison.EQUAL


def test_depth_cap_never_rises_as_eps_grows():
    grid = sorted({Fraction(1, 10**6), Fraction(3, 2**20), Fraction(1, 2), Fraction(999, 1000),
                   Fraction(1, 2**53), Fraction(2, 3), Fraction(1), Fraction(5, 2), Fraction(7)}
                  | {Fraction(p, q) for p in range(1, 40) for q in range(1, 40)})
    caps = [E.Resolution(eps).depth_cap for eps in grid]
    assert all(a >= b for a, b in zip(caps, caps[1:]))
    # every eps = 1/n keeps the cap it had when the cap read eps's denominator
    for n in (1, 2, 3, 10, 1000, 3**7, 10**6, 2**53):
        assert E.Resolution(Fraction(1, n)).depth_cap == max(8, n.bit_length() + 32)


def test_sub_examples():
    assert E.sub(E.naturals(5), E.naturals(2)).payload == 3
    assert E.sub(E.polygon_class(1), E.polygon_class(Fraction(1, 4))).payload == Fraction(3, 4)
    with pytest.raises(E.NotGreaterError):
        E.sub(E.naturals(2), E.naturals(5))
    with pytest.raises(E.NoWitnessError):
        E.sub(E.lex_pair(2, 3), E.lex_pair(1, 5))


def test_sub_segments_round_trip():
    x, y = E.segment_sqrt(2), E.segment_rational(1)
    z = E.sub(x, y)
    back = E.add(y, z)
    for depth in range(0, 16, 4):
        assert E.magnitude_enclosure(back).at(depth).intersects(
            E.magnitude_enclosure(x).at(depth)
        )


def test_archimedean_witness_examples():
    assert E.archimedean_witness(E.naturals(1), E.naturals(10), 100) == 11
    assert E.archimedean_witness(E.lex_pair(0, 1), E.lex_pair(1, 0), 10**6) is None
    w = E.archimedean_witness(
        E.segment_rational(Fraction(1, 3)), E.segment_rational(2), 100
    )
    assert w == 7


@given(naturals_vals, naturals_vals, naturals_vals)
def test_semigroup_laws_naturals(a, b, c):
    x, y, z = E.naturals(a), E.naturals(b), E.naturals(c)
    assert E.add(x, y) == E.add(y, x)
    assert E.add(E.add(x, y), z) == E.add(x, E.add(y, z))


@given(lex_vals, lex_vals, lex_vals)
def test_semigroup_laws_lex(a, b, c):
    x, y, z = E.lex_pair(*a), E.lex_pair(*b), E.lex_pair(*c)
    assert E.add(x, y) == E.add(y, x)
    assert E.add(E.add(x, y), z) == E.add(x, E.add(y, z))


@given(naturals_vals, naturals_vals, naturals_vals)
def test_cancellation_naturals(a, b, c):
    x, y, z = E.naturals(a), E.naturals(b), E.naturals(c)
    if E.add(x, z) == E.add(y, z):
        assert x == y


def test_semigroup_laws_segments_overlap():
    x, y, z = E.segment_sqrt(2), E.segment_sqrt(3), E.segment_rational(Fraction(1, 7))
    lhs = E.add(E.add(x, y), z)
    rhs = E.add(x, E.add(y, z))
    for depth in range(10):
        assert E.magnitude_enclosure(lhs).at(depth).intersects(
            E.magnitude_enclosure(rhs).at(depth)
        )


def test_order_sum_link_naturals():
    for a in range(1, 51):
        for b in range(1, 51):
            less = E.compare(E.naturals(a), E.naturals(b)) is E.Comparison.LESS
            witness = any(a + z == b for z in range(1, 51))
            assert less == witness


def test_order_sum_link_lex_sound_direction():
    # witness exists => strictly less (the converse fails on this quasi-kind
    # by construction; see the sub example (2,3)-(1,5)).
    pairs = [(a, b) for a in range(0, 6) for b in range(0, 6) if (a, b) != (0, 0)]
    for x in pairs:
        for z in pairs:
            y = (x[0] + z[0], x[1] + z[1])
            assert E.compare(E.lex_pair(*x), E.lex_pair(*y)) is E.Comparison.LESS


def test_trichotomy_exact_kinds():
    pairs = [(a, b) for a in range(0, 4) for b in range(0, 4) if (a, b) != (0, 0)]
    for x in pairs:
        for y in pairs:
            outcomes = [
                E.compare(E.lex_pair(*x), E.lex_pair(*y)) is c
                for c in (E.Comparison.LESS, E.Comparison.EQUAL, E.Comparison.GREATER)
            ]
            assert sum(outcomes) == 1


def test_archimedean_property_holds_and_fails():
    # holds on naturals, segments, polygon classes
    assert E.archimedean_witness(E.naturals(1), E.naturals(1000), 2000) == 1001
    assert E.archimedean_witness(E.segment_sqrt(2), E.segment_rational(100), 200) is not None
    assert E.archimedean_witness(E.polygon_class(Fraction(1, 3)), E.polygon_class(50), 400) is not None
    # fails for the infinitesimal pair
    assert E.archimedean_witness(E.lex_pair(0, 7), E.lex_pair(3, 0), 10**6) is None
