"""Magnitude kinds: worked examples plus the algebraic laws."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import bisect_root, magnitudes_of_every_kind, outcome, per_kind_sub

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


def test_sub_of_equal_segments_is_not_greater():
    # compare says EQUAL, so the order refuses the difference
    one = E.segment_rational(1)
    with pytest.raises(E.NotGreaterError, match="is not greater than"):
        E.sub(one, E.segment_rational(1))
    root2 = E.segment_sqrt(2)
    with pytest.raises(E.NotGreaterError, match="is not greater than"):
        E.sub(root2, root2)


def test_sub_of_indistinguishable_region_classes():
    # pi to 39 decimals: the unit disk and the rectangle do not separate at
    # 2^-53, so the difference is not refused as "not greater"
    q = Fraction("3.141592653589793238462643383279502884197")
    disk = E.region_magnitude(E.Region([E.disk((0, 0), 1)]))
    rect = E.region_magnitude(E.Region([E.rectangle(q, 1)]))
    assert E.compare(disk, rect) is E.Comparison.INDISTINGUISHABLE
    with pytest.raises(E.IndistinguishableError, match="indistinguishable at resolution"):
        E.sub(disk, rect)
    with pytest.raises(E.NotGreaterError):  # what the per-kind check raised
        per_kind_sub(disk, rect)


def test_a_small_root_is_positive_at_depth_0():
    # sqrt(2^-201) rounded down at 2^-48 is 0: each read below divided by zero
    t = E.segment_sqrt(Fraction(1, 2**201))
    one = E.segment_rational(1)
    assert E.cut_member(E.ratio(one, t), 1, 1) is E.CutSide.BELOW
    iv = E.to_real(E.ratio(one, t)).at(2)
    assert isqrt(2**201) <= iv.lo and iv.hi <= isqrt(2**201) + 1
    assert E.measure_positional(one, t).int_part == isqrt(2**201)
    assert E.magnitude_enclosure(t).at(0).lo > 0


@pytest.mark.parametrize("make", [E.segment_rational, E.segment_sqrt])
def test_a_value_with_too_many_digits_to_print_names_its_segment(make):
    # 2^100001 has more digits than int -> str allows: the name and the repr
    # give the value's binary magnitude instead
    value = Fraction(1, 2**100001)
    iv = E.magnitude_enclosure(make(value)).at(0)
    root = make is E.segment_sqrt
    square = iv.lo * iv.lo if root else iv.lo
    assert 0 < square <= value <= (iv.hi * iv.hi if root else iv.hi)
    text = repr(make(value))
    assert "2^-100001" in text
    assert text.startswith("Magnitude(segments, <RealEnclosure ")


def test_a_product_with_a_small_root_inverts():
    t = E.ratio(E.segment_sqrt(Fraction(1, 2**201)), E.segment_rational(1))
    root2 = E.ratio(E.segment_sqrt(2), E.segment_rational(1))
    assert E.cut_member(E.inverse(E.mul_ratio(t, root2)), 1, 1) is E.CutSide.BELOW


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_segment_is_positive_at_every_depth(seed):
    segments = magnitudes_of_every_kind(random.Random(seed))[2]
    for seg in segments:
        enc = E.magnitude_enclosure(seg)
        assert all(enc.at(depth).lo > 0 for depth in range(13)), seg


def _documented_change(x, order, got, ref) -> bool:
    """The two error classes that moved when the order check became one."""
    if x.kind is E.KindId.SEGMENTS and order is E.Comparison.EQUAL:
        return ref[1] is E.IndistinguishableError and got[1] is E.NotGreaterError
    if x.kind is E.KindId.REGION_CLASSES and order is E.Comparison.INDISTINGUISHABLE:
        return ref[1] is E.NotGreaterError and got[1] is E.IndistinguishableError
    return False


def _meet_at_every_depth(a: E.Magnitude, b: E.Magnitude) -> bool:
    ea, eb = E.magnitude_enclosure(a), E.magnitude_enclosure(b)
    return all(ea.at(d).intersects(eb.at(d)) for d in range(13))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sub_is_partial_subtraction_from_the_order(seed):
    """sub refuses exactly what compare does not order above, y + (x - y)
    gives x back, and the per-kind methods gave the same answers."""
    seen = Counter()
    for group in magnitudes_of_every_kind(random.Random(seed)):
        for x in group:
            for y in group:
                order = E.compare(x, y)
                got = outcome(lambda: E.sub(x, y))
                if order is E.Comparison.INDISTINGUISHABLE:
                    assert got[:2] == ("raised", E.IndistinguishableError)
                elif order is not E.Comparison.GREATER:
                    assert got[:2] == ("raised", E.NotGreaterError)
                    assert got[2] == f"{x.payload} is not greater than {y.payload}"
                elif got[0] == "raised":  # the quasi-kind's missing difference
                    assert x.kind is E.KindId.LEX_PAIRS and got[1] is E.NoWitnessError
                elif x.kind is E.KindId.SEGMENTS:
                    assert _meet_at_every_depth(E.add(y, got[1]), x)
                else:
                    assert E.add(y, got[1]) == x
                seen[got[0] if got[0] == "ok" else got[1]] += 1

                ref = outcome(lambda: per_kind_sub(x, y))
                if _documented_change(x, order, got, ref):
                    seen["changed"] += 1
                elif got[0] == "raised":
                    assert ref[:2] == got[:2], (x, y)
                elif x.kind is E.KindId.SEGMENTS:
                    assert ref[0] == "ok" and _meet_at_every_depth(ref[1], got[1])
                    assert ref[1].payload.exact == got[1].payload.exact
                else:
                    assert ref == got
    assert seen["ok"] and seen[E.NotGreaterError] and seen["changed"], seen


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
