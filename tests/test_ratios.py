"""Cuts, proportion, order, ratio arithmetic, and the Re embedding."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import (
    assert_contains_fraction,
    bisect_root,
    kind_exact_value,
    magnitudes_of_every_kind,
)
from eudoxos.ratios import exact_value

SQRT2_LO, SQRT2_HI = bisect_root(Fraction(2), 10)


def nat_ratio(a, b):
    return E.ratio(E.naturals(a), E.naturals(b))


def sqrt2_ratio():
    return E.ratio(E.segment_sqrt(2), E.segment_rational(1))


def scan_eq_oracle(v1: Fraction, v2: Fraction, bound: int):
    """Independent least-witness scan over exact fraction values."""
    for s in range(2, 2 * bound + 1):
        for m in range(max(1, s - bound), min(bound, s - 1) + 1):
            n = s - m
            f = Fraction(m, n)
            side1 = (f > v1) - (f < v1)
            side2 = (f > v2) - (f < v2)
            if side1 != side2:
                return (m, n)
    return None


class TestCutMember:
    def test_boundary(self):
        assert E.cut_member(nat_ratio(3, 2), 3, 2) is E.CutSide.BOUNDARY

    def test_below(self):
        assert E.cut_member(nat_ratio(3, 2), 1, 1) is E.CutSide.BELOW

    def test_sqrt2_sides(self):
        r = sqrt2_ratio()
        # 49/25 < 2 < 9/4 by the rational oracle
        assert Fraction(7, 5) ** 2 < 2 < Fraction(3, 2) ** 2
        assert E.cut_member(r, 7, 5) is E.CutSide.BELOW
        assert E.cut_member(r, 3, 2) is E.CutSide.ABOVE

    def test_equal_fractions_give_equal_answers(self):
        r = nat_ratio(3, 2)
        assert E.cut_member(r, 3, 2) is E.cut_member(r, 6, 4) is E.cut_member(r, 30, 20)

    @given(
        st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)
    )
    def test_cut_monotone(self, m1, n1, m2, n2):
        r = nat_ratio(7, 3)
        if Fraction(m1, n1) <= Fraction(m2, n2):
            if E.cut_member(r, m2, n2) is E.CutSide.BELOW:
                assert E.cut_member(r, m1, n1) is E.CutSide.BELOW


class TestProportion:
    def test_equal_fractions_proportional(self):
        assert E.eq_E(nat_ratio(3, 2), nat_ratio(6, 4), 100).is_proportional

    def test_not_proportional_least_witness(self):
        v = E.eq_E(nat_ratio(3, 2), nat_ratio(2, 1), 10)
        assert v.outcome is E.Proportionality.NOT_PROPORTIONAL
        # least pair by (m+n, m), confirmed by the independent oracle
        assert v.witness == scan_eq_oracle(Fraction(3, 2), Fraction(2), 10) == (2, 1)

    def test_lexpairs_separation_witness(self):
        r_inf = E.ratio(E.lex_pair(1, 1), E.lex_pair(1, 0))
        r_one = E.ratio(E.lex_pair(1, 0), E.lex_pair(1, 0))
        ve = E.eq_E(r_inf, r_one, 50)
        assert ve.outcome is E.Proportionality.NOT_PROPORTIONAL
        assert ve.witness == (1, 1)
        vl = E.eq_L(r_inf, r_one, 50)
        assert vl.is_proportional

    def test_eq_L_reflexive_and_separating(self):
        r = nat_ratio(5, 3)
        assert E.eq_L(r, r, 30).is_proportional
        v = E.eq_L(nat_ratio(3, 2), nat_ratio(2, 1), 10)
        assert v.outcome is E.Proportionality.NOT_PROPORTIONAL

    def test_eq_E_implies_eq_L_on_samples(self):
        samples = [nat_ratio(a, b) for a, b in [(1, 1), (3, 2), (2, 3), (5, 5), (7, 2)]]
        for r1 in samples:
            for r2 in samples:
                if E.eq_E(r1, r2, 40).is_proportional:
                    assert E.eq_L(r1, r2, 40).is_proportional

    def test_equal_irrational_values_proportional(self):
        r1 = sqrt2_ratio()
        r2 = E.ratio(E.segment_sqrt(8), E.segment_rational(2))
        assert E.eq_E(r1, r2, 100).is_proportional

    def test_boundary_on_enclosure_value_undecided(self):
        # sqrt2:1 squared against 2:1: the fraction 2/1 is honestly
        # indistinguishable, so the verdict must not be NotProportional.
        prod = E.mul_ratio(sqrt2_ratio(), sqrt2_ratio())
        v = E.eq_E(prod, nat_ratio(2, 1), 30)
        assert v.outcome is E.Proportionality.UNDECIDED
        iv = E.magnitude_enclosure(prod.num).at(20)
        assert_contains_fraction(iv, Fraction(2))
        assert iv.width < Fraction(1, 10**6)


class TestLess:
    def test_trivial_order(self):
        assert E.less_E(nat_ratio(1, 2), nat_ratio(2, 1), 10).outcome is E.LessOutcome.LESS

    def test_irreflexive(self):
        r = nat_ratio(3, 2)
        assert E.less_E(r, r, 30).outcome is E.LessOutcome.NOT_LESS

    def test_cross_kind_sqrt2_below_three_halves(self):
        v = E.less_E(sqrt2_ratio(), nat_ratio(3, 2), 100)
        assert v.outcome is E.LessOutcome.LESS

    def test_antisymmetry_on_samples(self):
        a, b = nat_ratio(2, 3), nat_ratio(3, 4)
        assert E.less_E(a, b, 50).outcome is E.LessOutcome.LESS
        assert E.less_E(b, a, 50).outcome is E.LessOutcome.NOT_LESS

    def test_compatible_with_add_and_mul(self):
        triples = [(Fraction(1, 2), Fraction(2, 3), Fraction(5, 4))]
        for va, vb, vc in triples:
            a, b, c = (E.rational_ratio(v) for v in (va, vb, vc))
            assert E.less_E(a, b, 60).outcome is E.LessOutcome.LESS
            assert (
                E.less_E(E.add_ratio(a, c), E.add_ratio(b, c), 60).outcome
                is E.LessOutcome.LESS
            )
            assert (
                E.less_E(E.mul_ratio(a, c), E.mul_ratio(b, c), 60).outcome
                is E.LessOutcome.LESS
            )


class TestArithmetic:
    def test_add_rational(self):
        s = E.add_ratio(E.rational_ratio(Fraction(1, 2)), E.rational_ratio(Fraction(1, 3)))
        assert exact_value(s) == Fraction(5, 6)

    def test_double_vs_scale(self):
        r = nat_ratio(3, 2)
        doubled = E.add_ratio(r, r)
        scaled = E.scale_rational(2, 1, r)
        assert E.eq_E(doubled, scaled, 50).is_proportional

    def test_add_sqrt2_twice(self):
        r = sqrt2_ratio()
        s = E.add_ratio(r, r)
        iv = E.magnitude_enclosure(s.num).at(16)
        lo, hi = bisect_root(Fraction(8), 10)  # 2*sqrt(2) = sqrt(8)
        assert iv.lo <= hi and lo <= iv.hi

    def test_mul_rational(self):
        p = E.mul_ratio(E.rational_ratio(Fraction(2, 3)), E.rational_ratio(Fraction(3, 4)))
        assert exact_value(p) == Fraction(1, 2)

    def test_mul_inverse_is_unity(self):
        r = nat_ratio(7, 3)
        v = E.eq_E(E.mul_ratio(r, E.inverse(r)), nat_ratio(1, 1), 50)
        assert v.is_proportional

    def test_inverse(self):
        r = nat_ratio(3, 2)
        assert E.inverse(r).num.payload == 2
        assert E.inverse(E.inverse(r)) == r
        inv_iv = E.to_real(E.inverse(sqrt2_ratio())).at(14)
        lo, hi = bisect_root(Fraction(1, 2), 10)  # 1/sqrt(2)
        assert inv_iv.lo <= hi and lo <= inv_iv.hi

    def test_scale_rational_identities(self):
        r = nat_ratio(3, 2)
        assert E.scale_rational(1, 1, r) == r
        v = E.eq_E(E.scale_rational(2, 4, nat_ratio(1, 1)), nat_ratio(1, 2), 30)
        assert v.is_proportional

    def test_representative_independence(self):
        r1a, r1b = nat_ratio(1, 2), nat_ratio(2, 4)
        r2 = nat_ratio(1, 3)
        s_a = E.add_ratio(r1a, r2)
        s_b = E.add_ratio(r1b, r2)
        assert E.eq_E(s_a, s_b, 40).is_proportional
        p_a = E.mul_ratio(r1a, r2)
        p_b = E.mul_ratio(r1b, r2)
        assert E.eq_E(p_a, p_b, 40).is_proportional


class TestToReal:
    def test_rational_identity(self):
        enc = E.to_real(nat_ratio(3, 2))
        assert enc.exact == Fraction(3, 2)
        assert enc.at(4).is_point()

    def test_sqrt2_bracket(self):
        enc = E.to_real(sqrt2_ratio())
        iv = enc.at(20)
        assert iv.width <= Fraction(1, 2**20)
        assert iv.lo <= SQRT2_HI and SQRT2_LO <= iv.hi

    def test_nested(self):
        enc = E.to_real(sqrt2_ratio())
        prev = enc.at(0)
        for d in range(1, 12):
            cur = enc.at(d)
            assert prev.encloses(cur)
            prev = cur

    def test_not_archimedean(self):
        # building asks no cut query: only the first refinement finds the
        # empty cut
        enc = E.to_real(E.ratio(E.lex_pair(0, 1), E.lex_pair(1, 0)))
        with pytest.raises(E.NotArchimedeanError):
            enc.at(1)
        with pytest.raises(E.NotArchimedeanError):
            E.to_real(E.ratio(E.lex_pair(1, 0), E.lex_pair(0, 1))).at(1)

    @pytest.mark.parametrize("a", [1, 2, 3, 5, 7, 11, 30, 59, 60])
    def test_sqrt_brackets_are_binary_prefixes(self, a):
        # depth k reads L binary digits of v = sqrt(a/c): L = k from 1 up,
        # at least 1 from 1/2 up, and below 1/2 one more than k, reaching at
        # least the first non-zero digit (j digits, 2^-j <= v < 2^-(j-1))
        for c in (1, 2, 3, 6, 17, 37, 58, 60):
            if math.isqrt(a * c) ** 2 == a * c:
                continue
            if a >= c:
                lengths = list(range(61))
            else:
                j = next(j for j in range(1, 8) if 4**j * a >= c)
                lengths = [max(k + (j > 1), j) for k in range(61)]
            want = [E.Interval(Fraction(math.isqrt(a * 4**L // c), 2**L),
                               Fraction(math.isqrt(a * 4**L // c) + 1, 2**L))
                    for L in lengths]

            def build():
                return E.to_real(E.ratio(E.segment_sqrt(a), E.segment_sqrt(c)))

            walked = build()
            assert [walked.at(k) for k in range(61)] == want
            backwards = build()
            assert [backwards.at(k) for k in range(60, -1, -1)] == want[::-1]
            for k in (0, 1, 7, 33, 60):
                assert build().at(k) == want[k]

    def test_values_above_two_to_the_63(self):
        v2 = 2**141  # sqrt(v2) = 2^70.5: a large value, not a full cut
        iv = E.to_real(E.ratio(E.segment_sqrt(v2), E.segment_rational(1))).at(3)
        lo = math.isqrt(v2 * 4**3)
        assert iv == E.Interval(Fraction(lo, 8), Fraction(lo + 1, 8))

    def test_order_embedding(self):
        r_lo, r_hi = sqrt2_ratio(), nat_ratio(3, 2)
        assert E.less_E(r_lo, r_hi, 100).outcome is E.LessOutcome.LESS
        d = 16
        assert E.to_real(r_lo).at(d).hi < E.to_real(r_hi).at(d).lo

    def test_partial_monomorphism(self):
        r1, r2 = sqrt2_ratio(), nat_ratio(3, 2)
        s = E.add_ratio(r1, r2)
        p = E.mul_ratio(r1, r2)
        d = 14
        sum_iv = E.to_real(r1).at(d) + E.to_real(r2).at(d)
        prod_iv = E.to_real(r1).at(d) * E.to_real(r2).at(d)
        assert E.to_real(s).at(d).intersects(sum_iv)
        assert E.to_real(p).at(d).intersects(prod_iv)


def test_repr_of_a_ratio_with_too_many_digits_to_print():
    # 2^100001 has more digits than int -> str allows: its binary magnitude prints
    r = E.rational_ratio(Fraction(1, 2**100001))
    assert repr(r) == "Ratio(Magnitude(naturals, 1) : Magnitude(naturals, ~2^100001))"
    assert repr(E.rational_ratio(Fraction(3, 7))) == "Ratio(Magnitude(naturals, 3) : Magnitude(naturals, 7))"


def test_proposition_suite_passes():
    report = E.proposition_suite(30)
    assert report.passed, "\n".join(report.lines())


def test_eq_relations_are_equivalences():
    samples = [
        nat_ratio(3, 2), nat_ratio(6, 4), nat_ratio(2, 1),
        sqrt2_ratio(), E.ratio(E.segment_sqrt(8), E.segment_rational(2)),
    ]
    bound = 40
    for rel in (E.eq_E, E.eq_L):
        for r in samples:
            assert rel(r, r, bound).is_proportional
        for r1 in samples:
            for r2 in samples:
                assert (
                    rel(r1, r2, bound).is_proportional
                    == rel(r2, r1, bound).is_proportional
                )
        for r1 in samples:
            for r2 in samples:
                for r3 in samples:
                    if (
                        rel(r1, r2, bound).is_proportional
                        and rel(r2, r3, bound).is_proportional
                    ):
                        assert rel(r1, r3, bound).is_proportional


@given(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20), st.integers(1, 20))
def test_eq_E_matches_value_equality_on_naturals(a, b, c, d):
    v = E.eq_E(nat_ratio(a, b), nat_ratio(c, d), 45)
    assert v.is_proportional == (Fraction(a, b) == Fraction(c, d))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_value_is_the_enclosure_exact(seed):
    """exact_value reads the value enclosure and gives what the per-kind
    exact hooks gave, on ratios of every kind."""
    found = {True: 0, False: 0}
    for group in magnitudes_of_every_kind(random.Random(seed)):
        for num in group:
            for den in group:
                r = E.ratio(num, den)
                v = exact_value(r)
                assert v == kind_exact_value(r) and type(v) is type(kind_exact_value(r)), r
                found[v is not None] += 1
    assert min(found.values()) > 40
