"""Cross-module identities tying measures, ratios, and enclosures together."""

from fractions import Fraction

import pytest

import eudoxos as E
from eudoxos.archimedes import arc_length_bounds, sector_area_bounds
from eudoxos.angles import _cos_interval_of_dir
from eudoxos.archimedes import precision_denominator


def test_scale_half_of_m_ratio_realizes_mu():
    # the sector measure is half the arc measure: scaling the m-ratio by 1/2
    # lands inside the mu enclosure
    a = E.angle_from_points((3, 0), (0, 0), (3, 4))
    depth = 10
    m_iv = E.measure_m(a).at(depth)
    m_ratio = E.ratio(
        E.segment_from_enclosure(E.measure_m(a).value), E.segment_rational(1)
    )
    halved = E.scale_rational(1, 2, m_ratio)
    halved_iv = E.magnitude_enclosure(halved.num).at(depth) / E.magnitude_enclosure(
        halved.den
    ).at(depth)
    mu_iv = E.measure_mu(a).at(depth)
    assert halved_iv.intersects(mu_iv)
    assert m_iv.scale(Fraction(1, 2)).intersects(mu_iv)


def test_less_E_undecided_on_boundary_enclosure():
    # is 2:1 below sqrt2*sqrt2? the only candidate fraction sits exactly on
    # the enclosure value, so the comparison stays honestly open
    prod = E.mul_ratio(
        E.ratio(E.segment_sqrt(2), E.segment_rational(1)),
        E.ratio(E.segment_sqrt(2), E.segment_rational(1)),
    )
    v = E.less_E(E.rational_ratio(2), prod, 20)
    assert v.outcome is E.LessOutcome.UNDECIDED
    # sqrt3:sqrt3 < sqrt7:sqrt3 has witness (2, 3), but the smaller pair
    # (1, 1) sits on the uncertifiable boundary 1: as in eq_E, the least
    # witness is not certified, so the verdict is Undecided there
    v = E.less_E(
        E.ratio(E.segment_sqrt(3), E.segment_sqrt(3)),
        E.ratio(E.segment_sqrt(7), E.segment_sqrt(3)),
        100,
    )
    assert v.outcome is E.LessOutcome.UNDECIDED and v.undecided_at == (1, 1)


def test_sub_indistinguishable_propagates():
    with pytest.raises(E.IndistinguishableError):
        E.sub(E.segment_sqrt(2), E.segment_sqrt(2))


def test_lexpairs_cancellation():
    pairs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    for x in pairs:
        for y in pairs:
            for z in pairs:
                if E.add(E.lex_pair(*x), E.lex_pair(*z)) == E.add(
                    E.lex_pair(*y), E.lex_pair(*z)
                ):
                    assert x == y


def test_exhaustion_rate():
    # circumscribed-minus-sector and sector-minus-inscribed both sink below
    # any positive rational after finitely many doublings
    direction = E.right_angle().direction()
    for target in (Fraction(1, 10), Fraction(1, 1000), Fraction(1, 10**6)):
        for depth in range(40):
            den = precision_denominator(depth)
            iv = sector_area_bounds(_cos_interval_of_dir(direction, den), 1, depth)
            if iv.width < target:
                break
        else:
            pytest.fail(f"sector bounds never tightened below {target}")
        for depth in range(40):
            den = precision_denominator(depth)
            iv = arc_length_bounds(_cos_interval_of_dir(direction, den), 1, depth)
            if iv.width < target:
                break
        else:
            pytest.fail(f"arc bounds never tightened below {target}")


def test_segment_ratio_partition_against_bisection():
    # clause (vii) flavour on a segment pair: sampled fractions split cleanly
    r = E.ratio(E.segment_sqrt(3), E.segment_sqrt(2))
    members, cocut = 0, 0
    for m in range(1, 13):
        for n in range(1, 13):
            side = E.cut_member(r, m, n)
            assert side is not E.CutSide.UNKNOWN
            if side is E.CutSide.ABOVE:
                cocut += 1
            else:
                members += 1
    assert members and cocut


def test_region_kind_embedding_of_polygons():
    # the polygon kind embeds in the region kind: contents agree exactly
    poly = E.Polygon([(0, 0), (4, 0), (1, 3)])
    as_region = E.region_magnitude(E.Region([poly]))
    assert E.magnitude_exact(as_region) == E.content(poly)
    assert E.compare(
        as_region, E.region_magnitude(E.Region([E.unit_square()]))
    ) is E.Comparison.GREATER
