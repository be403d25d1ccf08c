"""Argument checks of the public entry points raise library errors."""

from fractions import Fraction

import pytest

import eudoxos as E
from eudoxos.archimedes import HalvingChain
from eudoxos.intervals import Interval


def _ratio():
    return E.ratio(E.naturals(1), E.naturals(2))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: E.Angle(None, None, None, windings=-1), id="angle windings"),
    pytest.param(lambda: E.Angle(None, None, None), id="angle without arms or turns"),
    pytest.param(lambda: HalvingChain(Interval.point(0), 64).sincos(-1), id="halving level"),
    pytest.param(lambda: E.pi_enclosure(-1), id="pi depth"),
    pytest.param(lambda: E.inscribed_outer_bounds(0, 1), id="polygon radius"),
    pytest.param(lambda: E.inscribed_outer_bounds(1, -1), id="doubling depth"),
    pytest.param(lambda: E.RealEnclosure.from_fraction(1).at(-1), id="enclosure depth"),
    pytest.param(lambda: E.Resolution(0), id="resolution eps"),
    pytest.param(lambda: E.kmul(0, E.naturals(1)), id="multiplier"),
    pytest.param(lambda: E.rectangle_normal_form(E.unit_square(), 0), id="rectangle side"),
    pytest.param(lambda: E.transform(E.unit_square(), rotation=(1, 1)), id="rotation"),
    pytest.param(lambda: E.measure_positional(E.naturals(1), E.naturals(2), base=1), id="base"),
    pytest.param(lambda: E.stream_to_enclosure(
        E.measure_positional(E.naturals(1), E.naturals(2)), -1), id="prefix length"),
    pytest.param(lambda: E.measure_positional(E.naturals(1), E.naturals(3)).prefix(-1),
                 id="prefix length of a stream"),
    pytest.param(lambda: E.render_stream(E.measure_positional(E.naturals(1), E.naturals(3)), -1),
                 id="prefix length of a rendering"),
    pytest.param(lambda: E.rational_ratio(0), id="ratio value"),
    pytest.param(lambda: E.cut_member(_ratio(), 0, 1), id="cut query"),
    pytest.param(lambda: E.scale_rational(0, 1, _ratio()), id="scaling"),
    pytest.param(lambda: E.Sector((0, 0), 0, 0, 1), id="sector radius"),
    pytest.param(lambda: E.Sector((0, 0), 1, 0, 2), id="sector extent"),
    pytest.param(lambda: E.Arc(0, turns=Fraction(1, 2)), id="arc radius"),
    pytest.param(lambda: E.Arc(1), id="arc without turns or angle"),
    pytest.param(lambda: E.arc_sup_b(E.Arc(1, angle=5)), id="arc angle"),
    pytest.param(lambda: E.Arc(1, turns="x"), id="arc turns"),
    pytest.param(lambda: E.Arc("x", turns=1), id="arc radius of no number"),
    pytest.param(lambda: E.Sector((0, 0), "x", 0, 1), id="sector radius of no number"),
    pytest.param(lambda: E.Sector(None, 1, 0, 1), id="sector center of no pair"),
    pytest.param(lambda: E.Sector((0,), 1, 0, 1), id="sector center of one number"),
    pytest.param(lambda: E.Sector((0, 0, 7), 1, 0, 1), id="sector center of three numbers"),
    pytest.param(lambda: E.disk((0, 0), None), id="disk radius of no number"),
    pytest.param(lambda: E.segment_rational("x"), id="segment length of no number"),
    pytest.param(lambda: E.segment_sqrt("x"), id="segment square of no number"),
    pytest.param(lambda: E.Region([E.unit_square(), (0, 0)]), id="region part"),
    pytest.param(lambda: E.xii2_verify(0, 1), id="xii2 radii"),
    pytest.param(lambda: E.xii2_verify(1, 2, depth=-1), id="xii2 depth"),
    pytest.param(lambda: E.parse_region("sector: 0,0,1"), id="sector line"),
    pytest.param(lambda: E.parse_region("circle: 1"), id="region generator"),
])
def test_argument_checks_raise_domain_errors(call):
    with pytest.raises(E.EudoxosError) as info:
        call()
    # a DomainError, which callers catching ValueError still catch
    assert info.type is E.DomainError
    assert isinstance(info.value, ValueError)
