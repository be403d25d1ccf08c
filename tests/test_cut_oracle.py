"""The resumable cut oracle against the walking oracle it replaced."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import eudoxos as E
from conftest import linear_witness_scan, walking_cut_oracle
from eudoxos import ratios
from eudoxos.intervals import Interval

RESOLUTIONS = [E.Resolution(eps) for eps in (F(1, 2**53), F(1, 2**10), F(1, 3**7), F(1, 2))]
BOUND = 30
# an angle ratio's exact equimultiples grow with the multiplier, so each
# binary digit costs about four times the one before: decimal prefixes stay short
DIGITS = {2: 12, 10: 4}


def _angle(arm):
    return E.angle_magnitude(E.angle_from_points((arm[0], 0), (0, 0), arm))


def family() -> dict[str, E.Ratio]:
    """Fresh ratios of every kind of cut oracle: exact values, exact-compare
    kinds and enclosures.  Of the enclosures, √2·√2:2 sits on a rational
    boundary it cannot certify, "slow 3/2" shrinks so slowly that only the
    depth cap stops a walk at eps below 1/2, and the binary measurement of
    √2:1 and the disk:square π start wide, so their oracles resume deep."""
    root2 = E.magnitude_enclosure(E.segment_sqrt(2))
    binary_root2 = E.to_real(E.ratio(E.segment_sqrt(2), E.segment_rational(1)))
    slow = E.RealEnclosure(lambda d: Interval(F(3, 2) - F(1, d + 1), F(3, 2) + F(1, d + 1)))
    right = E.angle_magnitude(E.right_angle())
    one = E.segment_rational(1)
    return {
        "√2:1": E.ratio(E.segment_sqrt(2), one),
        "√8:2": E.ratio(E.segment_sqrt(8), E.segment_rational(2)),
        "√3:√2": E.ratio(E.segment_sqrt(3), E.segment_sqrt(2)),
        "3:2": E.ratio(E.naturals(3), E.naturals(2)),
        "6:4": E.ratio(E.naturals(6), E.naturals(4)),
        "1:2": E.ratio(E.naturals(1), E.naturals(2)),
        "7/5 segment": E.ratio(E.segment_rational(F(7, 5)), one),
        "∠(3,4) : right": E.ratio(_angle((3, 4)), right),
        "∠(1,1) : right": E.ratio(_angle((1, 1)), right),
        "(1,1):(1,0)": E.ratio(E.lex_pair(1, 1), E.lex_pair(1, 0)),
        "(1,0):(1,0)": E.ratio(E.lex_pair(1, 0), E.lex_pair(1, 0)),
        "√2·√2:2": E.ratio(E.segment_from_enclosure(root2 * root2), E.segment_rational(2)),
        "slow 3/2": E.ratio(E.segment_from_enclosure(slow), one),
        "binary √2:1": E.ratio(E.segment_from_enclosure(binary_root2), one),
        "disk:square": E.ratio(E.region_magnitude(E.Region([E.disk((0, 0), 1)])),
                               E.region_magnitude(E.Region([E.unit_square()]))),
    }


def _answer(fn, *args):
    try:
        return fn(*args)
    except E.EudoxosError as exc:
        return type(exc).__name__, str(exc)


def _digits(r: E.Ratio, base: int, res: E.Resolution):
    stream = E.measure_positional(r.num, r.den, base, res)
    out = [stream.int_part]
    for i in range(DIGITS[base]):
        d = stream.digit(i)
        out.append((d, stream.terminated))
        if d is None:
            break
    return out


def records() -> list:
    """Verdicts, cut sides and digits over fresh ratios, in one fixed order.

    The ratios are shared by all queries, so the value enclosures' caches
    carry the query history from one record to the next.
    """
    rs = family()
    out = []
    for res in RESOLUTIONS:
        for name1, r1 in rs.items():
            for name2, r2 in rs.items():
                for verdict in (E.eq_E, E.eq_L, E.less_E):
                    out.append((verdict.__name__, name1, name2, res.eps,
                                _answer(verdict, r1, r2, BOUND, res)))
        for name, r in rs.items():
            for m in range(1, 10):
                for n in range(1, 10):
                    out.append(("cut_member", name, m, n, res.eps,
                                _answer(E.cut_member, r, m, n, res)))
            for base in (2, 10):
                out.append(("digits", name, base, res.eps, _answer(_digits, r, base, res)))
    return out


def test_resumable_oracle_matches_walking_oracle():
    with walking_cut_oracle():
        walked = records()
    resumed = records()
    assert len(resumed) == len(walked) == len(RESOLUTIONS) * (15 * 15 * 3 + 15 * (81 + 2))
    for old, new in zip(walked, resumed):
        assert new == old
    # the set reaches undecided verdicts, unknown sides (the slow ratio's at
    # the depth cap) and digits that cannot be certified
    seen = {getattr(rec[-1], "outcome", rec[-1]) for rec in walked if rec[0] != "digits"}
    assert {E.Proportionality.UNDECIDED, E.LessOutcome.UNDECIDED, E.CutSide.UNKNOWN} <= seen
    assert any(rec[0] == "digits" and isinstance(rec[-1], tuple) for rec in walked)


def test_oracle_resumes_at_its_deepest_depth(monkeypatch):
    # √2:1 and √8:2 by their binary measurements, which start wide and
    # refine one digit per depth; a fixed sweep of fractions on both sides
    # of √2, each nearer than the one before, makes the walk go deep
    def binary(num, den):
        return E.ratio(E.segment_from_enclosure(E.to_real(E.ratio(num, den))), E.segment_rational(1))

    r1 = binary(E.segment_sqrt(2), E.segment_rational(1))
    r2 = binary(E.segment_sqrt(8), E.segment_rational(2))
    at_calls, deepest = 0, 0
    for enc in (r1._enclosure, r2._enclosure):
        def at(depth, at=enc.at):
            nonlocal at_calls, deepest
            at_calls, deepest = at_calls + 1, max(deepest, depth)
            return at(depth)
        monkeypatch.setattr(enc, "at", at, raising=False)

    oracles = [ratios._side_fn(r, E.DEFAULT_RESOLUTION) for r in (r1, r2)]
    queries = 0
    for n in range(1, 2001):
        m = math.isqrt(2 * n * n)
        for oracle in oracles:
            assert oracle(m, n) is E.CutSide.BELOW
            assert oracle(m + 1, n) is E.CutSide.ABOVE
            queries += 2
    cap = E.DEFAULT_RESOLUTION.depth_cap
    assert queries > 4 * cap and deepest >= 20
    # walking from depth 0 on every query made about 19 calls per query
    assert at_calls <= queries + 2 * cap


def test_shared_depth_stops_at_a_lower_cap():
    # oracles sharing the deepest depth read: one at a coarser resolution,
    # built after a finer one walked past its cap, stops there at once
    # instead of walking on until its wider eps is met
    read = []

    def refine(d):
        read.append(d)
        return Interval(F(3, 2) - F(1, d + 1), F(3, 2) + F(1, d + 1))

    slow = E.RealEnclosure(refine)
    r = E.ratio(E.segment_from_enclosure(slow), E.segment_rational(1))
    fine, coarse = E.Resolution(F(1, 2**40)), E.Resolution(F(1, 1000))
    reached = [None]
    assert ratios._side_fn(r, fine, reached)(3, 2) is E.CutSide.UNKNOWN
    assert max(read) == fine.depth_cap > coarse.depth_cap
    before = len(read)
    assert ratios._side_fn(r, coarse, reached)(3, 2) is E.CutSide.UNKNOWN
    assert ratios._side_fn(r, coarse, reached)(1, 1) is E.CutSide.BELOW
    assert len(read) == before


@pytest.mark.parametrize("lo_offset", [F(2**20), F(4, 3) * 2**16])
def test_window_below_zero_still_scans(lo_offset):
    # a valid enclosure of 1/3 whose depth-16 hull reaches below -1 (or to
    # exactly -1): the candidate window starts at 0, not at the hull.  The
    # segment is built from the bare enclosure: segment_from_enclosure would
    # read it from its first positive depth on
    enc = E.RealEnclosure(lambda d: Interval(F(1, 3) - lo_offset / 2**d, F(1, 3) + F(1, 2**d)))
    r = E.ratio(E.Magnitude(E.KindId.SEGMENTS, enc), E.segment_rational(1))
    assert ratios._hull(r).lo <= -1
    five = E.rational_ratio(5)
    for verdict in (E.eq_E, E.eq_L):
        v = verdict(r, five, 100)
        assert v.outcome is E.Proportionality.NOT_PROPORTIONAL and v.witness == (1, 1)
    v = E.less_E(r, five, 100)
    assert v.outcome is E.LessOutcome.LESS and v.witness == (1, 1)


def _verdicts(bound: int) -> list:
    """eq_E, eq_L and less_E over fresh ratios of the family, in one order."""
    out = []
    for res in RESOLUTIONS:
        rs = family()
        for name1, r1 in rs.items():
            for name2, r2 in rs.items():
                for verdict in (E.eq_E, E.eq_L, E.less_E):
                    out.append((verdict.__name__, name1, name2, res.eps, bound,
                                _answer(verdict, r1, r2, bound, res)))
    return out


@pytest.mark.parametrize("bound", [30, 200])
def test_descent_matches_linear_scan(bound):
    with linear_witness_scan():
        scanned = _verdicts(bound)
    descended = _verdicts(bound)
    assert len(descended) == len(scanned) == len(RESOLUTIONS) * 15 * 15 * 3
    for old, new in zip(scanned, descended):
        assert new == old
    outcomes = {rec[-1].outcome for rec in scanned}
    assert {E.Proportionality.UNDECIDED, E.LessOutcome.UNDECIDED, E.LessOutcome.LESS} <= outcomes


_NAT = st.integers(1, 40)
_SMALL = st.integers(0, 6)
_LEX = st.tuples(_SMALL, _SMALL).filter(lambda p: p != (0, 0))
_RATIO = st.one_of(
    st.tuples(st.just("naturals"), _NAT, _NAT),
    st.tuples(st.just("sqrt"), _NAT, _NAT),
    st.tuples(st.just("lex"), _LEX, _LEX),
)


def _build(spec) -> E.Ratio:
    kind, a, b = spec
    if kind == "naturals":
        return E.ratio(E.naturals(a), E.naturals(b))
    if kind == "sqrt":
        return E.ratio(E.segment_sqrt(a), E.segment_sqrt(b))
    return E.ratio(E.lex_pair(*a), E.lex_pair(*b))


@given(
    spec1=_RATIO,
    spec2=_RATIO,
    verdict=st.sampled_from([E.eq_E, E.eq_L, E.less_E]),
    res=st.sampled_from(RESOLUTIONS),
    bound=st.sampled_from([12, 60]),
)
def test_descent_matches_linear_scan_on_random_ratios(spec1, spec2, verdict, res, bound):
    with linear_witness_scan():
        scanned = _answer(verdict, _build(spec1), _build(spec2), bound, res)
    assert _answer(verdict, _build(spec1), _build(spec2), bound, res) == scanned


def _lex_ratio(num, den):
    return E.ratio(E.lex_pair(*num), E.lex_pair(*den))


@pytest.mark.parametrize("ask, want", [
    pytest.param(
        lambda b: E.less_E(_lex_ratio((3, 0), (1, 0)), _lex_ratio((1, 0), (1, 0)), b),
        E.LessVerdict(E.LessOutcome.NOT_LESS), id="less_E lex (3,0):(1,0) vs (1,0):(1,0)"),
    pytest.param(
        lambda b: E.eq_L(_lex_ratio((1, 3), (2, 0)), _lex_ratio((1, 0), (2, 0)), b),
        E.ProportionVerdict(E.Proportionality.PROPORTIONAL), id="eq_L lex (1,3):(2,0) vs (1,0):(2,0)"),
    pytest.param(
        lambda b: E.eq_E(E.ratio(E.naturals(1), E.naturals(5000)),
                         E.ratio(E.naturals(1), E.naturals(5001)), b),
        E.ProportionVerdict(E.Proportionality.NOT_PROPORTIONAL, witness=(1, 5000)),
        id="eq_E 1:5000 vs 1:5001"),
    pytest.param(
        lambda b: E.eq_E(E.ratio(E.segment_sqrt(2), E.segment_rational(1)),
                         E.ratio(E.segment_sqrt(8), E.segment_rational(2)), b),
        E.ProportionVerdict(E.Proportionality.PROPORTIONAL), id="eq_E sqrt2:1 vs sqrt8:2"),
])
def test_descent_places_logarithmically_many_fractions(monkeypatch, ask, want):
    # a scan by m+n places up to bound^2 fractions here (10^8 for the lex
    # pairs, whose ratios have no hull window)
    placements = 0
    side_fn = ratios._side_fn

    def counted_side_fn(r, res, reached=None):
        oracle = side_fn(r, res, reached)

        def counted(m, n):
            nonlocal placements
            placements += 1
            return oracle(m, n)
        return counted

    monkeypatch.setattr(ratios, "_side_fn", counted_side_fn)
    assert ask(10**4) == want
    assert placements <= 200
