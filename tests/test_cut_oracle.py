"""The resumable cut oracle against the walking oracle it replaced."""

from fractions import Fraction as F

import pytest

import eudoxos as E
from conftest import walking_cut_oracle
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
    # √2:1 and √8:2 by their binary measurements: the √ enclosures are 2^-48
    # wide from depth 0, so their own window holds no pair to scan, while
    # these keep it 2^-16 wide and make each query refine
    def binary(num, den):
        return E.ratio(E.segment_from_enclosure(E.to_real(E.ratio(num, den))), E.segment_rational(1))

    r1 = binary(E.segment_sqrt(2), E.segment_rational(1))
    r2 = binary(E.segment_sqrt(8), E.segment_rational(2))
    at_calls = queries = 0
    for enc in (r1._enclosure, r2._enclosure):
        def at(depth, at=enc.at):
            nonlocal at_calls
            at_calls += 1
            return at(depth)
        monkeypatch.setattr(enc, "at", at, raising=False)

    side_fn = ratios._side_fn

    def counted_side_fn(r, res):
        oracle = side_fn(r, res)

        def counted(m, n):
            nonlocal queries
            queries += 1
            return oracle(m, n)
        return counted

    monkeypatch.setattr(ratios, "_side_fn", counted_side_fn)
    assert E.eq_E(r1, r2, 10**4).is_proportional
    cap = E.DEFAULT_RESOLUTION.depth_cap
    assert queries > 4 * cap
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
    # exactly -1): the candidate window starts at 0, not at the hull
    enc = E.RealEnclosure(lambda d: Interval(F(1, 3) - lo_offset / 2**d, F(1, 3) + F(1, 2**d)))
    r = E.ratio(E.segment_from_enclosure(enc), E.segment_rational(1))
    assert ratios._hull(r).lo <= -1
    five = E.rational_ratio(5)
    for verdict in (E.eq_E, E.eq_L):
        v = verdict(r, five, 100)
        assert v.outcome is E.Proportionality.NOT_PROPORTIONAL and v.witness == (1, 1)
    v = E.less_E(r, five, 100)
    assert v.outcome is E.LessOutcome.LESS and v.witness == (1, 1)
