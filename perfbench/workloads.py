"""Seeded in-process workloads: refine-point, refine-walk and decide.

A workload is a sequence of rounds.  A round holds one op per slot, so every
round has the same mix; only the seeded values differ.  Each slot also has a
ladder of sizes (depths, walk targets, bounds or prefix lengths); every block
of ``LADDER`` consecutive rounds visits each rung once, in a seeded order.
Mixes and size spreads are therefore identical from seed to seed, and the
seed only picks the values, which keeps the figures steady across seeds.

An op is a pair of closures: ``run`` calls the public eudoxos API and is the
only timed part; ``check`` compares the result with ``oracle`` and returns
``(failed, bits)``, or raises ``Incorrect``.  Library entry points are looked
up on the modules at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import oracle

LADDER = 8


class Incorrect(Exception):
    """A result contradicts the oracle: the benchmark run is invalid."""


@dataclass
class Op:
    slot: str
    category: str  # refine, verdict, witness, digits, xii2 or cli
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, Optional[float]]]


def _lib():
    import eudoxos
    import eudoxos.angles
    import eudoxos.polygons
    import eudoxos.regions

    return eudoxos


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _rung(family: str, seed, slot: str, r: int) -> int:
    block = r // LADDER
    order = list(range(LADDER))
    _rng(family, seed, "ladder", slot, block).shuffle(order)
    return order[r % LADDER]


def bits_of(width: F, cap: float) -> float:
    """Certified bits -log2(width), capped at the target."""
    if width <= 0:
        return float(cap)
    return min(float(cap), math.log2(width.denominator) - math.log2(width.numerator))


# -- value generators ------------------------------------------------------------


def _arm(rng, lo=-6, hi=6):
    while True:
        v = (rng.randint(lo, hi), rng.randint(lo, hi))
        if v != (0, 0):
            return v


def _lattice_angle(rng, acute=False):
    """Arms u, v of a non-degenerate lattice angle at a lattice vertex."""
    while True:
        u, v = _arm(rng), _arm(rng)
        cross = u[0] * v[1] - u[1] * v[0]
        dot = u[0] * v[0] + u[1] * v[1]
        if cross != 0 and (dot > 0 or not acute):
            return (rng.randint(-3, 3), rng.randint(-3, 3)), u, v


def _angle_points(b, u, v):
    return (b[0] + u[0], b[1] + u[1]), b, (b[0] + v[0], b[1] + v[1])


def _theta(u, v):
    """Reference angle between lattice arms u and v, in (0, pi)."""
    dot = u[0] * v[0] + u[1] * v[1]
    cross = abs(u[0] * v[1] - u[1] * v[0])
    g = math.gcd(abs(dot), cross)
    return oracle.direction_angle(dot // g, cross // g)


def _convex_polygon(rng, scale=1):
    """Convex hull of random lattice points (monotone chain), >= 3 vertices."""
    while True:
        pts = sorted({(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(7)})
        if len(pts) < 3:
            continue

        def half(points):
            out = []
            for p in points:
                while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
                ) <= 0:
                    out.pop()
                out.append(p)
            return out

        hull = half(pts)[:-1] + half(pts[::-1])[:-1]
        if len(hull) >= 3:
            return [(x * scale, y * scale) for x, y in hull]


def _nonsquare(rng, lo=2, hi=40):
    while True:
        a = rng.randint(lo, hi)
        if math.isqrt(a) ** 2 != a:
            return a


def _irrational(a: int, c: int) -> bool:
    """Whether sqrt(a/c) is irrational, i.e. a*c is not a perfect square."""
    return math.isqrt(a * c) ** 2 != a * c


def _sqrt_pair(rng, lo=2, hi=40):
    """Non-squares a, c with sqrt(a/c) irrational.  A rational value behind a
    sqrt enclosure is a known defect (see defects.py); it is kept out of the
    timed mix so that no timed op fails."""
    while True:
        a, c = _nonsquare(rng, lo, hi), _nonsquare(rng, lo, hi)
        if _irrational(a, c):
            return a, c


def _frac(rng, num_hi, den_hi):
    return F(rng.randint(1, num_hi), rng.randint(1, den_hi))


# -- refine-point and refine-walk ------------------------------------------------

# (rate in bits per depth, walk-target ladder).  A point op asks at depth
# ceil(target / rate); a walk op walks to the target, capped at
# target // rate + 4 depths.  Targets stop at 52 bits, where pi-routed values
# stop narrowing near 2^-60, and at 8 bits for sin/cos of rationals, where
# some arguments stall near 2^-9 (known defects, see defects.py): no timed op
# may fail.
_WIDE = (10, 16, 22, 28, 34, 40, 46, 52)
_REFINE = {
    "pi_real": (2, _WIDE),
    "sector_content": (2, _WIDE),
    "region_content": (2, _WIDE),
    "measure_m": (2, _WIDE),
    "measure_m_windings": (2, _WIDE),
    "measure_mu": (2, _WIDE),
    "measure_mu_windings": (2, _WIDE),
    "sin_geometric": (16, _WIDE),
    "asin_low": (1, (5, 6, 7, 8, 9, 10, 11, 12)),
    "asin_high": (1, (5, 6, 7, 8, 9, 10, 11, 12)),
    "sin_rational": (1, (1, 2, 3, 4, 5, 6, 7, 8)),
    "cos_rational": (1, (1, 2, 3, 4, 5, 6, 7, 8)),
    "sin_times_pi": (1, (3, 4, 5, 6, 7, 8, 9, 10)),
    "cos_times_pi": (1, (3, 4, 5, 6, 7, 8, 9, 10)),
    "to_real_sqrt": (1, _WIDE),
}
# Depth offsets: depth = ceil(target / rate) - offset for families whose
# first depths already certify some bits (keeps point ops at the width a
# walk to the same target would stop at).
_OFFSET = {"asin_low": 4, "asin_high": 2, "sin_times_pi": -1, "cos_times_pi": -1}


def _refine_value(E, slot: str, rng):
    """(build, reference) for one seeded value of the slot's family."""
    if slot == "pi_real":
        return lambda: E.pi_real(), oracle.pi
    if slot == "sector_content":
        center = (rng.randint(-5, 5), rng.randint(-5, 5))
        r, start, extent = F(rng.randint(1, 4), rng.randint(1, 2)), F(rng.randint(0, 11), 12), F(rng.randint(1, 12), 12)
        return (lambda: E.sector_content(E.Sector(center, r, start, extent)),
                lambda: oracle.dec(extent * r * r) * oracle.pi())
    if slot == "region_content":
        verts = _convex_polygon(rng)
        r, start, extent = F(rng.randint(1, 3)), F(rng.randint(0, 7), 8), F(rng.randint(1, 8), 8)
        exact = oracle.polygon_content(verts)
        return (lambda: E.region_content(E.Region([E.Polygon(verts), E.Sector((20, 20), r, start, extent)])),
                lambda: oracle.dec(exact) + oracle.dec(extent * r * r) * oracle.pi())
    if slot.startswith("measure_"):
        b, u, v = _lattice_angle(rng)
        w = rng.randint(1, 2) if slot.endswith("windings") else 0
        pts = _angle_points(b, u, v)
        if slot.startswith("measure_mu"):
            return (lambda: E.measure_mu(E.angle_from_points(*pts, windings=w)).value,
                    lambda: _theta(u, v) / 2 + w * oracle.pi())
        return (lambda: E.measure_m(E.angle_from_points(*pts, windings=w)).value,
                lambda: _theta(u, v) + 2 * w * oracle.pi())
    if slot == "sin_geometric":
        b, u, v = _lattice_angle(rng, acute=True)
        pts = _angle_points(b, u, v)
        cross = u[0] * v[1] - u[1] * v[0]
        sq = F(cross * cross, (u[0] ** 2 + u[1] ** 2) * (v[0] ** 2 + v[1] ** 2))
        return lambda: E.sin_geometric(E.angle_from_points(*pts)), lambda: oracle.sqrt(sq)
    if slot == "asin_low":  # x^2 < 1/2, half of them given by their square
        if rng.random() < 0.5:
            x = F(rng.randint(1, 69), 100)
            return lambda: E.asin_integral(x), lambda: oracle.asin(x)
        q = F(rng.randint(1, 49), 100)
        return lambda: E.asin_integral(E.SqrtRational(q)), lambda: oracle.asin(("sqrt", q))
    if slot == "asin_high":  # x^2 > 1/2: the complement identity through pi
        if rng.random() < 0.5:
            x = F(rng.randint(72, 98), 100)
            return lambda: E.asin_integral(x), lambda: oracle.asin(x)
        q = F(rng.randint(51, 97), 100)
        return lambda: E.asin_integral(E.SqrtRational(q)), lambda: oracle.asin(("sqrt", q))
    if slot in ("sin_rational", "cos_rational"):
        x = F(rng.randint(1, 72), rng.randint(1, 12))
        if slot == "sin_rational":
            return lambda: E.sin_analytic(x), lambda: oracle.sin(x)
        return lambda: E.cos_analytic(x), lambda: oracle.cos(x)
    if slot in ("sin_times_pi", "cos_times_pi"):
        q = F(rng.randint(1, 23), 12)

        def argument():  # what `eudoxos sin --times-pi q` builds
            return E.RealEnclosure(lambda d: E.pi_interval(d).scale(q))

        ref_arg = lambda: oracle.dec(q) * oracle.pi()  # noqa: E731
        if slot == "sin_times_pi":
            return lambda: E.sin_analytic(argument()), lambda: oracle.sin(ref_arg())
        return lambda: E.cos_analytic(argument()), lambda: oracle.cos(ref_arg())
    if slot == "to_real_sqrt":
        a, c = _sqrt_pair(rng, 2, 60)
        return (lambda: E.to_real(E.ratio(E.segment_sqrt(a), E.segment_sqrt(c))),
                lambda: oracle.sqrt(F(a, c)))
    raise ValueError(slot)


def _check_intervals(ivs, ref, target: int, walk: bool):
    r = ref()
    prev = None
    for iv in ivs:
        if not oracle.encloses(iv.lo, iv.hi, r):
            raise Incorrect(f"enclosure [{float(iv.lo)}, {float(iv.hi)}] misses {r:.25}")
        if prev is not None and not (prev.lo <= iv.lo and iv.hi <= prev.hi):
            raise Incorrect("walk depths do not nest")
        prev = iv
    width = ivs[-1].width
    failed = walk and width > F(1, 1 << target)
    return failed, bits_of(width, target)


def refine_round(workload: str, seed, r: int) -> list[Op]:
    E = _lib()
    walk = workload == "refine-walk"
    ops = []
    for slot, (rate, ladder) in _REFINE.items():
        rng = _rng("refine", seed, slot, r)  # same values for point and walk
        target = ladder[_rung("refine", seed, slot, r)]
        build, ref = _refine_value(E, slot, rng)
        if walk:
            cap = target // rate + 4
            eps = F(1, 1 << target)

            def run(build=build, cap=cap, eps=eps):
                enc = build()
                ivs = []
                for depth in range(cap + 1):
                    iv = enc.at(depth)
                    ivs.append(iv)
                    if iv.width <= eps:
                        break
                return ivs
        else:
            depth = max(0, -(-target // rate) - _OFFSET.get(slot, 0))

            def run(build=build, depth=depth):
                return [build().at(depth)]

        ops.append(Op(slot, "refine", run,
                      lambda ivs, ref=ref, t=target: _check_intervals(ivs, ref, t, walk)))
    return ops


# -- decide ------------------------------------------------------------------------


def _verdict_check(expected, values=None):
    """Verdict and least witness must match; ``values`` marks a less_E query,
    whose scan may skip an uncertifiable boundary pair (see oracle)."""
    def check(verdict):
        outcome = verdict.outcome.value
        if outcome == "undecided":
            return True, None  # honest, but the truth is decidable here
        if outcome != expected[0] or verdict.witness != expected[1]:
            if not (values and outcome == expected[0] and oracle.less_witness_acceptable(
                    *values, expected[1], verdict.witness)):
                raise Incorrect(f"verdict {outcome} {verdict.witness}, expected {expected}")
        return False, None
    return check


def _sqrt_ratio(E, a, c):
    return E.ratio(E.segment_sqrt(a), E.segment_sqrt(c))


def _poly_ratio(E, p, q):
    P = E.polygons
    return E.ratio(P.as_magnitude(E.Polygon(p)), P.as_magnitude(E.Polygon(q)))


def _angle_ratio(E, pts, k, l):
    a = E.angle_magnitude(E.angle_from_points(*pts))
    return E.ratio(E.kmul(k, a), E.kmul(l, a))


def _lex_ratio(E, num, den):
    return E.ratio(E.lex_pair(*num), E.lex_pair(*den))


def _digits_op(E, slot, b_mag, u_mag, value, base, length):
    def run():
        stream = E.measure_positional(b_mag(), u_mag(), base=base)
        return stream.int_part, stream.prefix(length)

    int_part, digits, _ = oracle.digits(value, base, length)

    def check(got):
        if got != (int_part, digits):
            raise Incorrect(f"{slot}: digits {got}, expected {(int_part, digits)}")
        bits = length * math.log2(base)
        return False, bits

    return Op(slot, "digits", run, check)


def _decide_slot(E, slot: str, rng, rung: int) -> Op:
    sq, rat = "sqrt", "rat"
    if slot in ("eqE_sqrt_prop", "lessE_sqrt_equal"):
        (a, c), k = _sqrt_pair(rng), rng.randint(2, 4)
        bound = 10_000 if slot == "eqE_sqrt_prop" else 1_000
        v = oracle.value(sq, F(a, c))
        if slot == "eqE_sqrt_prop":
            expected = oracle.proportion(v, v, bound, False)
            fn = lambda: E.eq_E(_sqrt_ratio(E, a, c), _sqrt_ratio(E, a * k * k, c * k * k), bound)  # noqa: E731
        else:
            expected = oracle.less(v, v, bound)
            fn = lambda: E.less_E(_sqrt_ratio(E, a, c), _sqrt_ratio(E, a * k * k, c * k * k), bound)  # noqa: E731
        return Op(slot, "verdict", fn, _verdict_check(expected))
    if slot in ("eqL_poly_prop", "eqE_poly_np"):
        p, q = _convex_polygon(rng), _convex_polygon(rng)
        if slot == "eqL_poly_prop":
            t = rng.randint(2, 3)
            p2, q2, bound = [(x * t, y * t) for x, y in p], [(x * t, y * t) for x, y in q], 1_000
        else:
            p2, q2, bound = _convex_polygon(rng), _convex_polygon(rng), 10_000
        v1 = (rat, oracle.polygon_content(p) / oracle.polygon_content(q))
        v2 = (rat, oracle.polygon_content(p2) / oracle.polygon_content(q2))
        cut_eq = slot.startswith("eqL")
        expected = oracle.proportion(v1, v2, bound, cut_eq)
        return Op(slot, "verdict", lambda: (E.eq_L if cut_eq else E.eq_E)(
            _poly_ratio(E, p, q), _poly_ratio(E, p2, q2), bound), _verdict_check(expected))
    if slot in ("eqE_nat_prop", "eqE_nat_np"):
        p, q = rng.randint(1, 30), rng.randint(1, 30)
        if slot == "eqE_nat_prop":
            j, k = rng.randint(1, 5), rng.randint(2, 5)
            r1, r2, bound = (p * j, q * j), (p * k, q * k), 1_000
        else:
            while True:
                r1, r2 = (p, q), (rng.randint(1, 30), rng.randint(1, 30))
                if F(*r1) != F(*r2):
                    break
            bound = 10_000
        expected = oracle.proportion((rat, F(*r1)), (rat, F(*r2)), bound, False)
        return Op(slot, "verdict", lambda: E.eq_E(
            E.ratio(E.naturals(r1[0]), E.naturals(r1[1])),
            E.ratio(E.naturals(r2[0]), E.naturals(r2[1])), bound), _verdict_check(expected))
    if slot in ("eqL_segrat_prop", "eqL_segrat_np"):
        x, y = _frac(rng, 20, 9), _frac(rng, 20, 9)
        if slot == "eqL_segrat_prop":
            t = _frac(rng, 7, 5)
            x2, y2, bound = x * t, y * t, 100
        else:
            x2, y2, bound = _frac(rng, 20, 9), _frac(rng, 20, 9), 10_000
        expected = oracle.proportion((rat, x / y), (rat, x2 / y2), bound, True)
        return Op(slot, "verdict", lambda: E.eq_L(
            E.ratio(E.segment_rational(x), E.segment_rational(y)),
            E.ratio(E.segment_rational(x2), E.segment_rational(y2)), bound), _verdict_check(expected))
    if slot in ("eqE_angle_prop", "eqE_angle_np"):
        pa = _angle_points(*_lattice_angle(rng))
        pb = _angle_points(*_lattice_angle(rng))
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        if slot == "eqE_angle_prop":
            k2, l2, bound = k, l, 100
        else:
            while True:
                k2, l2 = rng.randint(1, 4), rng.randint(1, 4)
                if F(k2, l2) != F(k, l):
                    break
            bound = 10_000
        expected = oracle.proportion((rat, F(k, l)), (rat, F(k2, l2)), bound, False)
        return Op(slot, "verdict", lambda: E.eq_E(
            _angle_ratio(E, pa, k, l), _angle_ratio(E, pb, k2, l2), bound), _verdict_check(expected))
    if slot == "lex":
        a0, a1, b0, b1 = rng.randint(1, 4), rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4)
        if rng.random() < 0.5:  # proportional representatives under eq_E
            k = rng.randint(2, 3)
            n1, d1, n2, d2, cut_eq = (a0, a1), (b0, b1), (k * a0, k * a1), (k * b0, k * b1), False
        else:  # an infinitesimal part: cut-equal, not Eudoxus-proportional
            n1, d1, n2, d2, cut_eq = (a0, a1 + 1), (b0, 0), (a0, 0), (b0, 0), True
        expected = oracle.lex_proportion(n1, d1, n2, d2, 100, cut_eq)
        return Op(slot, "verdict", lambda: (E.eq_L if cut_eq else E.eq_E)(
            _lex_ratio(E, n1, d1), _lex_ratio(E, n2, d2), 100), _verdict_check(expected))
    if slot == "eqE_sqrt_np":
        while True:
            (a, c), (b, d) = _sqrt_pair(rng), _sqrt_pair(rng)
            v1, v2 = oracle.value(sq, F(a, c)), oracle.value(sq, F(b, d))
            if v1 != v2:
                break
        expected = oracle.proportion(v1, v2, 10_000, False)
        return Op(slot, "verdict", lambda: E.eq_E(
            _sqrt_ratio(E, a, c), _sqrt_ratio(E, b, d)), _verdict_check(expected))
    if slot == "lessE_sqrt_less":
        while True:
            (a, c), (b, d) = _sqrt_pair(rng), _sqrt_pair(rng)
            v1, v2 = oracle.value(sq, F(a, c)), oracle.value(sq, F(b, d))
            if oracle.compare(v1, v2) < 0:
                break
        expected = oracle.less(v1, v2, 10_000)
        return Op(slot, "verdict", lambda: E.less_E(
            _sqrt_ratio(E, a, c), _sqrt_ratio(E, b, d)), _verdict_check(expected, (v1, v2)))
    if slot == "lessE_nat_notless":
        while True:
            r1 = (rng.randint(1, 30), rng.randint(1, 30))
            r2 = (rng.randint(1, 30), rng.randint(1, 30))
            if F(*r1) > F(*r2):
                break
        expected = oracle.less((rat, F(*r1)), (rat, F(*r2)), 10_000)
        return Op(slot, "verdict", lambda: E.less_E(
            E.ratio(E.naturals(r1[0]), E.naturals(r1[1])),
            E.ratio(E.naturals(r2[0]), E.naturals(r2[1]))), _verdict_check(expected))
    if slot.startswith("cut_"):
        if slot == "cut_sqrt":
            a, c = _sqrt_pair(rng)
            v, build = oracle.value(sq, F(a, c)), lambda: _sqrt_ratio(E, a, c)
            m, n = rng.randint(1, 200), rng.randint(1, 200)
        elif slot == "cut_nat":
            p, q = rng.randint(1, 30), rng.randint(1, 30)
            v, build = (rat, F(p, q)), lambda: E.ratio(E.naturals(p), E.naturals(q))
            t = rng.randint(1, 3)  # one query in three sits on the boundary
            m, n = (p * t, q * t) if rng.random() < 1 / 3 else (rng.randint(1, 90), rng.randint(1, 90))
        else:
            pts = _angle_points(*_lattice_angle(rng))
            k, l = rng.randint(1, 4), rng.randint(1, 4)
            v, build = (rat, F(k, l)), lambda: _angle_ratio(E, pts, k, l)
            m, n = rng.randint(1, 12), rng.randint(1, 12)
        want = {-1: "below", 0: "boundary", 1: "above"}[oracle.side(m, n, v)]

        def check(side, want=want):
            if side.value == "unknown":
                return True, None
            if side.value != want:
                raise Incorrect(f"{slot}: cut side {side.value}, expected {want}")
            return False, None
        return Op(slot, "verdict", lambda: E.cut_member(build(), m, n), check)
    if slot in ("archw_sqrt", "archw_poly"):
        if slot == "archw_sqrt":
            a = _nonsquare(rng, 2, 30)
            b = rng.randint(50, 5000)
            x, y = (sq, F(a)), (sq, F(b))
            fn = lambda: E.archimedean_witness(E.segment_sqrt(a), E.segment_sqrt(b), 10_000)  # noqa: E731
        else:
            p, q = _convex_polygon(rng), _convex_polygon(rng, scale=rng.randint(2, 6))
            x, y = (rat, oracle.polygon_content(p)), (rat, oracle.polygon_content(q))
            P = E.polygons
            fn = lambda: E.archimedean_witness(  # noqa: E731
                P.as_magnitude(E.Polygon(p)), P.as_magnitude(E.Polygon(q)), 10_000)
        want = oracle.archimedean_witness(x, y, 10_000)

        def check(n, want=want):
            if n != want:
                raise Incorrect(f"{slot}: least witness {n}, expected {want}")
            return False, None
        return Op(slot, "witness", fn, check)
    if slot.startswith("digits_"):
        if slot == "digits_rat":
            p, q = rng.randint(1, 200), rng.randint(1, 60)
            base = (2, 10, 16)[rung % 3]
            length = 8 + 4 * rung
            return _digits_op(E, slot, lambda: E.naturals(p), lambda: E.naturals(q),
                              (rat, F(p, q)), base, length)
        a = _nonsquare(rng, 2, 60)
        c = rng.choice((1, _nonsquare(rng, 2, 60)))
        while not _irrational(a, c):
            c = _nonsquare(rng, 2, 60)
        # Prefixes stop short of the 2^-53 resolution cap (see defects.py):
        # over all pairs a, c of this slot the first undetermined digit is
        # binary digit 42, decimal digit 13 or hex digit 11 at the earliest.
        base, lengths = {
            "digits_b2": (2, (12, 16, 20, 24, 28, 32, 36, 40)),
            "digits_b10": (10, (5, 6, 7, 8, 9, 10, 11, 12)),
            "digits_b16": (16, (3, 4, 5, 6, 7, 8, 9, 10)),
        }[slot]
        u_mag = (lambda: E.segment_rational(1)) if c == 1 else (lambda: E.segment_sqrt(c))
        return _digits_op(E, slot, lambda: E.segment_sqrt(a), u_mag,
                          oracle.value(sq, F(a, c)), base, lengths[rung])
    if slot == "xii2":
        r1, r2 = _frac(rng, 5, 3), _frac(rng, 5, 3)
        bound = 16 + 4 * rung
        sizes = oracle.xii2_branch_sizes(r1, r2, bound)

        def check(record):
            if record.undecided:
                return True, None
            if not record.contains_at_every_depth or not record.passed:
                raise Incorrect("xii2: ratio enclosure or branch refutation failed")
            for scan, size in zip(record.branches, sizes):
                if scan.witnesses or scan.refuted_exact + scan.refuted_by_enclosure != size:
                    raise Incorrect(f"xii2: branch {scan.branch} classified the wrong pairs")
            return False, None
        return Op(slot, "xii2", lambda: E.xii2_verify(r1, r2, depth=10, search_bound=bound), check)
    raise ValueError(slot)


DECIDE_SLOTS = (
    "eqE_sqrt_prop", "eqL_poly_prop", "lessE_sqrt_equal", "eqE_nat_prop",
    "eqL_segrat_prop", "eqE_angle_prop", "lex",
    "eqE_nat_np", "eqE_sqrt_np", "eqL_segrat_np", "eqE_poly_np", "eqE_angle_np",
    "lessE_sqrt_less", "lessE_nat_notless",
    "cut_sqrt", "cut_nat", "cut_angle", "archw_sqrt", "archw_poly",
    "digits_b2", "digits_b10", "digits_b16", "digits_rat", "xii2",
)


def decide_round(seed, r: int) -> list[Op]:
    E = _lib()
    return [
        _decide_slot(E, slot, _rng("decide", seed, slot, r), _rung("decide", seed, slot, r))
        for slot in DECIDE_SLOTS
    ]
