"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import json
import random
import time
from fractions import Fraction

import eudoxos as E
from conftest import random_convex_polygon, random_fraction
from eudoxos.cli import main as cli_main


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_01_archimedes_bounds(capsys):
    import eudoxos.archimedes as arch

    arch._pi_chain = None
    arch._pi_cache.clear()
    t0 = time.time()
    code = cli_main(["pi", "--depth", "4", "--format", "json"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    payload = json.loads(out)
    lo, hi = Fraction(payload["value"]["lo"]), Fraction(payload["value"]["hi"])
    ok = code == 0 and payload["sides"] == 96
    ok = ok and Fraction(3) + Fraction(10, 71) <= lo and hi <= Fraction(3) + Fraction(1, 7)
    ok = ok and elapsed < 1.0
    prev = E.pi_enclosure(0)
    for depth in range(1, 13):
        cur = E.pi_enclosure(depth)
        ok = ok and prev.lower < cur.lower and cur.upper < prev.upper
        prev = cur
    ok = ok and E.pi_enclosure(12).width <= Fraction(1, 10**4)
    with capsys.disabled():
        report(1, ok, f"96-gon pi in [{float(lo):.6f}, {float(hi):.6f}], "
                      f"nested to depth 12, width {float(E.pi_enclosure(12).width):.2e}, "
                      f"{elapsed:.3f}s")


def test_criterion_02_unit_relation(capsys):
    angles = E.sample_acute_angles(20)
    ok = len(angles) == 20
    for a in angles:
        m = E.measure_m(a).at(10)
        two_mu = E.measure_mu(a).at(10).scale(2)
        margin = min(m.hi, two_mu.hi) - max(m.lo, two_mu.lo)
        ok = ok and margin > 0
    rep = E.unit_relation_check(depth=10, angles=angles)
    ok = ok and rep.passed
    with capsys.disabled():
        report(2, ok, "m = 2*mu with positive overlap margin on 20 angles; e = 2d")


def test_criterion_03_right_angle_measure(capsys):
    m = E.measure_m(E.right_angle()).at(12)
    half_pi = E.pi_interval(12).scale(Fraction(1, 2))
    ok = m.intersects(half_pi) and m.width <= Fraction(1, 1000)
    with capsys.disabled():
        report(3, ok, f"m(right angle) ∩ pi/2 enclosure, width {float(m.width):.2e}")


def test_criterion_04_integral_identity(capsys):
    t0 = time.time()
    iv = E.asin_integral(E.SqrtRational(Fraction(1, 2))).at(14)
    elapsed = time.time() - t0
    doubled = iv.scale(2)
    half_pi = E.pi_interval(14).scale(Fraction(1, 2))
    ok = doubled.intersects(half_pi)
    ok = ok and iv.width <= Fraction(1, 1000)
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        report(4, ok, f"2*asin(1/sqrt2) meets pi/2, width {float(iv.width):.2e}, "
                      f"{elapsed:.2f}s")


def test_criterion_05_explication_round_trip(capsys):
    angles = E.sample_acute_angles(20)
    ok = True
    for a in angles:
        analytic = E.sin_analytic(E.measure_m(a)).at(12)
        geometric = E.sin_geometric(a).at(12)
        ok = ok and analytic.intersects(geometric)
    pinned = E.sin_geometric(E.angle_from_points((5, 0), (0, 0), (3, 4)))
    ok = ok and pinned.exact == Fraction(4, 5)
    with capsys.disabled():
        report(5, ok, "sin_analytic(m(a)) meets sin_geometric(a) on 20 angles; "
                      "3-4-5 pinned to 4/5")


def test_criterion_06_celebrated_limit(capsys):
    rep = E.celebrated_limit_check(halvings=8, depth=12, tolerance=Fraction(1, 1000))
    lows = [e.ratio.lo for e in rep.entries]
    ok = all(a < b for a, b in zip(lows, lows[1:]))
    final = rep.entries[-1].ratio
    ok = ok and final.lo > 1 - Fraction(1, 1000) and final.hi <= 1
    with capsys.disabled():
        report(6, ok, f"ratios rise monotonically to [{float(final.lo):.7f}, "
                      f"{float(final.hi):.7f}] within (1-1e-3, 1]")


def test_criterion_07_proposition_suite(capsys):
    t0 = time.time()
    rep = E.proposition_suite(30)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 10.0
    witness_line = next(
        (c for c in rep.clauses if "not(ii)" in c.clause), None
    )
    ok = ok and witness_line is not None and witness_line.passed
    with capsys.disabled():
        report(7, ok, f"clauses (i),(iii),(vii) pass; LexPairs separation witness "
                      f"produced; {elapsed:.2f}s")


def test_criterion_08_measurement_ratio_agreement(capsys):
    rng = random.Random(1885)
    ok = True
    for _ in range(100):
        b, u = random_fraction(rng), random_fraction(rng)
        stream = E.measure_positional(
            E.segment_rational(b), E.segment_rational(u), base=10
        )
        value = b / u
        for prefix in range(1, 7):
            iv = E.stream_to_enclosure(stream, prefix)
            ok = ok and iv.lo <= value <= iv.hi
        iv6 = E.stream_to_enclosure(stream, 6)
        ok = ok and iv6.width <= Fraction(1, 10**6)
    with capsys.disabled():
        report(8, ok, "100 random rational pairs: every prefix encloses b/u; "
                      "width at prefix 6 <= 1e-6")


def test_criterion_09_polygon_kind_laws(capsys):
    rng = random.Random(300)
    rotations = [
        (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(5, 13), Fraction(12, 13)),
        (Fraction(-8, 17), Fraction(15, 17)),
    ]
    ok = True
    for i in range(200):
        poly = random_convex_polygon(rng)
        tris = E.fan_triangles(poly)
        ok = ok and sum(E.content(t) for t in tris) == E.content(poly)
        rot = rotations[i % len(rotations)]
        moved = E.transform(poly, rotation=rot, translation=(Fraction(i, 7), -i))
        ok = ok and E.content(moved) == E.content(poly)
        ok = ok and E.rho1_equivalent(poly, moved)
        other = tris[0]
        ok = ok and (
            E.rho1_equivalent(poly, other) == (E.content(poly) == E.content(other))
        )
    for a, b in [(Fraction(3, 2), Fraction(5, 7)), (Fraction(2), Fraction(9, 4))]:
        rect = E.rectangle(a, b)
        bridge = E.ratio(E.polygon_class(E.content(rect)), E.polygon_class(1))
        prod = E.mul_ratio(E.rational_ratio(a), E.rational_ratio(b))
        ok = ok and E.eq_E(bridge, prod, 60).is_proportional
    with capsys.disabled():
        report(9, ok, "200 random polygons: additivity, congruence invariance, "
                      "rho1 <=> equal content, rectangle bridge eq_E")


def test_criterion_10_xii2_verification(capsys):
    results = []
    ok = True
    for r1, r2 in [(1, 2), (2, 3)]:
        t0 = time.time()
        rec = E.xii2_verify(r1, r2, depth=10, search_bound=100)
        elapsed = time.time() - t0
        ok = ok and rec.passed and elapsed < 10.0
        results.append((r1, r2, elapsed))
    with capsys.disabled():
        times = ", ".join(f"({a},{b}): {t:.2f}s" for a, b, t in results)
        report(10, ok, f"ratio enclosures contain the squares ratios, no witness "
                       f"with n1+n2 <= 100; {times}")
