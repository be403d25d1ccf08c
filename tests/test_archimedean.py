"""The Archimedean axiom: witnesses and integer parts with no cap on the search.

Every kind but the lex quasi-kind is Archimedean, so a multiple of the unit
exceeds any magnitude however large, and only lex pairs may raise
NotArchimedean.  The differential tests hold the one galloping search to the
capped bisection and doubling it replaced (kept in ``conftest``).
"""

import math
import random
from fractions import Fraction

import pytest

import eudoxos as E
from conftest import bisection_witness, doubling_int_part
from eudoxos import positional
from eudoxos.cli import main


def outcome(fn):
    try:
        return fn()
    except E.EudoxosError as exc:
        return type(exc)


def seeded_pairs(seed: int) -> list[tuple[E.Magnitude, E.Magnitude]]:
    """(x, y) pairs of naturals, polygon classes, square-root segments and
    lex pairs, with exact multiples and infinitesimals among them."""
    rng = random.Random(seed)

    def lex():
        a, b = rng.randint(0, 4), rng.randint(0, 9)
        return E.lex_pair(a, b or int(a == 0))

    pairs = []
    for _ in range(4):
        pairs.append((E.naturals(rng.randint(1, 40)), E.naturals(rng.randint(1, 2000))))
        pairs.append((E.polygon_class(Fraction(rng.randint(1, 50), rng.randint(1, 50))),
                      E.polygon_class(Fraction(rng.randint(1, 2000), rng.randint(1, 30)))))
        pairs.append((E.segment_sqrt(rng.randint(1, 60)), E.segment_sqrt(rng.randint(1, 24000))))
        pairs.append((lex(), lex()))
    n, a = rng.randint(2, 9), rng.choice((2, 3, 5, 7))
    pairs += [
        (E.naturals(n), E.naturals(n * rng.randint(1, 300))),
        (E.polygon_class(Fraction(1, n)), E.polygon_class(rng.randint(1, 300))),
        (E.segment_sqrt(2), E.segment_sqrt(8)),
        (E.segment_sqrt(a), E.segment_sqrt(n * n * a)),
        (E.lex_pair(1, 2), E.lex_pair(n, 2 * n)),
        (E.lex_pair(0, 1), E.lex_pair(1, 0)),
        (E.lex_pair(1, 0), E.lex_pair(0, n)),
        (E.lex_pair(0, 3), E.lex_pair(0, 7 * n)),
    ]
    return pairs


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_witness_matches_bisection(seed):
    for x, y in seeded_pairs(seed):
        w = bisection_witness(x, y, 10**6)
        for bound in {1, 10**6} | ({w, w - 1} if w else set()):
            want = bisection_witness(x, y, bound)
            assert E.archimedean_witness(x, y, bound) == want, (x, y, bound)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_part_matches_doubling(seed, monkeypatch):
    # the gallop places the same fractions in the same order as the doubling
    probes = []
    side_fn = positional._side_fn

    def recording(r, res, reached=None):
        side = side_fn(r, res, reached)
        return lambda m, n: probes.append((m, n)) or side(m, n)

    monkeypatch.setattr(positional, "_side_fn", recording)
    for x, y in seeded_pairs(seed):
        for b, u in ((y, x), (x, y)):
            probes.clear()
            want = outcome(lambda: doubling_int_part(b, u))
            want_probes = list(probes)
            probes.clear()
            s = outcome(lambda: E.measure_positional(b, u, base=2))
            got = s if isinstance(s, type) else (s.int_part, s.terminated)
            if got is E.NotArchimedeanError:
                assert want is got and probes == []  # no placement: never_exceeds
            else:
                assert got == want and probes == want_probes, (b, u)


def test_large_rational_measures_from_the_cli(capsys):
    assert main(["measure", "--value", str(2**300), "--unit", "1"]) == 0
    assert capsys.readouterr().out.strip() == f"{2**300} (terminated)"


def test_to_real_reads_past_many_leading_zeros():
    r = E.ratio(E.segment_sqrt(2), E.segment_rational(2**70))
    assert E.to_real(r).at(3) == E.Interval(Fraction(1, 2**70), Fraction(1, 2**69))


def test_integer_part_beyond_two_to_the_256():
    s = E.measure_positional(E.segment_sqrt(2**601), E.segment_rational(1), base=2)
    assert s.int_part == math.isqrt(2**601) and s.int_part.bit_length() == 301


def test_lex_pair_beyond_two_to_the_256_measures():
    s = E.measure_positional(E.lex_pair(2**300, 0), E.lex_pair(1, 0))
    assert s.int_part == 2**300 and s.terminated


def test_witness_gallops_to_a_large_multiple():
    x, y = E.lex_pair(0, 1), E.lex_pair(0, 10**9)
    assert E.archimedean_witness(x, y, 2 * 10**9) == 10**9 + 1
    assert E.archimedean_witness(x, y, 10**9) is None
