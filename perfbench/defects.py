"""Known defects of eudoxos, probed once per run outside the timed loop.

The timed workloads hold only inputs every op answers, so that ``failed`` in
the result stays 0 and means the same from run to run.  The inputs that a
known defect makes fail are asked here instead, once per run of each
workload whose slots the defect touches, untimed and outside
``attempted``/``failed``; run.py prints whether each still reproduces.  An
answer that contradicts the oracle still aborts the run.

    pi_floor          pi_real walked to 2^-62 misses it: pi stops near 2^-60
    trig_stall        cos_analytic(29) walked to 2^-9 misses it: it stalls there
    sqrt_digits       digit 17 of sqrt 2 in base 10 is undetermined (2^-53 cap)
    rational_sqrt     to_real and eq_E of sqrt 8 : sqrt 2 (exactly 2) give up
    less_E_witness    less_E skips the undecidable least witness and answers
    stream_after_raise  a DigitStream that raised reports itself terminated
"""

from __future__ import annotations

from fractions import Fraction as F

import oracle
from workloads import Incorrect, _check_intervals, _lib


def _walk(enc, ref, target: int, rate: int):
    """Walk as refine-walk does, to 2^-target within its depth cap."""
    ivs = []
    for depth in range(target // rate + 4 + 1):
        ivs.append(enc.at(depth))
        if ivs[-1].width <= F(1, 1 << target):
            break
    missed, bits = _check_intervals(ivs, ref, target, walk=True)
    return missed, f"{bits:.1f} of {target} bits after {len(ivs)} depths"


def _pi_floor(E):
    return _walk(E.pi_real(), oracle.pi, 62, rate=2)


def _trig_stall(E):
    return _walk(E.cos_analytic(F(29)), lambda: oracle.cos(F(29)), 9, rate=1)


def _sqrt_digits(E):
    stream = E.measure_positional(E.segment_sqrt(2), E.segment_rational(1), base=10)
    want = oracle.digits(("sqrt", F(2)), 10, 17)[1]
    try:
        got = stream.prefix(17)
    except E.IndistinguishableError:
        return True, f"IndistinguishableError after {len(stream.prefix(16))} digits"
    if got != want:
        raise Incorrect(f"sqrt_digits: {got}, expected {want}")
    return False, "17 digits certified"


def _rational_sqrt(E):
    def eight_to_two():
        return E.ratio(E.segment_sqrt(8), E.segment_sqrt(2))

    notes = []
    try:
        _check_intervals([E.to_real(eight_to_two()).at(12)], lambda: oracle.dec(2), 12, walk=False)
    except E.IndistinguishableError:
        notes.append("to_real raises IndistinguishableError")
    verdict = E.eq_E(eight_to_two(), E.ratio(E.naturals(2), E.naturals(1)), 100)
    expected = oracle.proportion(("rat", F(2)), ("rat", F(2)), 100, False)
    if verdict.outcome.value == "undecided":
        notes.append("eq_E with 2:1 is UNDECIDED")
    elif (verdict.outcome.value, verdict.witness) != expected:
        raise Incorrect(f"rational_sqrt: eq_E {verdict.outcome.value}, expected {expected}")
    return bool(notes), "; ".join(notes) or "answered"


def _less_witness(E):
    three = E.ratio(E.segment_sqrt(3), E.segment_sqrt(3))
    seven = E.ratio(E.segment_sqrt(7), E.segment_sqrt(3))
    verdict = E.less_E(three, seven, 100)
    v1, v2 = ("sqrt", F(1)), ("sqrt", F(7, 3))
    expected = oracle.less(v1, v2, 100)
    if verdict.outcome.value == "undecided" or verdict.witness == expected[1]:
        return False, f"{verdict.outcome.value}, witness {verdict.witness}"
    if verdict.outcome.value != expected[0] or not oracle.less_witness_acceptable(
            v1, v2, expected[1], verdict.witness):
        raise Incorrect(f"less_E_witness: {verdict.outcome.value} {verdict.witness}")
    return True, f"witness {verdict.witness}, least {expected[1]}"


def _stream_after_raise(E):
    stream = E.measure_positional(E.segment_sqrt(2), E.segment_rational(1), base=10)
    try:
        stream.prefix(20)
    except E.IndistinguishableError:
        pass
    else:
        return False, "prefix(20) did not raise"
    try:
        again = stream.prefix(20)
    except E.IndistinguishableError:
        return False, "raises again"
    return stream.terminated, f"second prefix(20) gives {len(again)} digits, terminated={stream.terminated}"


_REFINE, _DECIDE = ("refine-point", "refine-walk"), ("decide",)
PROBES = {  # name: (workloads whose slots the defect touches, probe)
    "pi_floor": (_REFINE, _pi_floor),
    "trig_stall": (("refine-walk",), _trig_stall),
    "sqrt_digits": (_DECIDE, _sqrt_digits),
    "rational_sqrt": (_REFINE + _DECIDE, _rational_sqrt),
    "less_E_witness": (_DECIDE, _less_witness),
    "stream_after_raise": (_DECIDE, _stream_after_raise),
}


def probe_all(workload: str) -> dict:
    """{name: [reproduces, detail]} for the known defects of a workload."""
    return {name: list(probe(_lib())) for name, (workloads, probe) in PROBES.items()
            if workload in workloads}
