"""Independent references for the benchmark's correctness gate.

Nothing here imports eudoxos.  Transcendental references come from
``decimal`` series at 90 significant digits; verdicts, witnesses and digits
come from exact integer and ``Fraction`` arithmetic (squares are compared
instead of roots, digits are taken with ``math.isqrt``).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

PREC = 90
# Slack around a decimal reference: far below every width the benchmark asks
# for (the deepest request is about 2^-200), far above the series error.
TOL = Fraction(1, 10**80)

# -- decimal references ---------------------------------------------------------

_PI: list[Decimal] = []


def pi() -> Decimal:
    """pi by the alternating series from the decimal module documentation."""
    if not _PI:
        with localcontext() as ctx:
            ctx.prec = PREC + 5
            lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
            while s != lasts:
                lasts = s
                n, na = n + na, na + 8
                d, da = d + da, da + 32
                t = (t * n) / d
                s += t
        _PI.append(s)
    return _PI[0]


def dec(x) -> Decimal:
    if isinstance(x, Fraction):
        return Decimal(x.numerator) / Decimal(x.denominator)
    return Decimal(x)


def sqrt(q) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 5
        return dec(Fraction(q)).sqrt()


def atan(x: Decimal) -> Decimal:
    """atan for x >= 0: halve the argument until small, then the series."""
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        x = +x
        doublings = 0
        while x > Decimal("0.05"):
            x = x / (1 + (1 + x * x).sqrt())
            doublings += 1
        total, term, k, x2 = x, x, 1, x * x
        while True:
            term = -term * x2
            nxt = total + term / (2 * k + 1)
            if nxt == total:
                break
            total, k = nxt, k + 1
        return total * (1 << doublings)


def asin(x) -> Decimal:
    """asin of a rational x in (0, 1), or of sqrt(q) when given ("sqrt", q)."""
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        sq = Fraction(x[1]) if isinstance(x, tuple) else Fraction(x) ** 2
        return atan((dec(sq) / dec(1 - sq)).sqrt())


def direction_angle(d: int, x: int) -> Decimal:
    """atan2(x, d) for x > 0: the angle of the integer direction d + ix."""
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        if d == 0:
            return pi() / 2
        t = atan(Decimal(x) / Decimal(abs(d)))
        return t if d > 0 else pi() - t


def sin(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        x = dec(x) if not isinstance(x, Decimal) else x
        two_pi = 2 * pi()
        x = x - two_pi * (x / two_pi).to_integral_value(rounding="ROUND_FLOOR")
        total, term, k = x, x, 1
        while True:
            term = -term * x * x / ((2 * k) * (2 * k + 1))
            nxt = total + term
            if nxt == total:
                return total
            total, k = nxt, k + 1


def cos(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC + 10
        x = dec(x) if not isinstance(x, Decimal) else x
        return sin(x + pi() / 2)


def encloses(lo: Fraction, hi: Fraction, ref: Decimal) -> bool:
    """True when [lo, hi] contains the reference, up to TOL."""
    r = Fraction(ref)
    return lo <= r + TOL and r - TOL <= hi


# -- exact values: ("rat", v) is the rational v, ("sqrt", q) is sqrt(q) ---------


def value(kind: str, q: Fraction):
    """Normalise: a square root of a rational square is the rational root."""
    q = Fraction(q)
    if kind == "sqrt":
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return ("rat", Fraction(rn, rd))
    return (kind, q)


def side(m: int, n: int, v) -> int:
    """Place m/n against the value v: BELOW when m/n < v."""
    kind, q = v
    if kind == "rat":
        lhs, rhs = m * q.denominator, n * q.numerator
    else:
        lhs, rhs = m * m * q.denominator, n * n * q.numerator
    return (lhs > rhs) - (lhs < rhs)


def compare(a, b) -> int:
    """Exact order of two values (rat or sqrt), by squares when needed."""
    ka, qa = a
    kb, qb = b
    sa = qa if ka == "sqrt" else qa * qa
    sb = qb if kb == "sqrt" else qb * qb
    return (sa > sb) - (sa < sb)  # all values are positive


def _first_at_least(s: int, lo_m: int, hi_m: int, v) -> int:
    """Least m in [lo_m, hi_m] with m/(s-m) >= v, else hi_m + 1."""
    while lo_m <= hi_m:
        mid = (lo_m + hi_m) // 2
        if side(mid, s - mid, v) >= 0:
            hi_m = mid - 1
        else:
            lo_m = mid + 1
    return lo_m


def _in_cut(c: int) -> bool:
    return c <= 0


def proportion(v1, v2, bound: int, cut_equality: bool):
    """Expected (outcome, witness) of eq_E (or eq_L) over Archimedean values.

    The scan order is that of the library's definition: pairs (m, n) with
    m, n <= bound by increasing m + n, then increasing m.  Only fractions
    between the two values can tell them apart.
    """
    if compare(v1, v2) == 0:
        return "proportional", None
    lo_v, hi_v = (v1, v2) if compare(v1, v2) < 0 else (v2, v1)
    for s in range(2, 2 * bound + 1):
        lo_m, hi_m = max(1, s - bound), min(s - 1, bound)
        m = _first_at_least(s, lo_m, hi_m, lo_v)
        while m <= hi_m and side(m, s - m, hi_v) <= 0:
            c1, c2 = side(m, s - m, v1), side(m, s - m, v2)
            differ = _in_cut(c1) != _in_cut(c2) if cut_equality else c1 != c2
            if differ:
                return "not-proportional", (m, s - m)
            m += 1
    return "proportional", None


def less(v1, v2, bound: int):
    """Expected (outcome, witness) of less_E: least (m, n), by m + n then n,
    with v1 <= n/m < v2."""
    if compare(v1, v2) >= 0:
        return "not-less", None
    for s in range(2, 2 * bound + 1):
        lo_n, hi_n = max(1, s - bound), min(s - 1, bound)
        n = _first_at_least(s, lo_n, hi_n, v1)
        if n <= hi_n and side(n, s - n, v2) < 0:
            return "less", (s - n, n)
    return "not-less", None


def less_witness_acceptable(v1, v2, least, got) -> bool:
    """A less_E witness other than the least is accepted only when it is a
    valid witness and the least one sits exactly on v1: a boundary that
    enclosure-backed magnitudes cannot certify, which the scan skips."""
    if got is None or least is None:
        return False
    m, n = got
    return side(n, m, v1) >= 0 and side(n, m, v2) < 0 and side(least[1], least[0], v1) == 0


def lex_proportion(num1, den1, num2, den2, bound: int, cut_equality: bool):
    """Brute-force eq_E/eq_L over lexicographic pairs (no Archimedean shortcut)."""

    def lex_side(m, n, num, den):
        a = (m * den[0], m * den[1])
        b = (n * num[0], n * num[1])
        return (a > b) - (a < b)

    for s in range(2, 2 * bound + 1):
        for m in range(max(1, s - bound), min(s - 1, bound) + 1):
            n = s - m
            c1 = lex_side(m, n, num1, den1)
            c2 = lex_side(m, n, num2, den2)
            differ = _in_cut(c1) != _in_cut(c2) if cut_equality else c1 != c2
            if differ:
                return "not-proportional", (m, n)
    return "proportional", None


def archimedean_witness(x, y, bound: int):
    """Least n <= bound with n*x > y, for values x, y of one kind."""
    kx, qx = x
    ky, qy = y
    if kx == "sqrt":  # n*sqrt(qx) > sqrt(qy)  <=>  n^2 qx > qy
        n = isqrt(int(qy / qx))
        while n * n * qx <= qy:
            n += 1
        while n > 1 and (n - 1) ** 2 * qx > qy:
            n -= 1
    else:
        n = int(qy // qx) + 1
    return n if n <= bound else None


def digits(v, base: int, length: int):
    """(integer part, first `length` fractional digits, terminated?) of v."""
    kind, q = v

    def floor_scaled(i: int) -> int:  # floor(v * base^i)
        if kind == "rat":
            return q.numerator * base**i // q.denominator
        return isqrt(q.numerator * base ** (2 * i) // q.denominator)

    int_part = floor_scaled(0)
    if kind == "rat" and q.denominator == 1:
        return int_part, [], True
    out = []
    prev = int_part
    for i in range(1, length + 1):
        cur = floor_scaled(i)
        out.append(cur - base * prev)
        prev = cur
        if kind == "rat" and q * base**i == cur:
            return int_part, out, True
    return int_part, out, False


def polygon_content(vertices) -> Fraction:
    """Shoelace content of a simple polygon, taken positive."""
    total = Fraction(0)
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(total) / 2


def xii2_branch_sizes(r1: Fraction, r2: Fraction, bound: int) -> list[int]:
    """Number of pairs each XII.2 branch scan must classify."""
    s1, s2 = 4 * r1 * r1, 4 * r2 * r2
    sizes = [0, 0, 0, 0]
    for n1 in range(1, bound):
        for n2 in range(1, bound - n1 + 1):
            a, b = n1 * s2, n2 * s1
            sizes[0] += a <= b
            sizes[1] += b <= a
            sizes[2] += a < b
            sizes[3] += b < a
    return sizes
