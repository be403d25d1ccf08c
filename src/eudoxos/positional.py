"""Base-k measurement: lay off the unit, subdivide by k, emit digits.

Digits are produced lazily.  Digit i satisfies the sandwich

    (n0 + n1/k + ... + ni/k^i) * u  <=  b  <  (... + (ni+1)/k^i) * u

and the stream terminates exactly when b hits a subdivision point (the
measured ratio is a base-k-terminating rational), instead of emitting an
infinite tail of k-1 digits.  Digit i is placed at resolution eps * k^-i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .errors import DomainError, EudoxosError, IndistinguishableError, NotArchimedeanError
from .intervals import Interval
from .kinds import DEFAULT_RESOLUTION, Magnitude, Resolution, _gallop, ops_for
from .ratios import CutSide, Ratio, _side_fn

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass
class DigitStream:
    """Digits of a measurement, produced lazily.

    The producer yields (digit, last) pairs; ``last`` marks the digit at
    which the measured ratio hit a subdivision point, so termination is
    known without asking for the digit after it.
    """

    base: int
    int_part: int
    _producer: Iterator[tuple[int, bool]] = field(repr=False)
    _digits: list[int] = field(default_factory=list)
    _terminated: bool = False
    _error: Optional[EudoxosError] = None

    @property
    def terminated(self) -> bool:
        """True once the stream is known to have ended."""
        return self._terminated

    def digit(self, i: int) -> Optional[int]:
        """The i-th fractional digit (0-based), or None past termination.

        A digit the producer could not certify raises, and keeps raising on
        every later request past the certified digits.
        """
        while len(self._digits) <= i and not self._terminated:
            if self._error is not None:
                raise self._error
            try:
                d, self._terminated = next(self._producer)
            except EudoxosError as exc:
                self._error = exc
                raise
            self._digits.append(d)
        if i < len(self._digits):
            return self._digits[i]
        return None

    def prefix(self, length: int) -> list[int]:
        if length < 0:
            raise DomainError("prefix length must be non-negative")
        if length > 0:
            self.digit(length - 1)
        return self._digits[:length]

    def partial_sum(self, length: int) -> Fraction:
        digits = self.prefix(length)
        total = self.int_part
        for d in digits:
            total = total * self.base + d
        return Fraction(total, self.base ** len(digits))

    def terminated_within(self, length: int) -> bool:
        self.prefix(length)
        return self._terminated and len(self._digits) <= length


def measure_positional(
    b: Magnitude,
    u: Magnitude,
    base: int = 10,
    res: Resolution = DEFAULT_RESOLUTION,
) -> DigitStream:
    """Positional expansion of the ratio b:u in the given base.

    The integer part is measured at resolution ``res`` and fractional digit
    i (from 1) at res.eps / base**i, so the resolution keeps pace with the
    subdivision and only a true boundary leaves a digit undetermined.
    """
    if base < 2:
        raise DomainError("base must be at least 2")
    r = Ratio(b, u)

    # one oracle per digit, all sharing the deepest depth read: each digit's
    # finer eps resumes where the coarser digits before it stopped
    reached: list = [None]

    def placer(eps: Fraction) -> Callable[[int, int], CutSide]:
        side = _side_fn(r, Resolution(eps), reached)

        def place(m: int, n: int) -> CutSide:
            g = math.gcd(m, n)
            s = side(m // g, n // g)
            if s is CutSide.UNKNOWN:
                raise IndistinguishableError(
                    "digit undetermined at this resolution; measure with a finer one"
                )
            return s

        return place

    # Integer part: unique n0 with n0*u <= b < (n0+1)*u, and whether b hits it.
    if ops_for(b.kind).never_exceeds(u.payload, b.payload):
        raise NotArchimedeanError("the unit never exceeds the measured magnitude")
    place, sides = placer(res.eps), {}

    def not_above(n: int) -> bool:
        sides[n] = place(n, 1)
        return sides[n] is not CutSide.ABOVE

    lo = _gallop(not_above)
    exact = sides.get(lo) is CutSide.BOUNDARY

    def digits() -> Iterator[tuple[int, bool]]:
        num, den = lo, 1  # the partial sum num/den, den = base**i
        while True:
            num, den = num * base, den * base
            place = placer(res.eps / den)
            d_lo, d_hi, last = 0, base - 1, False  # num + d_lo is not above
            while d_lo < d_hi:
                mid = (d_lo + d_hi + 1) // 2
                s = place(num + mid, den)
                if s is CutSide.ABOVE:
                    d_hi = mid - 1
                else:
                    d_lo, last = mid, s is CutSide.BOUNDARY
            num += d_lo
            yield d_lo, last

    return DigitStream(base=base, int_part=lo, _producer=digits(), _terminated=exact)


def stream_to_enclosure(s: DigitStream, prefix_len: int) -> Interval:
    """[partial sum, partial sum + base^-prefix] (a point once terminated)."""
    total = s.partial_sum(prefix_len)
    if s.terminated_within(prefix_len):
        return Interval.point(total)
    return Interval(total, total + Fraction(1, s.base**prefix_len))


def decimal_display(iv: Interval, max_digits: int = 12) -> str:
    """Decimal digits certain from the enclosure (the common prefix of the
    positional expansions of its endpoints); empty when none agree.  Below
    zero they are the digits of the mirror -iv after a minus sign."""
    if iv.hi < 0:
        digits = decimal_display(-iv, max_digits)
        return f"-{digits}" if digits else ""
    best = None
    for k in range(max_digits + 1):
        scale = 10**k
        flo = math.floor(iv.lo * scale)
        if flo != math.floor(iv.hi * scale):
            break
        best = (flo, k)
    if best is None:
        return ""
    n, k = best
    if k == 0:
        return f"{n}..."
    digits = str(n).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}..."


def render_stream(s: DigitStream, max_digits: int = 12) -> str:
    """Textual rendering "int.d1d2..." with termination and base annotations."""
    digits = s.prefix(max_digits)
    if s.base <= len(_DIGIT_CHARS):
        body = "".join(_DIGIT_CHARS[d] for d in digits)
    else:
        body = ".".join(str(d) for d in digits)
    text = str(s.int_part)
    if digits:
        text += "." + body
    done = s.terminated_within(max_digits)
    if not done:
        text += "..."
    if done:
        text += " (terminated)"
    if s.base != 10:
        text += f" [base {s.base}]"
    return text
