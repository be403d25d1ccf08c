"""Base-k measurement: lay off the unit, subdivide by k, emit digits.

Digits are produced lazily.  Digit i satisfies the sandwich

    (n0 + n1/k + ... + ni/k^i) * u  <=  b  <  (... + (ni+1)/k^i) * u

and the stream terminates exactly when b hits a subdivision point (the
measured ratio is a base-k-terminating rational), instead of emitting an
infinite tail of k-1 digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .errors import EudoxosError, IndistinguishableError, NotArchimedeanError
from .intervals import Interval
from .kinds import DEFAULT_RESOLUTION, Magnitude, Resolution
from .ratios import CutSide, Ratio, _side_fn

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass
class DigitStream:
    base: int
    int_part: int
    _producer: Iterator[int] = field(repr=False)
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
                d = next(self._producer)
            except StopIteration:
                self._terminated = True
                break
            except EudoxosError as exc:
                self._error = exc
                raise
            self._digits.append(d)
        if i < len(self._digits):
            return self._digits[i]
        return None

    def prefix(self, length: int) -> list[int]:
        self.digit(length - 1) if length > 0 else None
        return self._digits[:length]

    def partial_sum(self, length: int) -> Fraction:
        digits = self.prefix(length)
        total = Fraction(self.int_part)
        scale = Fraction(1)
        for d in digits:
            scale /= self.base
            total += d * scale
        return total

    def terminated_within(self, length: int) -> bool:
        self.digit(length)  # peek one past the prefix to learn termination
        return self._terminated and len(self._digits) <= length


def measure_positional(
    b: Magnitude,
    u: Magnitude,
    base: int = 10,
    res: Resolution = DEFAULT_RESOLUTION,
) -> DigitStream:
    """Positional expansion of the ratio b:u in the given base."""
    if base < 2:
        raise ValueError("base must be at least 2")
    r = Ratio(b, u)
    side = _side_fn(r, res)

    def place(f: Fraction) -> CutSide:
        s = side(f.numerator, f.denominator)
        if s is CutSide.UNKNOWN:
            raise IndistinguishableError(
                "digit undetermined at this resolution; measure with a finer one"
            )
        return s

    # Integer part: unique n0 with n0*u <= b < (n0+1)*u.
    hi = 1
    for _ in range(256):
        if place(Fraction(hi)) is CutSide.ABOVE:
            break
        hi *= 2
    else:
        raise NotArchimedeanError("the unit never exceeds the measured magnitude")
    lo = 0  # place(0) would be ABOVE-trivial: magnitudes are positive
    while hi - lo > 1:
        mid = (lo + hi) // 2
        s = place(Fraction(mid))
        if s is CutSide.ABOVE:
            hi = mid
        else:
            lo = mid
    n0 = lo
    exact_at_n0 = n0 >= 1 and place(Fraction(n0)) is CutSide.BOUNDARY

    def digits() -> Iterator[int]:
        if exact_at_n0:
            return
        total = Fraction(n0)
        scale = Fraction(1)
        while True:
            scale /= base
            d_lo, d_hi = 0, base - 1  # invariant: total + d_lo*scale <= value
            while d_lo < d_hi:
                mid = (d_lo + d_hi + 1) // 2
                if place(total + mid * scale) is CutSide.ABOVE:
                    d_hi = mid - 1
                else:
                    d_lo = mid
            total += d_lo * scale
            yield d_lo
            if d_lo > 0 and place(total) is CutSide.BOUNDARY:
                return

    return DigitStream(base=base, int_part=n0, _producer=digits())


def stream_to_enclosure(s: DigitStream, prefix_len: int) -> Interval:
    """[partial sum, partial sum + base^-prefix] (a point once terminated)."""
    if prefix_len < 0:
        raise ValueError("prefix length must be non-negative")
    total = s.partial_sum(prefix_len)
    if s.terminated_within(prefix_len):
        return Interval.point(total)
    return Interval(total, total + Fraction(1, s.base**prefix_len))


def decimal_display(iv: Interval, max_digits: int = 12) -> str:
    """Decimal digits certain from the enclosure (the common prefix of the
    positional expansions of its endpoints); empty when none agree."""
    import math as _math

    best = None
    for k in range(max_digits + 1):
        scale = 10**k
        flo = _math.floor(iv.lo * scale)
        if flo != _math.floor(iv.hi * scale):
            break
        best = (flo, k)
    if best is None:
        return ""
    n, k = best
    if k == 0:
        return f"{n}..."
    sign = "-" if n < 0 else ""
    digits = str(abs(n)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}..."


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
