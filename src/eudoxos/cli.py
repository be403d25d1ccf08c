"""Command-line front end.

Grammar:
    eudoxos <pi|sin|cos|asin|measure|angle|ratio|xii2|check>
            [--depth N] [--base K] [--format text|json] [--bound N]
            [--suite NAME] [positional args...]

All numeric I/O is exact: fractions as "p/q" strings, decimal displays
derived from digit streams.  Exit codes: 0 success, 1 domain error,
2 honest undecidedness, 64 usage error.  EUDOXOS_DEPTH sets the default
refinement depth; flags override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .angles import (
    AngleUnit,
    angle_from_points,
    celebrated_limit_check,
    convert_measure,
    cos_analytic,
    measure_m,
    SqrtRational,
    sin_analytic,
    asin_integral,
)
from .archimedes import pi_enclosure, pi_interval
from .enclosures import RealEnclosure
from .errors import EudoxosError, IndistinguishableError, NotArchimedeanError
from .intervals import Interval
from .kinds import naturals, segment_rational
from .polygons import content, parse_polygon
from .positional import (
    decimal_display,
    measure_positional,
    render_stream,
    stream_to_enclosure,
)
from .ratios import (
    LessOutcome,
    Proportionality,
    Ratio,
    add_ratio,
    cut_member,
    eq_E,
    eq_L,
    inverse,
    less_E,
    mul_ratio,
    proposition_suite,
    exact_value,
)
from .angles import unit_relation_check
from .regions import (
    EtaResult,
    Region,
    Sector,
    format_enclosure,
    parse_region,
    region_content,
    region_eta,
    xii2_verify,
)
from .polygons import unit_square

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not an exact rational")


def _default_depth() -> int:
    env = os.environ.get("EUDOXOS_DEPTH")
    if env is not None:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return 12


def _materialize(enc: RealEnclosure, depth: int) -> Interval:
    """Refine through every depth so outputs nest across separate runs."""
    for d in range(depth):
        enc.at(d)
    return enc.at(depth)


def _emit_interval(iv: Interval, depth: int, args, status: str = "ok", extra=None) -> None:
    if args.format == "json":
        payload = {
            "value": {"lo": str(iv.lo), "hi": str(iv.hi)},
            "depth": depth,
            "status": status,
        }
        if extra:
            payload.update(extra)
        print(json.dumps(payload, sort_keys=True))
    else:
        approx = decimal_display(iv)
        prefix = f"{approx} " if approx else ""
        print(f"{prefix}{format_enclosure(iv)}")


def _rational_pair(a: Fraction, b: Fraction):
    """Same-kind magnitudes for two positive rationals: naturals when both
    are integers, exact rational segments otherwise."""
    if a.denominator == 1 and b.denominator == 1:
        return naturals(a.numerator), naturals(b.numerator)
    return segment_rational(a), segment_rational(b)


def _parse_ratio_arg(text: str) -> Ratio:
    """Parse "a/b:c/d" into a ratio of exact rational magnitudes."""
    num, _, den = text.partition(":")
    if not den:
        den = "1"
    return Ratio(*_rational_pair(Fraction(num), Fraction(den)))


def _cmd_pi(args) -> int:
    enc = pi_enclosure(args.depth)
    _emit_interval(enc.interval, args.depth, args, extra={"sides": enc.sides})
    return EXIT_OK


def _trig_argument(args):
    if args.times_pi is not None:
        factor = args.times_pi
        return RealEnclosure(lambda d: pi_interval(d).scale(factor))
    if args.value is None:
        raise EudoxosError("give a rational argument or --times-pi")
    return args.value


def _cmd_trig(args) -> int:
    fn = sin_analytic if args.command == "sin" else cos_analytic
    enc = fn(_trig_argument(args))
    _emit_interval(_materialize(enc, args.depth), args.depth, args)
    return EXIT_OK


def _cmd_asin(args) -> int:
    x = SqrtRational(args.value) if args.square else args.value
    enc = asin_integral(x)
    _emit_interval(_materialize(enc, args.depth), args.depth, args)
    return EXIT_OK


def _cmd_measure(args) -> int:
    if args.region:
        with open(args.region) as fh:
            region = parse_region(fh.read())
        iv = _materialize(region_content(region), args.depth)
        _emit_interval(iv, args.depth, args)
        return EXIT_OK
    if args.polygon:
        with open(args.polygon) as fh:
            poly = parse_polygon(fh.read())
        c = content(poly)
        if args.format == "json":
            print(json.dumps({"value": {"lo": str(c), "hi": str(c)}, "status": "ok"}))
        else:
            print(str(c))
        return EXIT_OK
    if args.value is None or args.unit is None:
        raise EudoxosError("measure needs --value and --unit (or a file input)")
    b_mag, u_mag = _rational_pair(args.value, args.unit)
    stream = measure_positional(b_mag, u_mag, base=args.base)
    prefix = args.prefix
    if args.format == "json":
        digits = stream.prefix(prefix)
        iv = stream_to_enclosure(stream, prefix)
        print(
            json.dumps(
                {
                    "int": str(stream.int_part),
                    "digits": digits,
                    "base": stream.base,
                    "terminated": stream.terminated_within(prefix),
                    "value": {"lo": str(iv.lo), "hi": str(iv.hi)},
                    "status": "ok",
                },
                sort_keys=True,
            )
        )
    else:
        print(render_stream(stream, prefix))
    return EXIT_OK


def _parse_point(text: str):
    x, _, y = text.partition(",")
    return (Fraction(x), Fraction(y))


def _cmd_angle(args) -> int:
    a = angle_from_points(
        _parse_point(args.points[0]),
        _parse_point(args.points[1]),
        _parse_point(args.points[2]),
    )
    unit = {"d": AngleUnit.D, "e": AngleUnit.E, "right": AngleUnit.RIGHT_ANGLE}[args.unit]
    measure = measure_m(a) if unit is AngleUnit.D else convert_measure(measure_m(a), unit)
    iv = _materialize(measure.value, args.depth)
    if args.format == "json":
        _emit_interval(iv, args.depth, args, extra={"unit": unit.value})
    else:
        approx = decimal_display(iv)
        head = f"{approx} " if approx else ""
        print(f"{head}[{iv.lo}, {iv.hi}] unit={unit.value}")
    return EXIT_OK


def _cmd_ratio(args) -> int:
    op = args.op
    r1 = _parse_ratio_arg(args.terms[0])
    if op == "inv":
        result = inverse(r1)
        v = exact_value(result)
        print(f"{v}" if args.format == "text" else json.dumps({"value": str(v), "status": "ok"}))
        return EXIT_OK
    if len(args.terms) < 2:
        raise EudoxosError(f"ratio {op} needs two ratio arguments")
    r2 = _parse_ratio_arg(args.terms[1])
    if op in ("add", "mul"):
        result = add_ratio(r1, r2) if op == "add" else mul_ratio(r1, r2)
        v = exact_value(result)
        print(f"{v}" if args.format == "text" else json.dumps({"value": str(v), "status": "ok"}))
        return EXIT_OK
    if op in ("eq", "eqL"):
        verdict = (eq_E if op == "eq" else eq_L)(r1, r2, args.bound)
        text = verdict.outcome.value
        if verdict.witness:
            text += f" witness m={verdict.witness[0]} n={verdict.witness[1]}"
        print(text if args.format == "text" else json.dumps(
            {"status": verdict.outcome.value, "witness": verdict.witness}))
        return EXIT_UNDECIDED if verdict.outcome is Proportionality.UNDECIDED else EXIT_OK
    if op == "less":
        verdict = less_E(r1, r2, args.bound)
        print(verdict.outcome.value if args.format == "text" else json.dumps(
            {"status": verdict.outcome.value, "witness": verdict.witness}))
        return EXIT_UNDECIDED if verdict.outcome is LessOutcome.UNDECIDED else EXIT_OK
    if op == "cut":
        if len(args.terms) < 3:
            raise EudoxosError("ratio cut takes <ratio> <m> <n>")
        m, n = int(args.terms[1]), int(args.terms[2])
        side = cut_member(r1, m, n)
        print(side.value if args.format == "text" else json.dumps({"status": side.value}))
        return EXIT_OK
    raise EudoxosError(f"unknown ratio operation {op!r}")


def _cmd_xii2(args) -> int:
    record = xii2_verify(args.r1, args.r2, depth=args.depth, search_bound=args.bound)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "value": {
                        "lo": str(record.ratio_interval.lo),
                        "hi": str(record.ratio_interval.hi),
                    },
                    "squares_ratio": str(record.squares_ratio),
                    "depth": record.exhaustion_steps,
                    "status": "undecided" if record.undecided else (
                        "ok" if record.passed else "failed"
                    ),
                },
                sort_keys=True,
            )
        )
    else:
        for line in record.lines():
            print(line)
    if record.undecided:
        return EXIT_UNDECIDED
    return EXIT_OK if record.passed else EXIT_DOMAIN


def _eta_demo(depth: int):
    square = unit_square()
    wedge = Sector((10, 10), 1, Fraction(0), Fraction(1, 4))
    wedge2 = Sector((20, 20), 1, Fraction(0), Fraction(1, 4))
    cases = [
        ("quarter-disk vs unit square", Region([wedge]), Region([square])),
        ("unit square vs quarter-disk", Region([square]), Region([wedge])),
        ("quarter-disk vs quarter-disk", Region([wedge]), Region([wedge2])),
    ]
    return [(label, region_eta(x, y, depth)) for label, x, y in cases]


def _cmd_check(args) -> int:
    suite = args.suite
    reports = {
        "proposition": lambda: proposition_suite(bound=args.bound),
        "units": lambda: unit_relation_check(depth=args.depth),
        "limit": lambda: celebrated_limit_check(depth=args.depth),
    }
    if suite in reports:
        report = reports[suite]()
        for line in report.lines():
            print(line)
        return EXIT_OK if report.passed else EXIT_DOMAIN
    if suite == "eta":
        undecided = False
        for label, result in _eta_demo(args.depth):
            print(f"{label}: {result.value}")
            undecided = undecided or result is EtaResult.UNDECIDED
        return EXIT_UNDECIDED if undecided else EXIT_OK
    raise EudoxosError(f"unknown suite {suite!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="eudoxos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    depth_default = _default_depth()

    def common(p):
        p.add_argument("--depth", type=int, default=depth_default)
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("pi", help="certified pi enclosure at a doubling depth")
    common(p)
    p.set_defaults(fn=_cmd_pi)

    for name in ("sin", "cos"):
        p = sub.add_parser(name, help=f"analytic {name} enclosure")
        common(p)
        p.add_argument("value", nargs="?", type=_fraction, default=None)
        p.add_argument("--times-pi", type=_fraction, default=None,
                       help="argument as a rational multiple of pi")
        p.set_defaults(fn=_cmd_trig)

    p = sub.add_parser("asin", help="certified integral of 1/sqrt(1-t^2)")
    common(p)
    p.add_argument("value", type=_fraction)
    p.add_argument("--square", action="store_true",
                   help="interpret the argument as x^2 (e.g. 1/2 for x=1/sqrt(2))")
    p.set_defaults(fn=_cmd_asin)

    p = sub.add_parser("measure", help="positional measurement / content files")
    common(p)
    p.add_argument("--value", type=_fraction, default=None)
    p.add_argument("--unit", type=_fraction, default=None)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--prefix", type=int, default=12)
    p.add_argument("--polygon", default=None, help="polygon file: content as p/q")
    p.add_argument("--region", default=None, help="region file: content enclosure")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("angle", help="measure of a point-triple angle")
    common(p)
    p.add_argument("points", nargs=3, help="three points 'x,y' with rational parts")
    p.add_argument("--unit", choices=("d", "e", "right"), default="d")
    p.set_defaults(fn=_cmd_angle)

    p = sub.add_parser("ratio", help="exact ratio arithmetic and cut queries")
    common(p)
    p.add_argument("op", choices=("add", "mul", "inv", "eq", "eqL", "less", "cut"))
    p.add_argument("terms", nargs="+")
    p.add_argument("--bound", type=int, default=1000)
    p.set_defaults(fn=_cmd_ratio)

    p = sub.add_parser("xii2", help="verification record for proposition XII.2")
    common(p)
    p.add_argument("r1", type=_fraction)
    p.add_argument("r2", type=_fraction)
    p.add_argument("--bound", type=int, default=100)
    p.set_defaults(fn=_cmd_xii2)

    p = sub.add_parser("check", help="verification suites")
    common(p)
    p.add_argument("--suite", required=True,
                   choices=("proposition", "units", "limit", "eta"))
    p.add_argument("--bound", type=int, default=30)
    p.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (IndistinguishableError, NotArchimedeanError) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except EudoxosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
