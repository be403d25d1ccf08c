"""The cli workload: the README's example commands, each a cold process.

Every op runs ``python -m eudoxos.cli ...`` on the checkout's ``src`` with
``PYTHONDONTWRITEBYTECODE=1``, so interpreter start, the import of the
package (recompiled every time), the global pi table and ``_ASIN_MEMO`` are
paid per command.  A round runs every command once, in a seeded order.
Output and exit code of each command are checked against ``oracle``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction as F

import oracle
from workloads import Incorrect, Op, _rng, bits_of

_INTERVAL = re.compile(r"\[(-?\d+(?:/\d+)?), (-?\d+(?:/\d+)?)\]")
_BRANCH = re.compile(r"refuted exactly: (\d+), by enclosure: (\d+), undecided: \[(.*)\]\)")
_LIMIT = re.compile(r"45/2\^(\d+) deg: \[([0-9.]+), ([0-9.]+)\]")
_BIT_CAP = 4096  # CLI output is not capped by a target; this only bounds exact points


def environment(root: str) -> dict:
    env = dict(os.environ)
    env.pop("EUDOXOS_DEPTH", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _interval_check(ref, text_or_json="text", extra=None):
    """Check an enclosure printed as text or JSON against a reference value."""

    def check(out):
        if text_or_json == "json":
            payload = json.loads(out)
            lo, hi = F(payload["value"]["lo"]), F(payload["value"]["hi"])
            for key, want in (extra or {}).items():
                if payload.get(key) != want:
                    raise Incorrect(f"json field {key}={payload.get(key)!r}, expected {want!r}")
        else:
            match = _INTERVAL.search(out)
            if match is None:
                raise Incorrect(f"no interval in output {out!r}")
            lo, hi = F(match.group(1)), F(match.group(2))
            if extra and extra["suffix"] not in out:
                raise Incorrect(f"output {out!r} lacks {extra['suffix']!r}")
        if not oracle.encloses(lo, hi, ref()):
            raise Incorrect(f"enclosure [{float(lo)}, {float(hi)}] misses the reference")
        return bits_of(hi - lo, _BIT_CAP)

    return check


def _exact_check(want: str):
    def check(out):
        if out.strip() != want:
            raise Incorrect(f"output {out.strip()!r}, expected {want!r}")
        return None
    return check


def _render(value, base: int, length: int) -> str:
    """The README's digit rendering, rebuilt from the oracle's digits."""
    int_part, digits, terminated = oracle.digits(value, base, length)
    text = str(int_part)
    if digits:
        text += "." + "".join("0123456789abcdef"[d] for d in digits)
    text += " (terminated)" if terminated else "..."
    if base != 10:
        text += f" [base {base}]"
    return text


def _xii2_check(out):
    sizes = oracle.xii2_branch_sizes(F(1), F(2), 100)
    counts = _BRANCH.findall(out)
    if len(counts) != 4 or out.count("witnesses=[]") != 4:
        raise Incorrect("xii2 record lacks four witness-free branches")
    for (exact, enc, undecided), size in zip(counts, sizes):
        if undecided.strip() or int(exact) + int(enc) != size:
            raise Incorrect("xii2 branch scans classified the wrong pairs")
    return None


def _all_pass(expected_lines: int):
    def check(out):
        marks = [ln for ln in out.splitlines() if ln.strip().startswith("[")]
        if len(marks) != expected_lines or not all("[pass]" in ln for ln in marks):
            raise Incorrect(f"suite output not all [pass]: {out!r}")
        return None
    return check


def _limit_check(out):
    entries = _LIMIT.findall(out)
    if len(entries) != 9 or "lower bounds monotone: True; final within (1-1/1000, 1]: True" not in out:
        raise Incorrect("limit suite report incomplete or failed")
    for k, lo, hi in entries:
        t = oracle.pi() / (4 << int(k))
        ref = oracle.sin(t) / t
        if not Decimal(lo) - Decimal("1e-9") <= ref <= Decimal(hi) + Decimal("1e-9"):
            raise Incorrect(f"limit entry 45/2^{k} misses sin(t)/t")
    return None


def _eta_check(out):
    want = [
        "quarter-disk vs unit square: leq-certified",
        "unit square vs quarter-disk: gt-certified",
        "quarter-disk vs quarter-disk: undecided",
    ]
    if out.strip().splitlines() != want:
        raise Incorrect(f"eta demo output {out!r}")
    return None


def _witness_text() -> str:
    outcome, witness = oracle.proportion(("rat", F(3, 2)), ("rat", F(2)), 10, False)
    return outcome + (f" witness m={witness[0]} n={witness[1]}" if witness else "")


def _cut_text() -> str:
    return {-1: "below", 0: "boundary", 1: "above"}[oracle.side(3, 2, ("rat", F(3, 2)))]


def _half_pi():
    return oracle.pi() / 2


# (arguments, expected exit code, check).  A check returns certified bits
# for commands that print an enclosure, None otherwise.
COMMANDS = (
    ("pi --depth 4", 0, _interval_check(oracle.pi)),
    ("pi --depth 8 --format json", 0, _interval_check(oracle.pi, "json", {"sides": 1536, "depth": 8})),
    ("measure --value 5/4 --unit 1 --base 10", 0, _exact_check(_render(("rat", F(5, 4)), 10, 12))),
    ("measure --value 1 --unit 3 --base 2 --prefix 10", 0, _exact_check(_render(("rat", F(1, 3)), 2, 10))),
    ("angle 1,0 0,0 0,1 --depth 12", 0, _interval_check(_half_pi, extra={"suffix": "unit=d"})),
    ("angle 1,0 0,0 0,1 --unit e", 0, _interval_check(lambda: oracle.pi() / 4, extra={"suffix": "unit=e"})),
    ("sin --times-pi 1/6 --depth 10", 0, _interval_check(lambda: Decimal(1) / 2)),
    ("asin 1/2 --square --depth 14", 0, _interval_check(lambda: oracle.pi() / 4)),
    ("ratio add 1:2 1:3", 0, _exact_check(str(F(1, 2) + F(1, 3)))),
    ("ratio eq 3:2 2:1 --bound 10", 0, _exact_check(_witness_text())),
    ("ratio cut 3:2 3 2", 0, _exact_check(_cut_text())),
    ("xii2 1 2 --depth 10 --bound 100", 0, _xii2_check),
    ("check --suite proposition --bound 30", 0, _all_pass(6)),
    ("check --suite units", 0, _all_pass(20)),
    ("check --suite limit", 0, _limit_check),
    ("check --suite eta", 2, _eta_check),
)


def cli_round(seed, r: int, root: str, trace_file: str | None) -> list[Op]:
    """One op per README command, in a seeded order.

    With ``trace_file`` the command runs under ``cli_traced.py``, which
    installs the tracer in the child and writes its snapshot to that file.
    """
    env = environment(root)
    if trace_file is None:
        launcher = [sys.executable, "-m", "eudoxos.cli"]
    else:
        launcher = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_traced.py"), trace_file]
    order = list(COMMANDS)
    _rng("cli", seed, r).shuffle(order)
    ops = []
    for args, code, check in order:

        def run(args=args):
            return subprocess.run(launcher + args.split(), env=env, cwd=root,
                                  capture_output=True, text=True, timeout=120)

        def checked(proc, args=args, code=code, check=check):
            if proc.returncode != code:  # a wrong exit counts as a failed op
                print(f"`eudoxos {args}` exited {proc.returncode}, expected {code}: "
                      f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
                return True, None
            return False, check(proc.stdout)

        ops.append(Op(args, "cli", run, checked))
    return ops
