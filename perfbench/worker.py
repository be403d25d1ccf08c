"""One benchmark process: set up, print READY, run the timed closed loop.

Started by run.py from the root of a checkout.  Prints ``READY <corrected>
<raw>`` once import, input generation and warm-up are done, timed from the
instant run.py spawned this process (``--spawned-at``, on the system-wide
monotonic clock), then, unless ``--probe`` is given, runs whole rounds until
``--seconds`` of op time have passed and enough ops exist for the tail
percentile, and prints one JSON line with its results.  Exit code 3 means an
incorrect result; nothing is printed after it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

sys.dont_write_bytecode = True

# Highest percentile rung with at least ten samples beyond it at the seed
# commit (2 cores, Python 3.11).  A run keeps going until it has the ops this
# rung needs, so the rung never changes between runs of one workload.
TAIL = {"refine-point": 99.5, "refine-walk": 99.0, "decide": 98.0, "cli": 90.0}
# Warm-up ops come from rounds of a fixed seed of their own, so that no timed
# query is replayed and set-up does the same work for every seed.  CLI
# processes share no cache, so two commands warm the file cache and the
# interpreter without tripling the set-up time.
WARMUP_OPS = {"refine-point": 30, "refine-walk": 15, "decide": 24, "cli": 2}
# mean_bits is taken over the first rounds only, so it is deterministic.
BITS_ROUNDS = {"refine-point": 16, "refine-walk": 16, "decide": 16, "cli": 1}
CATEGORIES_WITH_BITS = ("refine", "digits", "cli")

# Host-speed correction.  The shared 2-vCPU host this benchmark was built on
# runs the same code up to a third slower for seconds to minutes at a time
# (CPU time slows with wall time; there is no steal), which moved raw figures
# by 25-30 % between runs.  A fixed probe that uses no eudoxos code is timed
# at most every PROBE_PERIOD_S; each latency is scaled by PROBE_NOMINAL_S over
# the latest probe time, i.e. reported as if the probe took PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 1e-3
PROBE_PERIOD_S = 0.1


def probe_s() -> float:
    """Best of three timings of fixed Fraction and isqrt arithmetic."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = Fraction(1)
        for i in range(1, 150):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i * i + 1)
        n = 7**300
        for i in range(300):
            math.isqrt(n + i)
        best = min(best, time.perf_counter() - t0)
    return best


def _percentile(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def _median_start_s(root: str, code: str, repeats: int = 5) -> float:
    from cli_workload import environment

    env = environment(root)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Loop:
    """Runs ops, checks them and keeps the closed-loop statistics."""

    def __init__(self, workload: str, root: str, tracer=None, spans_path=None):
        self.workload = workload
        self.root = root
        self.tracer = tracer
        self.spans_path = spans_path
        self.latencies: list[float] = []  # host-speed corrected
        self.raw_latencies: list[float] = []
        self.speed = 1.0  # PROBE_NOMINAL_S / latest probe time
        self.probed_at = -math.inf
        self.attempted = 0
        self.failed = 0
        self.bits_total = 0.0
        self.bits_early: list[float] = []
        self.round_times = {False: [], True: []}
        self.traced_bits = 0.0
        self.digits = 0
        self.xii2_pairs = 0
        self.verdict_undecided = 0
        self.cli_snapshot: dict = {}
        self.cli_trace_file = os.path.join(root, ".bench_build", "perfbench", f"cli-{os.getpid()}.json")
        if workload != "cli":
            from eudoxos.errors import EudoxosError

            self.honest = EudoxosError
        else:
            self.honest = ()

    def make_round(self, seed, r: int, traced: bool):
        if self.workload == "cli":
            from cli_workload import cli_round

            return cli_round(seed, r, self.root, self.cli_trace_file if traced else None)
        from workloads import decide_round, refine_round

        if self.workload == "decide":
            return decide_round(seed, r)
        return refine_round(self.workload, seed, r)

    def run_round(self, seed, r: int, traced: bool, timed: bool, limit=None) -> float:
        from workloads import Incorrect

        ops = self.make_round(seed, r, traced)[:limit]
        tracer = self.tracer if traced and self.workload != "cli" else None
        if tracer is not None:
            tracer.install()
        spent = raw_spent = 0.0
        try:
            for i, op in enumerate(ops):
                if timed and time.perf_counter() - self.probed_at > PROBE_PERIOD_S:
                    self.speed = PROBE_NOMINAL_S / probe_s()
                    self.probed_at = time.perf_counter()
                if tracer is not None:
                    tracer.begin_op(r * 1000 + i, op.category)
                t0 = time.perf_counter()
                try:
                    result, error = op.run(), None
                except self.honest as exc:
                    result, error = None, exc
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                spent += dt * self.speed
                raw_spent += dt
                if error is not None:
                    failed, bits = True, 0.0 if op.category in CATEGORIES_WITH_BITS else None
                else:
                    try:
                        failed, bits = op.check(result)
                    except Incorrect as exc:
                        print(f"INCORRECT [{self.workload} {op.slot}]: {exc}", file=sys.stderr)
                        sys.exit(3)
                if traced and self.workload == "cli":
                    self._collect_cli_trace(r * 1000 + i)
                if not timed:
                    continue
                self.attempted += 1
                self.failed += failed
                self.latencies.append(dt * self.speed)
                self.raw_latencies.append(dt)
                if bits is not None:
                    self.bits_total += bits
                    if r < BITS_ROUNDS[self.workload]:
                        self.bits_early.append(bits)
                    if traced:
                        self.traced_bits += bits
                if traced:
                    self._layer_outcomes(op, result, failed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if timed:
            self.round_times[traced].append(spent)
        return raw_spent

    def _layer_outcomes(self, op, result, failed: bool) -> None:
        if op.category == "digits" and not failed:
            self.digits += len(result[1])
        elif op.category == "xii2" and result is not None:
            self.xii2_pairs += sum(
                len(b.witnesses) + b.refuted_exact + b.refuted_by_enclosure + len(b.undecided)
                for b in result.branches
            )
        elif op.category == "verdict" and failed:
            self.verdict_undecided += 1

    def _collect_cli_trace(self, op_id: int) -> None:
        from tracer import merge

        with open(self.cli_trace_file) as fh:
            data = json.load(fh)
        os.remove(self.cli_trace_file)
        if self.spans_path is not None:
            with open(self.spans_path, "a") as fh:
                for _, sid, parent, name, t0, t1 in data["spans"]:
                    fh.write(json.dumps({"op": op_id, "id": sid, "parent": parent,
                                         "name": name, "start": t0, "end": t1}) + "\n")
        self.cli_snapshot = merge(self.cli_snapshot, data["snapshot"])


def end_to_end(loop: Loop, workload: str) -> dict:
    """End-to-end metrics over the run's ops, at host-speed-corrected times."""
    lat = sorted(loop.latencies)
    raw = sorted(loop.raw_latencies)
    n = len(lat)
    timed_s = sum(lat)
    rung = TAIL[workload]  # main() runs until >= 10 samples lie beyond it
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "ops_per_s": {"value": n / timed_s, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
            "op_tail_ms": {"value": _percentile(lat, rung) * 1000, "unit": "ms"},
            "bits_per_s": {"value": loop.bits_total / timed_s, "unit": "bit/s"},
            "mean_bits": {"value": statistics.fmean(loop.bits_early), "unit": "bit"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        },
        "notes": {
            "ops": n,
            "timed_s": timed_s,
            "raw_ops_per_s": n / sum(raw),
            "raw_op_p50_ms": statistics.median(raw) * 1000,
            "raw_op_tail_ms": _percentile(raw, rung) * 1000,
            "tail_percentile": rung,
            "tail_beyond": n - math.ceil(rung / 100 * n),
            "mean_bits_ops": len(loop.bits_early),
        },
    }


def per_layer(loop: Loop, root: str, workload: str) -> dict:
    snap = loop.cli_snapshot if workload == "cli" else loop.tracer.snapshot()
    self_s = snap.get("self_s", {})
    calls = snap.get("calls", {})
    counts = snap.get("counts", {})
    cat = snap.get("by_category", {})

    def ratio(a, b):
        return a / b if b else 0.0

    at_calls = calls.get("enclosures.at", 0)
    refines = counts.get("refines", 0)
    verdict_ops = cat.get("verdict|ops", 0)
    digit_queries = cat.get("digits|cut_queries", 0)
    bare = _median_start_s(root, "pass")
    imported = _median_start_s(root, "import eudoxos.cli")
    untraced, traced = loop.round_times[False], loop.round_times[True]
    overhead = ratio(statistics.fmean(traced), statistics.fmean(untraced)) - 1

    metrics = {
        "intervals.self_s": self_s.get("intervals", 0.0),
        "intervals.sqrt_calls": calls.get("intervals.sqrt_down", 0) + calls.get("intervals.sqrt_up", 0),
        "archimedes.self_s": self_s.get("archimedes", 0.0),
        "archimedes.halvings": sum(calls.get(f"archimedes.{f}", 0)
                                   for f in ("halved_sincos", "half_cos", "half_sin")),
        "archimedes.pi_calls": calls.get("archimedes.pi_enclosure", 0),
        "enclosures.self_s": self_s.get("enclosures", 0.0),
        "enclosures.at_calls": at_calls,
        "enclosures.refines": refines,
        "enclosures.hit_ratio": ratio(counts.get("at_hits", 0), at_calls),
        "enclosures.refines_per_bit": ratio(refines, loop.traced_bits),
        "kinds.self_s": self_s.get("kinds", 0.0),
        "kinds.compare_calls": calls.get("kinds.compare", 0),
        "kinds.unresolved": counts.get("unresolved", 0),
        "ratios.self_s": self_s.get("ratios", 0.0),
        "ratios.cut_queries": counts.get("cut_queries", 0),
        "ratios.cut_queries_per_verdict": ratio(cat.get("verdict|cut_queries", 0), verdict_ops),
        "ratios.undecided": loop.verdict_undecided,
        "positional.self_s": self_s.get("positional", 0.0),
        "positional.digits": loop.digits,
        "positional.cut_queries_per_digit": ratio(digit_queries, loop.digits),
        "polygons.self_s": self_s.get("polygons", 0.0),
        "polygons.built": calls.get("polygons.Polygon", 0),
        "regions.self_s": self_s.get("regions", 0.0),
        "regions.xii2_pairs": loop.xii2_pairs,
        "angles.self_s": self_s.get("angles", 0.0),
        "angles.asin_refines": counts.get("refines:asin", 0),
        "angles.sin_refines": counts.get("refines:sin", 0),
        "cli.interp_s": bare,
        "cli.import_s": imported - bare,
        "cli.self_s": self_s.get("cli", 0.0),
        "tracing.overhead": overhead,
    }
    units = {"self_s": "s", "interp_s": "s", "import_s": "s", "hit_ratio": "ratio",
             "overhead": "ratio", "refines_per_bit": "1/bit",
             "cut_queries_per_verdict": "1/op", "cut_queries_per_digit": "1/digit"}
    absent = sorted({name.split(".")[0] for name in metrics
                     if name.endswith(".self_s") and metrics[name] == 0.0})
    return {
        "metrics": {name: {"value": value, "unit": units.get(name.split(".", 1)[1], "count")}
                    for name, value in metrics.items()},
        "notes": {
            "absent_layers": absent,
            "traced_rounds": len(traced),
            "untraced_rounds": len(untraced),
            "spans": snap.get("span_count", 0),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.makedirs(os.path.join(root, ".bench_build", "perfbench"), exist_ok=True)
    if args.workload != "cli":
        import eudoxos

        if not os.path.abspath(eudoxos.__file__).startswith(src + os.sep):
            print(f"eudoxos imported from {eudoxos.__file__}, not {src}", file=sys.stderr)
            return 2

    tracer = spans_path = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        spans_path = os.path.join(root, ".bench_build", "perfbench",
                                  f"spans-{args.workload}-seed{args.seed}.jsonl")
        if os.path.exists(spans_path):
            os.remove(spans_path)
    loop = Loop(args.workload, root, tracer, spans_path)
    warm, r = WARMUP_OPS[args.workload], 0
    while warm > 0:
        loop.run_round("warmup", r, traced=False, timed=False, limit=warm)
        warm -= len(loop.make_round("warmup", r, False))
        r += 1
    setup_s = time.monotonic() - args.spawned_at
    print(f"READY {setup_s * PROBE_NOMINAL_S / probe_s()!r} {setup_s!r}", flush=True)
    if args.probe:
        return 0

    rung = TAIL[args.workload]
    min_ops = math.ceil(10 / (1 - rung / 100))
    wall_s, r = 0.0, 0
    while True:
        traced = bool(args.trace) and r % 2 == 1  # traced and untraced rounds alternate
        wall_s += loop.run_round(args.seed, r, traced, timed=True)
        r += 1
        if (wall_s >= args.seconds and loop.attempted >= min_ops and r >= BITS_ROUNDS[args.workload]
                and (not args.trace or r % 2 == 0)):
            break

    if args.trace:
        result = per_layer(loop, root, args.workload)
        tracer.write_spans(spans_path)
    else:
        result = end_to_end(loop, args.workload)
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed
    result["notes"]["rounds"] = r
    from defects import probe_all
    from workloads import Incorrect

    try:
        result["notes"]["defects"] = probe_all(args.workload)
    except Incorrect as exc:
        print(f"INCORRECT [{args.workload} defects]: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
