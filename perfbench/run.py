"""Benchmark entry point: certified-arithmetic workloads against eudoxos.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``./src``.
Workloads: refine-point, refine-walk, decide, cli (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run whose rounds alternate between traced and untraced.  Set-up is timed in
``SETUPS`` separate processes, from process start to the end of warm-up, and
``setup_s`` is their median.  Times are host-speed corrected (worker.py).  The run exits non-zero without a result
when ``./src/eudoxos`` is missing or any result disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETUPS = 3
DEADLINE_S = 170  # the whole command must end within 180 s
WORKLOADS = ("refine-point", "refine-walk", "decide", "cli")


def _spawn(args, probe: bool, deadline: float):
    """Start a worker; return (set-up seconds, worker result or None)."""
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("EUDOXOS_DEPTH", None)
    # time.monotonic is one system-wide clock, so the worker can measure its
    # set-up from this instant, interpreter start included.
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker exceeded the {DEADLINE_S} s deadline", file=sys.stderr)
        sys.exit(4)
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode or 5)
    setup = tuple(float(x) for x in ready[0].split()[1:])  # (corrected, raw)
    return setup, (None if probe else json.loads(lines[-1]))


def _report(args, result: dict, setups) -> None:
    """Human-readable lines above the JSON result."""
    notes = result["notes"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}: "
          f"closed loop, 1 client, 1 process, {notes['rounds']} rounds")
    print(f"failed_share  {failed / attempted:.4f}  ({failed} of {attempted} ops failed)")
    for name, (reproduces, detail) in notes["defects"].items():
        print(f"known defect {name}: {'reproduces' if reproduces else 'no longer reproduces'} "
              f"({detail}; probed once, untimed, outside attempted/failed)")
    if args.trace:
        print(f"traced rounds {notes['traced_rounds']}, untraced {notes['untraced_rounds']}, "
              f"spans {notes['spans']}; time waited: not applicable (single-threaded library, "
              "no layer queues or retries)")
        print("absent layers (not touched by this workload): "
              + (", ".join(notes["absent_layers"]) or "none"))
    else:
        print(f"setup_s from {SETUPS} set-ups (corrected/raw s): "
              + ", ".join(f"{c:.3f}/{r:.3f}" for c, r in setups))
        print(f"ops {notes['ops']} over {notes['timed_s']:.3f} s of corrected timed wall time; "
              f"op_tail_ms is p{notes['tail_percentile']:g} with {notes['tail_beyond']} samples "
              f"beyond it; mean_bits over the first {notes['mean_bits_ops']} bit-bearing ops")
        print(f"raw, before host-speed correction: ops_per_s {notes['raw_ops_per_s']:.6g}, "
              f"op_p50_ms {notes['raw_op_p50_ms']:.6g}, op_tail_ms {notes['raw_op_tail_ms']:.6g}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "eudoxos", "__init__.py")):
        print("no ./src/eudoxos here: run from the root of a eudoxos checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(_spawn(args, probe=True, deadline=deadline)[0])
    setup, result = _spawn(args, probe=False, deadline=deadline)
    setups.append(setup)
    if not args.trace:
        median = statistics.median(corrected for corrected, _ in setups)
        result["metrics"] = {"setup_s": {"value": median, "unit": "s"}, **result["metrics"]}
    _report(args, result, setups)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
