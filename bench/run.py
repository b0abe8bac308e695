"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 the per-layer metrics, and it writes the spans to
bench/out/.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

This process never loads numpy.  It times set-up in SETUP_SAMPLES fresh
worker processes (plus the measuring one) and reports their median, then
runs the measuring worker; it waits for each child to end.  Each worker
pins the BLAS thread pools to one thread before it loads numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cqlf-scaling", "witness-search", "lti-routes", "network-kernel")
SETUP_SAMPLES = 2
DEADLINE_S = 170.0


def _child(cmd, env, deadline: float) -> dict:
    """Run one worker to its end and parse its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("benchmark deadline passed")
    cmd = cmd + ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SystemExit("worker did not end before the deadline") from None
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    env = dict(os.environ, PYTHONHASHSEED="0")
    worker = [sys.executable, str(BENCH / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        spans = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        res = _child(worker + ["--seconds", str(args.seconds), "--trace", "1",
                               "--spans", str(spans)], env, deadline)
        sys.stderr.write(f"spans written to {spans}\n")
    else:
        setups = [_child(worker + ["--setup-only"], env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        res = _child(worker + ["--seconds", str(args.seconds), "--trace",
                               "0"], env, deadline)
        setups.append(res["setup_s"])
        res["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                     "unit": "s"}
    print(json.dumps({key: res[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
