"""One benchmark process: set up a workload, time whole rounds of its
operations, check every output, and print one JSON line.

Started by run.py, which pins the BLAS pools before this process loads
numpy.  --setup-only stops after set-up and prints only its duration;
--trace 1 wraps polyconv's public functions and prints the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _key in THREAD_ENV:
    os.environ[_key] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

# operations beyond the reported tail percentile
TAIL_BEYOND = 10


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def _import_polyconv() -> None:
    """Import the checkout's polyconv, never an installed copy."""
    import polyconv
    where = Path(polyconv.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"polyconv imported from {where}, not {ROOT / 'src'}")


def run_rounds(ops, seconds: float, tracer):
    """Whole rounds of every operation while the next round still fits in
    `seconds` of wall time (at least one).  Each output is checked after
    its round, outside the timed calls."""
    times = [[] for _ in ops]
    attempted = failed = 0
    wrong = []
    faulted = set()
    begin = time.perf_counter()
    last_round = 0.0
    rounds = 0
    while rounds == 0 or (time.perf_counter() - begin) + last_round <= seconds:
        round_start = time.perf_counter()
        outputs = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.op, tracer.phase = i, "op"
            t = time.perf_counter()
            try:
                out, exc = op.call(), None
            except Exception as e:  # an operation that raises has failed
                out, exc = None, e
            times[i].append(time.perf_counter() - t)
            outputs.append((out, exc))
        for i, (op, (out, exc)) in enumerate(zip(ops, outputs)):
            if tracer:
                tracer.op, tracer.phase = i, "check"
            attempted += 1
            if exc is not None:
                failed += 1
                faulted.add(f"{op.label}: raised {exc!r}")
                continue
            if op.fault is not None and op.fault(out):
                failed += 1
                faulted.add(f"{op.label}: known fault")
                continue
            try:
                msg = op.check(out)
            except Exception as e:  # a malformed output fails its check
                msg = f"check raised {e!r}"
            if msg:
                wrong.append(f"{op.label}: {msg}")
        rounds += 1
        last_round = time.perf_counter() - round_start
    return times, attempted, failed, wrong, sorted(faulted), rounds


def end_to_end(times, attempted: int) -> dict:
    """Per-operation medians over the rounds give one time per distinct
    input; p50 and the tail (TAIL_BEYOND operations beyond it) are read
    from those."""
    per_op = sorted(statistics.median(t) for t in times)
    tail = per_op[len(per_op) - TAIL_BEYOND - 1]
    busy = sum(sum(t) for t in times)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"op_s.p50": {"value": statistics.median(per_op), "unit": "s"},
            "op_s.tail": {"value": tail, "unit": "s"},
            "ops_per_s": {"value": attempted / busy, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, default=None,
                   help="time.monotonic() at which the parent started this "
                        "process; set-up is timed from there")
    p.add_argument("--spans", default=None, help="where --trace 1 writes "
                   "the spans")
    args = p.parse_args(argv)
    t0 = STARTED if args.t0 is None else args.t0

    _import_polyconv()
    import tracing
    import workloads
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    if len(ops) < 4 * TAIL_BEYOND:
        raise SystemExit("a round needs at least 40 operations")
    ops[0].call()  # untimed warm-up
    setup_s = time.monotonic() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    gc.freeze()
    times, attempted, failed, wrong, faulted, rounds = run_rounds(
        ops, args.seconds, tracer)
    for line in faulted:
        _log(f"failed: {line}")
    for line in wrong[:20]:
        _log(f"WRONG: {line}")
    e2e = end_to_end(times, attempted)
    _log(f"{args.workload} seed={args.seed}: {rounds} round(s) of "
         f"{len(ops)} operations, p50 {e2e['op_s.p50']['value']:.4f} s, "
         f"tail {e2e['op_s.tail']['value']:.4f} s, "
         f"{e2e['ops_per_s']['value']:.3f} ops/s"
         + (" (traced)" if tracer else ""))
    if tracer:
        metrics = tracer.layer_metrics(attempted)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    else:
        metrics = e2e
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics,
                      "setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
