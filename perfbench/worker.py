"""One run of one workload, in a fresh single-threaded process.

Prints "ready" once the inputs are built (run.py times process start to
that line as set-up), then runs the closed loop: one caller, one
operation at a time, each checked after it returns, outside the timed
part.  The loop runs whole passes over the inputs, at least one, and
more while another pass still fits in --seconds of timed operations.
The last line is a JSON object with the counts and metrics.

Times are reported at a reference speed.  On a shared machine other
processes slowed this single-threaded loop by up to 2x, for seconds or
minutes at a time.  So every operation is followed by a calibration: a
fixed piece of pure-Python work that does not touch pbprop, which takes
CAL_REFERENCE_S on an undisturbed core of the reference machine (2-core
Xeon at 2.1 GHz).  An input's time is the sum of its operation times over
the passes, times CAL_REFERENCE_S over the mean calibration time around
them.  On the reference machine the figures read as undisturbed
wall-clock time.

With --trace 1 the same operations then run again with spans in place,
and the per-layer metrics come from that second pass; the first pass
gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


CAL_STEPS = 1200
CAL_REFERENCE_S = 0.002


def calibration():
    """Seconds taken by a fixed piece of pure-Python work."""
    start = perf_counter()
    x, seen = Fraction(0), {}
    for k in range(1, CAL_STEPS):
        x += Fraction(1, k % 7 + 1)
        seen[k % 13] = x
    return perf_counter() - start


class Tally:
    def __init__(self):
        self.times = []  # in the order run: pass after pass over the inputs
        self.cal = []  # mean calibration time around each operation
        self.failed = 0
        self.wrong = 0

    def scaled(self, inputs):
        """Each input's time at the reference speed."""
        return [
            sum(self.times[j::inputs]) / sum(self.cal[j::inputs]) * CAL_REFERENCE_S
            for j in range(inputs)
        ]


def run_ops(workload, cases, tally, seconds=None, count=None, tracer=None):
    """Closed loop over the cases in whole passes: at least one, and more
    while another pass still fits in `seconds` of timed operations; or
    exactly `count` operations."""
    timed = pass_start = 0.0
    i = 0
    before = calibration()
    while True:
        if count is not None:
            if i == count:
                break
        elif i and not i % len(cases):
            if timed + (timed - pass_start) > seconds:
                break
            pass_start = timed
        case = cases[i % len(cases)]
        i += 1
        start = perf_counter()
        try:
            result = workload.run(case) if tracer is None else tracer.span(ROOT_SPAN, workload.run, case)
        except Exception:  # a failed operation is counted, and the loop goes on
            result = None
            traceback.print_exc()
        elapsed = perf_counter() - start
        after = calibration()
        tally.times.append(elapsed)
        tally.cal.append((before + after) / 2)
        before = after
        timed += elapsed
        if result is None:
            tally.failed += 1
            continue
        try:
            workload.check(case, result)
        except CheckFailed as exc:
            tally.failed += 1
            tally.wrong += 1
            print(f"check failed on input {(i - 1) % len(cases)}: {exc}", file=sys.stderr)
    return i


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    first = calibration()
    cases = workload.setup(args.seed, os.path.join(OUT, "inputs", tag))
    print("ready", (first + calibration()) / 2 / CAL_REFERENCE_S, flush=True)
    if args.setup_only:
        return 0
    if args.describe:
        for j, case in enumerate(cases):
            print(f"input {j}: {workload.shape(case)}")
        return 0

    tally = Tally()
    ops = run_ops(workload, cases, tally, seconds=args.seconds)
    if args.trace:
        traced = Tally()
        metrics = per_layer(workload, cases, tally, traced, ops, tag)
        tally.failed += traced.failed
        tally.wrong += traced.wrong
    else:
        metrics = end_to_end(tally, len(cases))
    attempted = ops * (1 + args.trace)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


def end_to_end(tally, inputs):
    per_input = tally.scaled(inputs)
    done = 1 - tally.failed / len(tally.times)
    return {
        "ops_per_s": metric(inputs * done / sum(per_input), "op/s"),
        "op_p50_ms": metric(statistics.median(per_input) * 1000, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, cases, untraced, traced, ops, tag):
    """Run the same operations again with spans in place."""
    tracer = Tracer()
    tracer.install()
    try:
        run_ops(workload, cases, traced, count=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    tracer.write(os.path.join(OUT, "spans", f"{tag}.jsonl"))
    layers, self_total = tracer.layer_metrics(ops)
    traced_pass = sum(traced.scaled(len(cases)))
    raw_pass = sum(traced.times) * len(cases) / ops
    # Self times are scaled to the reference speed like the wall time.
    metrics = {
        name: metric(value * traced_pass / raw_pass if unit == "s/op" else value, unit)
        for name, (value, unit) in sorted(layers.items())
    }
    metrics["trace.wall_s"] = metric(traced_pass / len(cases), "s/op")
    metrics["trace.overhead_pct"] = metric(100 * (traced_pass / sum(untraced.scaled(len(cases))) - 1), "%")
    metrics["trace.accounted_pct"] = metric(100 * self_total / sum(traced.times), "%")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
