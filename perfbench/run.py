"""Benchmark pbprop's election audits.

    python3 perfbench/run.py --workload pabulib-rules --seed 1 --seconds 20 --trace 0

Runs one workload (or, with --workload all, each in turn) in a fresh
worker process (perfbench/worker.py) and prints its metrics, one per line with its unit, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.

setup_s is the median, over SETUP_RUNS fresh processes, of the time from
starting the process to its first operation: interpreter start, importing
pbprop and the benchmark, and building (and for .pb workloads writing)
the inputs.  Like every time here it is scaled to the reference speed
(see worker.py) by the calibration the worker runs at the start and at
the end of its set-up.  One of the processes is the measured run; half of
the others start before it and half after.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pabulib-rules", "pabulib-priceability", "axiom-sweep", "laminar")
SETUP_RUNS = 3
TIME_LIMIT = 170  # seconds for the whole run


class WorkerError(Exception):
    pass


def run_worker(argv, limit):
    """Start the worker; return (seconds until it printed "ready", scaled to
    the reference speed it reports on that line, and the rest of its
    standard output)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(limit, 1), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    word, _, slowdown = first.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return ready / float(slowdown), rest


def setup_time(common, deadline):
    return run_worker(common + ["--setup-only"], deadline - perf_counter())[0]


def measure(workload, args):
    """Run one workload; return its result object."""
    deadline = perf_counter() + TIME_LIMIT
    common = ["--workload", workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_RUNS - 1
    setups = [setup_time(common, deadline) for _ in range(probes // 2)]
    run = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    ready, out = run_worker(run, deadline - perf_counter())
    setups += [ready] + [setup_time(common, deadline) for _ in range(probes - probes // 2)]
    result = json.loads(out.splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def report(workload, args, result):
    print(f"{workload} seed {args.seed}: {result['attempted']} operations, {result['failed']} failed,"
          f" outputs {'correct' if result['correct'] else 'WRONG'}")
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:32} {m['value']:.6g} {m['unit']}")
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark pbprop's election audits.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print the make-up of the inputs and stop")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pbprop", "__init__.py")):
        print(f"error: no pbprop sources under {ROOT}/src", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            if args.describe:
                common = ["--workload", workload, "--seed", str(args.seed), "--describe"]
                print(f"{workload} seed {args.seed}")
                print(run_worker(common, TIME_LIMIT)[1], end="")
                continue
            result = measure(workload, args)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(workload, args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
