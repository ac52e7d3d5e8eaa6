"""Benchmark two commits against each other with perfbench.

    python3 tools/bench_pair.py BASE HEAD --out BENCH.json \
        [--workload pabulib-priceability ...] [--rounds 10] [--seconds 20] [--seed 1]

Unpacks the src/ tree of each commit (git archive) into its own temporary
directory and copies this checkout's perfbench/ next to each, so both
sides run the same benchmark code.  Each round runs every workload once
per side, the side that goes first alternating from round to round, and
reads the JSON object that perfbench/run.py prints last.  The workloads
and the end-to-end metrics are the ones BENCHMARK.json names.  The output
file holds the two commits, the machine, the Python version, the settings
and, per workload and side, every run's end-to-end metrics with their
median and quartiles, whether every output was correct and how many
operations failed, and in how many rounds HEAD read better than BASE on
each metric.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime, timezone

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(commit, into):
    """src/ of the commit and this checkout's perfbench/, under into."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    # The "data" filter (Python 3.12, backported to 3.10.12 and 3.11.4)
    # refuses links and paths that leave the target.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        os.path.join(into, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def run_once(tree, workload, seed, seconds) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark two commits with perfbench.")
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 (quartiles need two runs)")
    workloads = args.workload or list(WORKLOADS)
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    sides = {side: git("rev-parse", "--verify", f"{commit}^{{commit}}")
             for side, commit in (("base", args.base), ("head", args.head))}
    runs = {w: {side: [] for side in sides} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in sides}
        for side, tree in trees.items():
            unpack(sides[side], tree)
        for r in range(args.rounds):
            order = ("base", "head") if r % 2 == 0 else ("head", "base")
            for w in workloads:
                for side in order:
                    result = run_once(trees[side], w, args.seed, args.seconds)
                    runs[w][side].append(result)
                    ops = result["metrics"]["ops_per_s"]["value"]
                    print(f"round {r + 1} {w} {side}: {ops:.2f} op/s", file=sys.stderr, flush=True)

    report = {
        **{
            side: {"commit": commit, "subject": git("log", "-1", "--format=%s", commit)}
            for side, commit in sides.items()
        },
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": machine(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": args.rounds,
        "workloads": {},
    }
    for w in workloads:
        entry = report["workloads"][w] = {}
        for side in sides:
            results = runs[w][side]
            entry[side] = {
                name: summary([res["metrics"][name]["value"] for res in results]) for name in better
            }
            entry[side]["correct"] = all(res["correct"] is True for res in results)
            entry[side]["failed"] = sum(res["failed"] for res in results)
            entry[side]["attempted"] = sum(res["attempted"] for res in results)
        sign = {"higher": 1, "lower": -1}
        entry["head_wins"] = {
            name: sum(
                sign[better[name]] * (h - b) > 0
                for b, h in zip(entry["base"][name]["runs"], entry["head"][name]["runs"])
            )
            for name in better
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for w, entry in report["workloads"].items():
        for name in better:
            b, h = entry["base"][name], entry["head"][name]
            print(f"{w:22} {name:12} {b['median']:.4g} -> {h['median']:.4g}"
                  f" (base IQR {b['q3'] - b['q1']:.3g}, head better in"
                  f" {entry['head_wins'][name]}/{args.rounds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
