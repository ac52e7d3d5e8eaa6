"""Compare the public outputs of two commits, call by call.

    python3 tools/diff_pair.py BASE HEAD

Unpacks the src/ tree of each commit (git archive) into its own temporary
directory, copies this file next to each, and runs its fixed corpus there
under PYTHONHASHSEED=0, so both sides make the same calls.  The corpus has
four families:

- rules: ``phragmen``, ``rule_x`` and ``pav``, plain and with every tie,
  outcomes and traces;
- checkers: every ``MAIN_CHECKERS`` verdict and witness but priceability;
- priceable: ``priceable`` and ``priceable1`` verdicts and certificates;
- laminar: ``recognize_laminar``, ``laminar_bundles``, and on every
  certified bundle and two random ones ``is_laminar_proportional``,
  ``laminar_price_system`` and ``check_core_u_afford``.

The instances are seeded ``random_instance`` draws (approval, cardinal,
committee), the packaged fixtures, and ``generate_laminar`` and
``generate_laminar_mwv`` seeds.  Each call's output, or its exception by
type and message, is written as one canonical text (``canonical``): sets
sorted, dict items sorted, ``Fraction``s as ``str``, dataclasses by field,
so that iteration order alone is no difference.  Prints one sha256 per
family and, for a family whose digest differs, the first differing call.
Exit status 1 when a family differs.  Standard library only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FAMILIES = ("rules", "checkers", "priceable", "laminar")
RANDOM_DRAWS = 300  # per generator spec
LAMINAR_SEEDS = 400  # per laminar generator


def canonical(x) -> str:
    """One text per value, equal for values equal by ``==`` and type."""
    if isinstance(x, BaseException):
        return f"!{type(x).__name__}: {x}"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return f"int({x})"
    if isinstance(x, (set, frozenset)):
        return f"{type(x).__name__}{{{','.join(sorted(map(canonical, x)))}}}"
    if isinstance(x, dict):
        items = sorted(f"{canonical(k)}:{canonical(v)}" for k, v in x.items())
        return f"{{{','.join(items)}}}"
    if isinstance(x, list):
        return f"[{','.join(map(canonical, x))}]"
    if isinstance(x, tuple):
        return f"({','.join(map(canonical, x))})"
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={canonical(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({','.join(fields)})"
    return repr(x)


def outcome(call, *args) -> str:
    try:
        return canonical(call(*args))
    except Exception as exc:
        return canonical(exc)


def random_bundles(label, instance, count=2):
    """``count`` seeded random bundles of the instance's projects."""
    rng = random.Random(f"{label}:bundles")
    return [frozenset(c for c in instance.projects if rng.random() < 0.5) for _ in range(count)]


def laminar_lines(label, instance):
    """(label, text) of every laminar call the corpus makes on the instance."""
    from pbprop import (
        check_core_u_afford,
        is_laminar_proportional,
        laminar_bundles,
        laminar_price_system,
        recognize_laminar,
    )

    yield f"{label} recognize", outcome(recognize_laminar, instance)
    try:
        certified = list(laminar_bundles(instance))
        yield f"{label} bundles", canonical(certified)
    except Exception as exc:
        certified = []
        yield f"{label} bundles", canonical(exc)
    for w in certified + random_bundles(label, instance):
        at = f"{label} {canonical(w)}"
        yield f"{at} certify", outcome(is_laminar_proportional, instance, w)
        yield f"{at} price", outcome(laminar_price_system, instance, w)
        yield f"{at} coreuafford", outcome(check_core_u_afford, instance, w)


def laminar_instances(seeds):
    """(label, instance) of ``generate_laminar`` and of a one-level
    ``generate_laminar_mwv`` on each seed: deeper committee instances have
    hundreds of certified bundles each."""
    from pbprop import generate_laminar, generate_laminar_mwv

    for seed in seeds:
        yield f"laminar({seed})", generate_laminar(seed)
        yield f"laminar_mwv({seed})", generate_laminar_mwv(seed, max_depth=1)


def corpus():
    """(family, label, text) of every call, in a fixed order."""
    from pbprop import GeneratorSpec, pav, phragmen, random_instance, rule_x
    from pbprop.fixtures import FIXTURES, get_fixture
    from pbprop.registry import MAIN_CHECKERS

    specs = {
        "approval": GeneratorSpec(max_voters=7, max_projects=6),
        "cardinal": GeneratorSpec(max_voters=7, max_projects=6, approval=False),
        "committee": GeneratorSpec(
            max_voters=7, max_projects=6, cost_denominator=1, max_cost_numerator=1,
            budget_denominator=1,
        ),
    }
    instances = [(name, get_fixture(name)) for name in FIXTURES]
    for kind, spec in specs.items():
        rng = random.Random(f"diff_pair:{kind}")
        instances += [(f"{kind}[{i}]", random_instance(spec, rng)) for i in range(RANDOM_DRAWS)]
    for label, instance in instances:
        bundles = random_bundles(label, instance)
        for name, rule in (("phragmen", phragmen), ("rule_x", rule_x), ("pav", pav)):
            for ties in (False, True):
                yield "rules", f"{label} {name} ties={ties}", outcome(rule, instance, ties)
            try:
                bundles.append(rule(instance)[0])
            except Exception:
                pass
        for w in bundles:
            for axiom, check in MAIN_CHECKERS.items():
                family = "priceable" if axiom.startswith("priceable") else "checkers"
                yield family, f"{label} {canonical(w)} {axiom}", outcome(check, instance, w)
        for line in laminar_lines(label, instance):
            yield ("laminar", *line)
    for line in laminar_instances(range(LAMINAR_SEEDS)):
        for text in laminar_lines(*line):
            yield ("laminar", *text)


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(commit, into):
    """src/ of the commit and this file, under into."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", commit, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    shutil.copy(os.path.abspath(__file__), os.path.join(into, "diff_pair.py"))


def run_side(tree) -> dict:
    """family -> [(label, text)] of the corpus run on tree's src/."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.path.join(tree, "src")}
    out = os.path.join(tree, "corpus.txt")
    subprocess.run(
        [sys.executable, "diff_pair.py", "--corpus", out], cwd=tree, env=env, check=True
    )
    lines = {family: [] for family in FAMILIES}
    with open(out, encoding="utf-8") as fh:
        for line in fh:
            family, label, text = line.rstrip("\n").split("\t")
            lines[family].append((label, text))
    return lines


def digest(lines) -> str:
    text = "".join(f"{label}\t{out}\n" for label, out in lines)
    return hashlib.sha256(text.encode()).hexdigest()


def first_difference(base, head):
    """The first label, in base's order and then head's, whose text differs
    between the sides or is missing on one: (label, base text, head text)."""
    base_of, head_of = dict(base), dict(head)
    for label, _ in base + head:
        if base_of.get(label) != head_of.get(label):
            return label, base_of.get(label), head_of.get(label)
    return None


def clip(text, width=400):
    if text is None:
        return "(no such call)"
    return text if len(text) <= width else text[:width] + "..."


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare the public outputs of two commits.")
    parser.add_argument("base", nargs="?")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--corpus", metavar="FILE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corpus:  # one side: run the corpus on the pbprop found on the path
        with open(args.corpus, "w", encoding="utf-8") as fh:
            for family, label, text in corpus():
                fh.write(f"{family}\t{label}\t{text}\n")
        return 0
    if not (args.base and args.head):
        parser.error("BASE and HEAD are required")
    sides = {side: git("rev-parse", "--verify", f"{commit}^{{commit}}")
             for side, commit in (("base", args.base), ("head", args.head))}
    with tempfile.TemporaryDirectory(prefix="diff_pair-") as tmp:
        runs = {}
        for side, commit in sides.items():
            tree = os.path.join(tmp, side)
            unpack(commit, tree)
            runs[side] = run_side(tree)
    print(f"base {sides['base'][:12]}  head {sides['head'][:12]}")
    differs = 0
    for family in FAMILIES:
        base, head = runs["base"][family], runs["head"][family]
        b, h = digest(base), digest(head)
        print(f"{family:10} {len(base):6} / {len(head):6} calls  base {b[:16]}  head {h[:16]}"
              f"  {'same' if b == h else 'DIFFERENT'}")
        if b != h:
            differs += 1
            hit = first_difference(base, head)
            if hit is not None:
                label, was, now = hit
                print(f"  first difference: {label}\n    base: {clip(was)}\n    head: {clip(now)}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
