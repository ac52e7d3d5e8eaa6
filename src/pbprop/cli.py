"""Command-line front end.

Subcommands: run (a voting rule), check (an axiom against a bundle),
laminar (recognition + decomposition dump), gen (instance generators),
search (randomized counterexample hunt), paper-verify (the built-in
fixture suite).  Each subcommand returns its exit status and report text;
``main`` writes the text in one piece after the subcommand returns.  Exit
status: 0 success or Satisfied, 1 Violated (or not laminar), 2 usage
error, malformed input, an unmet precondition or an instance over a size
cap, 3 a failed self-check (README, "CLI").
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import __version__
from .axioms import (
    CohesivenessWitness,
    CommitteeWitness,
    CoreWitness,
    PriceSystem,
    check_priceable,  # noqa: F401  perfbench --trace 1 wraps cli.check_priceable
)
from .io import load_instance, serialize_instance
from .laminar import (
    UnanimousLeaf,
    UnanimousProject,
    generate_laminar,
    recognize_laminar,
)
from .model import (
    CapExceeded,
    CertificateError,
    InputError,
    _distinct,
    as_fraction,
    binarize,
)
from .oracle import GeneratorSpec, random_instance, search_counterexample
from .registry import MAIN_CHECKERS
from .rules import pav, phragmen, rule_x
from .verify import run_verification

RULES = ("phragmen", "pav", "rulex")

REPORT_HEADER = f"pbprop report v1 (tool {__version__})"


def _fmt_set(items) -> str:
    return "{" + ",".join(sorted(items)) + "}"


def _fmt_payments(payments: dict) -> str:
    """The payments as ``key:amount`` in the dict's own order, which is
    key order for every caller: a rule trace lists its payers in
    ``instance.voters`` order, which ``PBInstance.build`` sorts, and a
    price system's row lists its projects in ``sorted(bundle)`` order."""
    # The voters of one ballot type share one payment object: format it once.
    text = {id(p): str(p) for p in _distinct(payments.values())}
    return " ".join([f"{v}:{text[id(p)]}" for v, p in payments.items()])


def _report(*lines) -> str:
    """A report's text: the header line, then each line."""
    return "".join(line + "\n" for line in (REPORT_HEADER, *lines))


def _witness_lines(witness):
    if witness is None:
        return []
    if isinstance(witness, (CohesivenessWitness, CoreWitness)):
        lines = [
            f"  witness group  {_fmt_set(witness.group)}",
            f"  witness target {_fmt_set(witness.target)}",
        ]
        if isinstance(witness, CohesivenessWitness):
            lines += [f"  alpha({c}) = {witness.alpha[c]}" for c in sorted(witness.target)]
            lines.append(f"  alpha total = {witness.sum_alpha()}")
        return lines
    if isinstance(witness, CommitteeWitness):
        return [
            f"  witness group {_fmt_set(witness.group)}",
            f"  owed level    {witness.level}",
        ]
    return [f"  witness: {witness}"]


def _certificate_lines(cert):
    if not isinstance(cert, PriceSystem):
        return []
    lines = [f"  price system: initial budget b = {cert.initial_budget}"]
    for v in sorted(cert.payments):
        row = {c: p for c, p in cert.payments[v].items() if p != 0}
        if row:
            lines.append(f"    {v} pays {_fmt_payments(row)}")
    return lines


def _step_line(clock, step):
    """One purchase of a Phragmén event or a Rule X round, at its clock."""
    line = f"  {clock} buy {step.project} payments {_fmt_payments(step.payments)}"
    if step.tied_with:
        line += f" tied-with {','.join(step.tied_with)}"
    return line


def _rule_lines(args, instance):
    """The report lines of one rule run, after the header."""
    if args.rule == "pav":
        if args.all_ties:
            winners, score, ties = pav(instance, collect_ties=True)
        else:
            (winners, score), ties = pav(instance), []
        return [
            f"bundle {_fmt_set(winners)}",
            f"score {score}",
            *(f"  maximizer {_fmt_set(t)}" for t in ties),
        ]
    if args.rule == "phragmen":
        winners, trace = phragmen(instance, collect_ties=args.all_ties)
        steps = [_step_line(f"t={e.time}", e) for e in trace.events]
        steps.append(f"  stop at t={trace.stop_time} ({trace.stop_reason})")
    else:
        winners, trace = rule_x(instance, collect_ties=args.all_ties)
        steps = [_step_line(f"rho={r.rho}", r) for r in trace.rounds]
    return [f"bundle {_fmt_set(winners)}", *steps]


def _cmd_run(args):
    instance = load_instance(args.file)
    if args.threshold is not None:
        try:
            threshold = as_fraction(args.threshold)
        except InputError as exc:
            raise InputError(f"--threshold: bad rational {args.threshold!r} ({exc})") from exc
        instance = binarize(instance, threshold)
    return 0, _report(f"rule {args.rule} on {args.file}", *_rule_lines(args, instance))


def _cmd_check(args):
    instance = load_instance(args.file)
    bundle = frozenset(x for x in args.bundle.split(",") if x)
    axiom = "priceable1" if args.axiom == "priceable" and args.b_min else args.axiom
    verdict = MAIN_CHECKERS[axiom](instance, bundle)
    return 0 if verdict.satisfied else 1, _report(
        f"check {args.axiom} on {args.file} bundle {_fmt_set(bundle)}",
        "Satisfied" if verdict.satisfied else "Violated",
        *_witness_lines(verdict.witness),
        *_certificate_lines(verdict.certificate),
    )


def _tree_lines(node, indent="  "):
    deeper = indent + "  "
    if isinstance(node, UnanimousLeaf):
        return [
            f"{indent}leaf voters {_fmt_set(node.voters)} projects "
            f"{_fmt_set(node.projects)} budget {node.budget}"
        ]
    if isinstance(node, UnanimousProject):
        return [
            f"{indent}unanimous project {node.project} budget {node.budget}",
            *_tree_lines(node.child, deeper),
        ]
    return [
        f"{indent}split budget {node.budget}",
        *_tree_lines(node.left, deeper),
        *_tree_lines(node.right, deeper),
    ]


def _cmd_laminar(args):
    root = recognize_laminar(load_instance(args.file))
    if root is None:
        return 1, _report("not laminar: instance is not laminar")
    return 0, _report(f"laminar instance {args.file}", *_tree_lines(root))


def _cmd_gen(args):
    if args.kind == "laminar":
        instance = generate_laminar(args.seed, max_depth=args.depth)
    else:
        spec = GeneratorSpec(
            max_voters=args.max_voters,
            max_projects=args.max_projects,
            approval=not args.cardinal,
        )
        instance = random_instance(spec, random.Random(args.seed))
    text = serialize_instance(instance)
    if not args.out:
        return 0, text
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0, ""


def _cmd_search(args):
    found = search_counterexample(
        GeneratorSpec(), args.assume, args.conclude, trials=args.trials, seed=args.seed
    )
    head = f"search {args.assume} => {args.conclude} trials={args.trials} seed={args.seed}"
    if found is None:
        return 0, _report(head, "NoneFound")
    return 0, _report(
        head,
        f"counterexample at trial {found.trial}",
        f"bundle {_fmt_set(found.bundle)}",
    ) + serialize_instance(found.instance)


def _cmd_verify(args):
    items = run_verification()
    width = max(len(i.name) for i in items)
    failures = sum(not i.ok for i in items)
    return 0 if failures == 0 else 1, _report(
        *(f"{i.name.ljust(width)}  {'pass' if i.ok else 'FAIL'}  {i.detail}" for i in items),
        f"{len(items) - failures}/{len(items)} fixtures pass",
    )


def _at_least(least):
    """An argparse type: an int no smaller than ``least``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below the minimum {least}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbprop",
        description="Exact budgeting rules and proportionality-axiom checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a voting rule on an instance file")
    p_run.add_argument("rule", choices=RULES)
    p_run.add_argument("file")
    p_run.add_argument("--threshold", help="binarize utilities at this value first")
    p_run.add_argument("--all-ties", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="check an axiom for a given bundle")
    p_check.add_argument("axiom", choices=sorted(set(MAIN_CHECKERS) - {"priceable1"}))
    p_check.add_argument("file")
    p_check.add_argument("--bundle", required=True, help="comma-separated project ids")
    p_check.add_argument(
        "--b-min", type=int, choices=(0, 1), default=0,
        help="lower bound on the price-system budget (priceable only)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_lam = sub.add_parser("laminar", help="recognize and dump the decomposition")
    p_lam.add_argument("file")
    p_lam.set_defaults(func=_cmd_laminar)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("kind", choices=("laminar", "random"))
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--depth", type=_at_least(0), default=2)
    p_gen.add_argument("--max-voters", type=_at_least(1), default=5)
    p_gen.add_argument("--max-projects", type=_at_least(1), default=4)
    p_gen.add_argument("--cardinal", action="store_true")
    p_gen.add_argument("--out", help="write to this path instead of stdout")
    p_gen.set_defaults(func=_cmd_gen)

    p_search = sub.add_parser("search", help="hunt for an axiom-implication witness")
    p_search.add_argument("--assume", required=True, choices=sorted(MAIN_CHECKERS))
    p_search.add_argument("--conclude", required=True, choices=sorted(MAIN_CHECKERS))
    p_search.add_argument("--trials", type=_at_least(1), default=200)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser(
        "paper-verify", help="run the built-in reference fixture suite"
    )
    p_verify.set_defaults(func=_cmd_verify)
    return parser


# Built on first use and kept: every build leaves argparse's formatter
# objects in reference cycles, which only the cyclic collector frees.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage error, 0 on --help; keep that contract.
        return int(exc.code or 0)
    try:
        status, text = args.func(args)
        sys.stdout.write(text)
        return status
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapExceeded, OSError, ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message; print the message bare.
        bare = isinstance(exc, KeyError) and len(exc.args) == 1
        print(f"error: {exc.args[0] if bare else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
