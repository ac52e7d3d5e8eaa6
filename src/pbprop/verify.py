"""Built-in verification suite over the shipped reference fixtures.

Each row of ``TABLE`` re-derives documented outcomes on one fixture: rule
winners, axiom verdicts (checkers from ``registry.MAIN_CHECKERS``), first
witnesses, and a stated cohesive group with its exact covered and required
totals. Every price-system certificate is re-validated. The cardinal_quartet
rule walkthrough and the split_ten decomposition are checked by a function
each. The CLI exposes the suite as the ``paper-verify`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Optional

from .axioms import (
    CohesivenessWitness,
    PriceSystem,
    validate_cohesiveness_witness,
    validate_price_system,
)
from .fixtures import get_fixture, tall_stack_bundle
from .laminar import Split, UnanimousProject, recognize_laminar
from .model import binarize
from .registry import MAIN_CHECKERS
from .rules import pav, pav_score, phragmen, rule_x

RULES = {"phragmen": phragmen, "rulex": rule_x}


@dataclass
class VerifyItem:
    name: str
    ok: bool
    detail: str


def _rules_walkthrough(inst):
    approval = binarize(inst, "3/10")
    problems = []
    winners, trace = phragmen(approval)
    if winners != {"c2", "c4"}:
        problems.append(f"phragmen returned {sorted(winners)}")
    times = [e.time for e in trace.events]
    if times != [F(1, 10), F(11, 40)]:
        problems.append(f"phragmen event times {times}")
    pav_winner, score = pav(approval)
    if pav_winner != {"c2", "c3"} or score != F(9, 2):
        problems.append(f"pav returned {sorted(pav_winner)} score {score}")
    pav_scores = [("c1", "c4", F(7, 2)), ("c1", "c2", F(4)), ("c2", "c3", F(9, 2)),
                  ("c2", "c4", F(4))]
    for *bundle, want in pav_scores:
        got = pav_score(approval, frozenset(bundle))
        if got != want:
            problems.append(f"pav_score({sorted(bundle)}) = {got}, want {want}")
    x_winner, x_trace = rule_x(inst)
    if x_winner != {"c1", "c4"}:
        problems.append(f"rule_x returned {sorted(x_winner)}")
    rhos = [r.rho for r in x_trace.rounds]
    if rhos != [F(7, 32), F(2, 9)]:
        problems.append(f"rule_x rhos {rhos}")
    spent = sum((p for r in x_trace.rounds for p in r.payments.values()), F(0))
    if inst.budget - spent != F(1, 4):
        problems.append(f"rule_x remaining budget {inst.budget - spent}")
    return problems


def _split_ten_tree(inst):
    root = recognize_laminar(inst)
    if not isinstance(root, UnanimousProject) or root.project != "c6":
        return ["root is not the unanimous project c6"]
    if not isinstance(root.child, Split):
        return ["child is not a split"]
    left, right = root.child.left, root.child.right
    budgets = sorted([left.budget, right.budget])
    sizes = sorted([len(left.voters), len(right.voters)])
    if budgets != [3, 6] or sizes != [1, 2]:
        return [f"split budgets {budgets}, sizes {sizes}"]
    if len(left.voters) * right.budget != len(right.voters) * left.budget:
        return ["split is not proportional"]
    return []


@dataclass(frozen=True)
class Row:
    name: str
    fixture: str
    detail: str  # the text of the pass line
    bundle: frozenset = frozenset()
    winners: dict = field(default_factory=dict)  # rule -> its winning bundle
    verdicts: dict = field(default_factory=dict)  # axiom id -> satisfied
    witnesses: dict = field(default_factory=dict)  # axiom id -> (group, target)
    # (group, alpha, covered, required): a cohesive group whose best-covered
    # utility in the bundle falls short of its alpha total, both stated exactly
    cohesive: tuple = ()
    extra: Optional[Callable] = None  # instance -> list of problems


CHEAP_FILL = frozenset({"c1", "c2", "c3", "c4", "c5"})

TABLE = (
    Row("rules-walkthrough", "cardinal_quartet",
        "phragmen/pav/rule_x all as documented", extra=_rules_walkthrough),
    Row("pjr-violation-witness", "cardinal_quartet", "3/5 < 7/10",
        bundle=frozenset({"c2", "c3"}), verdicts={"pjr": False},
        witnesses={"pjr": ({"v1", "v2"}, {"c1"})},
        cohesive=({"v1", "v2"}, {"c1": F(7, 10)}, F(3, 5), F(7, 10))),
    Row("laminar-recognition-split", "split_ten", "split 2*3 = 1*6",
        bundle=frozenset({"c1", "c2", "c4", "c6"}), verdicts={"laminarprop": True},
        extra=_split_ten_tree),
    Row("rules-skip-unanimous-project", "cheap_fill",
        "both rules fill with cheap projects", bundle=CHEAP_FILL,
        winners={"phragmen": CHEAP_FILL, "rulex": CHEAP_FILL},
        verdicts={"laminarprop": False}),
    Row("representative-but-unpriceable", "unit_split",
        "pjr/ejr/core hold, priceability fails",
        bundle=frozenset({"c1", "c2", "c3", "c4"}),
        verdicts={"pjr": True, "ejr": True, "core": True, "priceable": False,
                  "laminarprop": False}),
    Row("priceable-but-not-pjr", "two_camps", "3/5 < 4/5",
        bundle=frozenset({"t2", "c1", "c2", "c3"}),
        verdicts={"priceable": True, "pjr": False},
        cohesive=({"s1", "s2"}, {"t1": F(2, 5), "t2": F(2, 5)}, F(3, 5), F(4, 5))),
    Row("core-blocked-by-cheap-stack", "tall_stack",
        "blocking pair fails u-affordability", bundle=tall_stack_bundle(),
        verdicts={"core": False, "coreuafford": True, "laminarprop": True},
        witnesses={"core": ({"v1", "v2", "v3"}, {f"t{i}" for i in range(1, 9)})}),
    Row("priceable-but-not-ejr", "common_tail",
        "personal projects shadow the shared tail",
        bundle=frozenset({"c1", "c2", "c3"}),
        verdicts={"priceable": True, "ejr": False, "core": False}),
)


def _problems(row):
    inst, bundle = get_fixture(row.fixture), row.bundle
    problems = row.extra(inst) if row.extra else []
    for rule, want in row.winners.items():
        winners = RULES[rule](inst)[0]
        if winners != want:
            problems.append(f"{rule} returned {sorted(winners)}")
    for axiom, want in row.verdicts.items():
        verdict = MAIN_CHECKERS[axiom](inst, bundle)
        if verdict.satisfied != want:
            wrong = "wrongly satisfied" if verdict.satisfied else "violated"
            problems.append(f"{axiom} {wrong}")
            continue
        if axiom in row.witnesses:
            w = verdict.witness
            if (w.group, w.target) != row.witnesses[axiom]:
                problems.append(
                    f"{axiom} witness ({sorted(w.group)}, {sorted(w.target)})"
                )
        if isinstance(verdict.certificate, PriceSystem):
            report = validate_price_system(inst, bundle, verdict.certificate)
            if not report.ok:
                problems.append(f"{axiom} certificate invalid: {report.problems}")
    if row.cohesive:
        group, alpha, covered_want, required_want = row.cohesive
        stated = CohesivenessWitness(frozenset(group), frozenset(alpha), alpha)
        if not validate_cohesiveness_witness(inst, stated):
            problems.append("stated witness not cohesive")
        covered = sum(
            (max(inst.utilities[v][c] for v in group) for c in bundle), F(0)
        )
        required = stated.sum_alpha()
        if not (covered == covered_want < required == required_want):
            problems.append(f"comparison {covered} vs {required}")
    return problems


def run_verification() -> list:
    items = []
    for row in TABLE:
        problems = _problems(row)
        detail = "; ".join(problems) or row.detail
        items.append(VerifyItem(row.name, not problems, detail))
    return items
