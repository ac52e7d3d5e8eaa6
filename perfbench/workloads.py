"""The four workloads.

Each workload draws its inputs from the seed in ``setup`` (untimed for the
loop, but part of set-up time), runs one audit per input in ``run`` (the
timed operation), and checks that audit's outputs in ``check`` (untimed).
Every workload has a fixed ladder of input shapes; the seed only draws
their contents, so two seeds give the same mix of sizes.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction

from pbprop import axioms, cli, laminar, oracle, rules

from checks import (
    CheckFailed,
    Election,
    best_pav_score,
    check_bpjr_witness,
    check_cohesive_witness,
    check_committee_witness,
    check_core_witness,
    check_laminar_tree,
    check_pav,
    check_phragmen,
    check_price_system,
    check_rule_x,
    counting_unpriceable,
    require,
)

ONE = Fraction(1)


class OperationError(Exception):
    """The program exited with an unexpected status."""


# --- generated .pb elections ---------------------------------------------


def draw_election(rng, n, m, pool):
    """A Pabulib-shaped approval election: costs in the thousands, a budget
    of a quarter of the total cost, and ballots drawn from `pool`
    ballot types with Zipf weights, so that ballots repeat."""
    projects = tuple(f"p{j:02d}" for j in range(m))
    cost = {c: Fraction(rng.randint(100, 999) * 10) for c in projects}
    budget = Fraction(sum(cost.values()) // 4)
    popularity = [1 / (j + 1) for j in range(m)]
    rng.shuffle(popularity)
    types = []
    for _ in range(pool):
        size = rng.randint(1, min(6, m))
        ballot = set()
        while len(ballot) < size:
            ballot.add(rng.choices(projects, popularity)[0])
        types.append(tuple(sorted(ballot)))
    weights = [1 / (t + 1) for t in range(pool)]
    voters = tuple(f"v{i:05d}" for i in range(n))
    ballots = dict(zip(voters, rng.choices(types, weights, k=n)))
    u = {v: {c: ONE for c in ballots[v]} for v in voters}
    return Election(voters, projects, cost, u, budget), ballots


def pabulib_text(e, ballots, title):
    lines = ["META", "key;value", f"description;{title}", "vote_type;approval", f"budget;{e.budget}"]
    lines += ["PROJECTS", "project_id;cost"] + [f"{c};{e.cost[c]}" for c in e.projects]
    lines += ["VOTES", "voter_id;vote"] + [f"{v};{','.join(ballots[v])}" for v in e.voters]
    return "\n".join(lines) + "\n"


def repeated_share(e):
    """Share of voters whose ballot equals an earlier voter's."""
    distinct = {frozenset(e.u[v]) for v in e.voters}
    return 1 - len(distinct) / len(e.voters)


def election_shape(e):
    return f"n={len(e.voters)} m={len(e.projects)} budget={e.budget} repeated ballots {repeated_share(e):.0%}"


# The last field of a .pb case holds the reports already checked: a report
# is text, so a byte-identical one on a later pass needs no second check.


def write_elections(seed, workdir, name, ladder):
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    cases = []
    for j, (n, m, pool) in enumerate(ladder):
        e, ballots = draw_election(rng, n, m, pool)
        path = os.path.join(workdir, f"election{j}.pb")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pabulib_text(e, ballots, f"{name} seed {seed} election {j}"))
        cases.append((path, e, set()))
    return cases


# --- CLI calls and their reports ------------------------------------------


def run_cli(expected, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    if status != expected:
        raise OperationError(f"pbprop {' '.join(argv)} exited {status}: {err.getvalue().strip()}")
    return out.getvalue()


def _parse_set(text):
    inner = text[text.index("{") + 1 : text.rindex("}")]
    return frozenset(x for x in inner.split(",") if x)


def _parse_payments(fields):
    pays = {}
    for item in fields:
        v, _, p = item.partition(":")
        pays[v] = Fraction(p)
    return pays


def bundle_of(report):
    return _parse_set(report.splitlines()[2])


def parse_rule_report(report):
    """bundle, [(t or rho, project, payments)], (stop time, reason)."""
    lines = report.splitlines()
    require(lines[0].startswith("pbprop report v1"), "missing report header")
    steps, stop = [], (None, None)
    for line in lines[3:]:
        fields = line.split()
        if fields[0] == "stop":
            stop = (Fraction(fields[2][2:]), fields[3].strip("()"))
        else:
            require(fields[1] == "buy" and fields[3] == "payments", f"bad step line {line!r}")
            steps.append((Fraction(fields[0].partition("=")[2]), fields[2], _parse_payments(fields[4:])))
    return bundle_of(report), steps, stop


def parse_priceable_report(report):
    """(satisfied, b, payments); b and payments are None when violated."""
    lines = report.splitlines()
    require(lines[2] in ("Satisfied", "Violated"), f"bad verdict line {lines[2]!r}")
    if lines[2] == "Violated":
        return False, None, None
    b = Fraction(lines[3].rpartition("=")[2].strip())
    payments = {}
    for line in lines[4:]:
        voter, pays, *rest = line.split()
        require(pays == "pays", f"bad payment line {line!r}")
        payments[voter] = _parse_payments(rest)
    return True, b, payments


def check_rule_reports(e, phragmen_report, rule_x_report):
    bundle, events, (stop_time, reason) = parse_rule_report(phragmen_report)
    check_phragmen(e, bundle, events, stop_time, reason)
    bundle, rounds, _ = parse_rule_report(rule_x_report)
    check_rule_x(e, bundle, rounds)


# --- pabulib-rules ---------------------------------------------------------


class PabulibRules:
    """1000 voters, 30-34 projects: parse, run both rules, format."""

    ladder = tuple((1000, m, pool) for m in (30, 32, 34) for pool in (20, 60, 200)) * 2

    def setup(self, seed, workdir):
        return write_elections(seed, workdir, "pabulib-rules", self.ladder)

    def run(self, case):
        return run_cli(0, "run", "phragmen", case[0]), run_cli(0, "run", "rulex", case[0])

    def check(self, case, result):
        if result in case[-1]:
            return
        check_rule_reports(case[1], *result)
        case[-1].add(result)

    def shape(self, case):
        return election_shape(case[1])


# --- pabulib-priceability ---------------------------------------------------


def unpriceable_bundle(e, rng):
    """A bundle W with a project c' in W and c outside W for which the
    counting argument of checks.counting_unpriceable applies, grown by
    further projects while the argument still holds; None if no pair fits."""
    support = {c: len(e.supporters(c)) for c in e.projects}
    pairs = [
        (c_out, c_in)
        for c_out in e.projects
        for c_in in e.projects
        if c_out != c_in and support[c_in] and e.cost[c_in] <= e.budget
        and counting_unpriceable(e, {c_in}, c_out, c_in)
    ]
    if not pairs:
        return None
    c_out, c_in = rng.choice(pairs)
    bundle = {c_in}
    extra = [c for c in e.projects if c not in (c_out, c_in) and support[c]]
    rng.shuffle(extra)
    for c in extra:
        grown = bundle | {c}
        if e.cost_of(grown) <= e.budget and counting_unpriceable(e, grown, c_out, c_in):
            bundle = grown
    return frozenset(bundle), c_out, c_in


class PabulibPriceability:
    """12 voters, 13 projects: the rules, then the exact
    priceability LP on both outcomes and on one provably unpriceable
    bundle.  Small pools give many repeated ballots, large pools few."""

    # One shape, so that the median operation sits inside one group; the
    # pool size sets the share of repeated ballots.
    ladder = tuple((12, 13, pool) for pool in (3, 6, 12)) * 32

    def setup(self, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(f"pabulib-priceability:{seed}")
        cases = []
        for j, (n, m, pool) in enumerate(self.ladder):
            found = None
            while found is None:
                e, ballots = draw_election(rng, n, m, pool)
                found = unpriceable_bundle(e, rng)
            path = os.path.join(workdir, f"election{j}.pb")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(pabulib_text(e, ballots, f"pabulib-priceability seed {seed} election {j}"))
            cases.append((path, e, found, set()))
        return cases

    def run(self, case):
        path, _, (bad, _, _), _ = case
        reports = [run_cli(0, "run", "phragmen", path), run_cli(0, "run", "rulex", path)]
        for report in list(reports):
            bundle = ",".join(sorted(bundle_of(report)))
            reports.append(run_cli(0, "check", "priceable", path, "--bundle", bundle))
        reports.append(run_cli(1, "check", "priceable", path, "--bundle", ",".join(sorted(bad))))
        return tuple(reports)

    def check(self, case, result):
        _, e, (bad, c_out, c_in), verified = case
        if result in verified:
            return
        check_rule_reports(e, result[0], result[1])
        for rule_report, report in zip(result[:2], result[2:4]):
            satisfied, b, payments = parse_priceable_report(report)
            require(satisfied, "a rule outcome was judged unpriceable")
            check_price_system(e, bundle_of(rule_report), b, payments)
        require(counting_unpriceable(e, bad, c_out, c_in), "constructed bundle lost its argument")
        require(not parse_priceable_report(result[4])[0], "provably unpriceable bundle judged priceable")
        verified.add(result)

    def shape(self, case):
        return f"{election_shape(case[1])}, unpriceable bundle of {len(case[2][0])}"


# --- axiom-sweep ------------------------------------------------------------

AXIOMS = ("core", "ejr", "ejr1", "pjr", "pjr1", "priceable")
ORACLE_MAX = 5  # n and m at most this: verdicts re-decided by oracle_axiom
SWEEP_SHAPES = ((5, 5), (5, 6), (6, 5), (6, 6), (5, 7), (7, 5), (6, 7), (7, 6), (5, 8), (8, 5))


def decide(axiom, instance, bundle):
    if axiom == "core":
        return axioms.check_core(instance, bundle)
    if axiom in ("ejr", "ejr1"):
        return axioms.check_ejr(instance, bundle, up_to_one=axiom == "ejr1")
    if axiom in ("pjr", "pjr1"):
        return axioms.check_pjr(instance, bundle, up_to_one=axiom == "pjr1")
    if axiom == "bpjr":
        return axioms.check_strong_bpjr(instance, bundle)
    if axiom == "mwvpjr":
        return axioms.check_mwv_pjr(instance, bundle)
    return axioms.check_priceable(instance, bundle)


def check_verdict(e, bundle, axiom, verdict):
    """A violated subset-search verdict carries a witness that meets the
    definition; a satisfied priceability verdict carries a price system."""
    w = verdict.witness
    if axiom == "priceable":
        if verdict.satisfied:
            ps = verdict.certificate
            check_price_system(e, bundle, ps.initial_budget, ps.payments)
    elif not verdict.satisfied:
        if axiom == "core":
            check_core_witness(e, bundle, w.group, w.target)
        elif axiom in ("bpjr", "mwvpjr"):
            check = check_bpjr_witness if axiom == "bpjr" else check_committee_witness
            check(e, bundle, w.group, w.level)
        else:
            check_cohesive_witness(e, bundle, w.group, w.target, w.alpha, axiom[:3], axiom.endswith("1"))


def random_affordable(e, rng):
    order = list(e.projects)
    rng.shuffle(order)
    bundle = set()
    for c in order:
        if rng.random() < 0.5 and e.cost_of(bundle | {c}) <= e.budget:
            bundle.add(c)
    return frozenset(bundle)


class AxiomSweep:
    """Random approval, cardinal and committee instances at n, m = 5..8:
    every rule outcome and one random affordable bundle against every
    axiom that applies."""

    # A graded ladder of sizes, so that the median operation does not sit
    # between two groups of very different cost; the 5 x 5 instances are
    # small enough for the oracle.
    ladder = tuple((kind, n, m) for kind in ("approval", "cardinal", "committee") for n, m in SWEEP_SHAPES) * 3

    def setup(self, seed, workdir):
        cases = []
        for j, (kind, n, m) in enumerate(self.ladder):
            rng = random.Random(f"axiom-sweep:{seed}:{j}")
            spec = oracle.GeneratorSpec(
                min_voters=n, max_voters=n, min_projects=m, max_projects=m,
                approval=kind != "cardinal",
                budget_numerator_range=(3, 3),
                **(dict(cost_denominator=1, max_cost_numerator=1, budget_denominator=1) if kind == "committee" else {}),
            )
            instance = oracle.random_instance(spec, rng)
            e = Election.copy_of(instance)
            # The last field memoizes check results that depend on the input
            # alone (best PAV score, oracle verdicts), so later passes reuse them.
            cases.append((kind, instance, e, random_affordable(e, rng), {}))
        return cases

    def run(self, case):
        kind, instance, _, bundle, _ = case
        outcomes = {"rulex": rules.rule_x(instance), "random": (bundle, None)}
        if kind != "cardinal":
            outcomes["phragmen"] = rules.phragmen(instance)
            outcomes["pav"] = rules.pav(instance)
        names = AXIOMS + (("bpjr",) if kind != "cardinal" else ()) + (("mwvpjr",) if kind == "committee" else ())
        verdicts = {
            (rule, axiom): decide(axiom, instance, outcome[0])
            for rule, outcome in outcomes.items()
            for axiom in names
        }
        return outcomes, verdicts

    def check(self, case, result):
        kind, instance, e, _, memo = case
        outcomes, verdicts = result
        bundles = {rule: outcome[0] for rule, outcome in outcomes.items()}
        check_rule_x(e, bundles["rulex"], [(r.rho, r.project, r.payments) for r in outcomes["rulex"][1].rounds])
        if kind != "cardinal":
            trace = outcomes["phragmen"][1]
            events = [(ev.time, ev.project, ev.payments) for ev in trace.events]
            check_phragmen(e, bundles["phragmen"], events, trace.stop_time, trace.stop_reason)
            if "pav" not in memo:
                memo["pav"] = best_pav_score(e)
            check_pav(e, bundles["pav"], outcomes["pav"][1], memo["pav"])
        ok = {key: verdict.satisfied for key, verdict in verdicts.items()}
        for (rule, axiom), verdict in verdicts.items():
            check_verdict(e, bundles[rule], axiom, verdict)
        require(ok[("rulex", "ejr1")] and ok[("rulex", "pjr1")], "Rule X outcome fails EJR-1 or PJR-1")
        require(ok[("rulex", "priceable")], "Rule X outcome judged unpriceable")
        if kind != "cardinal":
            require(ok[("phragmen", "pjr")], "Phragmén outcome fails PJR")
            require(ok[("phragmen", "priceable")], "Phragmén outcome judged unpriceable")
        for rule in bundles:
            ejr, pjr = ok[(rule, "ejr")], ok[(rule, "pjr")]
            require(not ejr or (pjr and ok[(rule, "ejr1")]), f"{rule}: EJR without PJR or EJR-1")
            require(not pjr or ok[(rule, "pjr1")], f"{rule}: PJR without PJR-1")
            if kind == "committee":
                require(pjr == ok[(rule, "mwvpjr")], f"{rule}: PJR and committee PJR disagree")
                require(ejr == ok[(rule, "ejr1")], f"{rule}: EJR and EJR-1 disagree on a committee")
        if len(e.voters) <= ORACLE_MAX and len(e.projects) <= ORACLE_MAX:
            for (rule, axiom), satisfied in ok.items():
                key = (bundles[rule], axiom)
                if key not in memo:
                    memo[key] = oracle.oracle_axiom(instance, bundles[rule], axiom).satisfied
                require(satisfied == memo[key], f"{rule}/{axiom}: oracle disagrees")

    def shape(self, case):
        return f"{case[0]} n={len(case[2].voters)} m={len(case[2].projects)}"


# --- laminar ------------------------------------------------------------------


def draw_laminar(generate, tag, cap, m, **kw):
    """Redraw until the instance has exactly m projects and at most `cap`
    voters."""
    probe = 0
    while True:
        instance = generate(f"{tag}:{probe}", **kw)
        if len(instance.voters) <= cap and len(instance.projects) == m:
            return instance
        probe += 1


class Laminar:
    """Small laminar instances: recognition, enumeration, and for every
    certified bundle certification, the constructed price system, the
    restricted core and the LP; committee instances also core and EJR."""

    # (count, projects, most voters) of the general and of the committee
    # instances.  At these sizes both kinds cost about the same, so the
    # median operation is steady; larger instances have a long tail in the
    # count of certified bundles, and EJR on committees grows fast.
    general, committees = (300, 6, 8), (100, 4, 7)

    def setup(self, seed, workdir):
        cases = []
        for committee, generate, (count, m, cap) in (
            (False, laminar.generate_laminar, self.general),
            (True, laminar.generate_laminar_mwv, self.committees),
        ):
            for j in range(count):
                instance = draw_laminar(generate, f"bench:{seed}:{j}", cap, m)
                cases.append((committee, instance, Election.copy_of(instance)))
        return cases

    def run(self, case):
        committee, instance, _ = case
        root = laminar.recognize_laminar(instance)
        per_bundle = []
        for w in list(laminar.laminar_bundles(instance)):
            row = {
                "certified": laminar.is_laminar_proportional(instance, w),
                "price_system": laminar.laminar_price_system(instance, w),
                "core_u_afford": laminar.check_core_u_afford(instance, w),
                "priceable": axioms.check_priceable(instance, w),
            }
            if committee:
                row["core"] = axioms.check_core(instance, w)
                row["ejr"] = axioms.check_ejr(instance, w)
            per_bundle.append((w, row))
        extra = None
        if committee:
            w = rules.phragmen(instance)[0]
            extra = (w, axioms.check_core(instance, w), axioms.check_ejr(instance, w))
        return root, per_bundle, extra

    def check(self, case, result):
        committee, _, e = case
        root, per_bundle, extra = result
        require(root is not None, "laminar instance not recognized")
        check_laminar_tree(e, root)
        require(per_bundle, "no certified bundle")
        require(len({w for w, _ in per_bundle}) == len(per_bundle), "a bundle is listed twice")
        for w, row in per_bundle:
            require(e.cost_of(w) <= e.budget, "certified bundle over budget")
            for name in ("certified", "core_u_afford", "priceable") + (("core", "ejr") if committee else ()):
                require(row[name].satisfied, f"{name} fails on a certified bundle")
            ps = row["price_system"]
            require(ps.initial_budget == e.cost_of(w), "constructed price system has b != cost(W)")
            check_price_system(e, w, ps.initial_budget, ps.payments)
            check_verdict(e, w, "priceable", row["priceable"])
        if committee:
            _, core, ejr = extra
            require(core.satisfied and ejr.satisfied, "Phragmén outcome fails core or EJR")

    def shape(self, case):
        return f"{'committee' if case[0] else 'general'} n={len(case[2].voters)} m={len(case[2].projects)}"


WORKLOADS = {
    "pabulib-rules": PabulibRules(),
    "pabulib-priceability": PabulibPriceability(),
    "axiom-sweep": AxiomSweep(),
    "laminar": Laminar(),
}
