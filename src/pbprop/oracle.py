"""Definition-literal brute-force oracles and randomized counterexample
search.

Everything here is deliberately naive: nested loops over voter groups,
project subsets and threshold assignments, with no pruning and no shared
code with the production checkers (utilities come from
``instance.utilities``, never from the ballot-type table).  These routines
exist to differentially test the main checkers and to hunt for
counterexamples to axiom implications; caps are small on purpose.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from . import config
from .axioms import SATISFIED, VIOLATED, AxiomVerdict
from .model import CapExceeded, PBInstance, PreconditionError, check_bundle


class OracleCapError(CapExceeded):
    """A brute-force oracle would exceed its size cap."""


def _check_caps(instance):
    cap = config.ORACLE_MAX_BITS
    if len(instance.voters) > cap or len(instance.projects) > cap:
        raise OracleCapError(
            f"oracle caps are n, m <= {cap}; instance has "
            f"{len(instance.voters)} voters, {len(instance.projects)} projects"
        )


def _subsets(items, nonempty=False):
    for r in range(1 if nonempty else 0, len(items) + 1):
        yield from combinations(items, r)


def enumerate_affordable(instance: PBInstance):
    """All bundles with cost within budget, in canonical order."""
    _check_caps(instance)
    bundles = [
        frozenset(combo)
        for combo in _subsets(instance.projects)
        if instance.cost_of(combo) <= instance.budget
    ]
    yield from sorted(bundles, key=lambda w: (len(w), tuple(sorted(w))))


def _verdict(violated, witness=None):
    return AxiomVerdict(VIOLATED if violated else SATISFIED, witness=witness)


def _oracle_core(instance, bundle):
    n = len(instance.voters)
    for group in _subsets(instance.voters, nonempty=True):
        for target in _subsets(instance.projects, nonempty=True):
            if len(group) * instance.budget < instance.cost_of(target) * n:
                continue
            if all(
                instance.voter_utility(v, target) > instance.voter_utility(v, bundle)
                for v in group
            ):
                return _verdict(True, (frozenset(group), frozenset(target)))
    return _verdict(False)


def _alpha_choices(instance, group, target):
    """Per-project candidate thresholds: attained utility values (plus 0)
    that every group member reaches.  Thresholds between attained values
    never help, so this grid is lossless."""
    choices = []
    for c in target:
        lo = min(instance.utilities[v][c] for v in group)
        values = {Fraction(0)} | {
            instance.utilities[v][c]
            for v in instance.voters
            if instance.utilities[v][c] <= lo
        }
        choices.append(sorted(values))
    size = 1
    for ch in choices:
        size *= len(ch)
        if size > config.ORACLE_ALPHA_CAP:
            raise OracleCapError("alpha search space exceeds oracle cap")
    return choices


def _oracle_cohesive(instance, bundle, style, up_to_one):
    n = len(instance.voters)
    for group in _subsets(instance.voters, nonempty=True):
        for target in _subsets(instance.projects, nonempty=True):
            if len(group) * instance.budget < instance.cost_of(target) * n:
                continue
            for alphas in product(*_alpha_choices(instance, group, target)):
                sum_alpha = sum(alphas, Fraction(0))
                if style == "ejr":
                    bad = all(
                        _ejr_voter_fails(instance, bundle, v, sum_alpha, up_to_one)
                        for v in group
                    )
                else:
                    bad = _pjr_group_fails(instance, bundle, group, sum_alpha, up_to_one)
                if bad:
                    alpha = dict(zip(target, alphas))
                    return _verdict(True, (frozenset(group), frozenset(target), alpha))
    return _verdict(False)


def _ejr_voter_fails(instance, bundle, voter, sum_alpha, up_to_one):
    if instance.voter_utility(voter, bundle) >= sum_alpha:
        return False
    if up_to_one:
        for a in instance.projects:
            if instance.voter_utility(voter, bundle | {a}) > sum_alpha:
                return False
    return True


def _pjr_group_fails(instance, bundle, group, sum_alpha, up_to_one):
    covered = sum(
        (max(instance.utilities[v][c] for v in group) for c in bundle), Fraction(0)
    )
    if covered >= sum_alpha:
        return False
    if up_to_one:
        for a in instance.projects:
            extra = sum(
                (max(instance.utilities[v][c] for v in group) for c in bundle | {a}),
                Fraction(0),
            )
            if extra > sum_alpha:
                return False
    return True


def _oracle_mwv_pjr(instance, bundle):
    k = instance.committee_size()
    n = len(instance.voters)
    approvals = {v: instance.approval_set(v) for v in instance.voters}
    for ell in range(1, k + 1):
        for group in _subsets(instance.voters, nonempty=True):
            if len(group) * k < ell * n:
                continue
            inter = frozenset.intersection(*(approvals[v] for v in group))
            if len(inter) < ell:
                continue
            union = frozenset.union(*(approvals[v] for v in group))
            if len(union & bundle) < ell:
                return _verdict(True, (frozenset(group), ell))
    return _verdict(False)


def _oracle_bpjr(instance, bundle):
    n = len(instance.voters)
    l = instance.budget
    approvals = {v: instance.approval_set(v) for v in instance.voters}
    for group in _subsets(instance.voters, nonempty=True):
        inter = frozenset.intersection(*(approvals[v] for v in group))
        union = frozenset.union(*(approvals[v] for v in group))
        levels = {instance.cost_of(t) for t in _subsets(tuple(inter))}
        levels |= {l, Fraction(len(group)) * l / n}
        for ell in sorted(levels):
            if not 0 < ell <= l:
                continue
            if len(group) * l < ell * n:
                continue
            if instance.cost_of(inter) >= ell > instance.cost_of(union & bundle):
                return _verdict(True, (frozenset(group), ell))
    return _verdict(False)


def _fm_normalize(rows):
    """Canonically scale rows (positive factor only), drop dominated
    duplicates, and fail fast on constant rows.

    Each row is (coeffs, rhs, ancestors) where ancestors is the set of
    original inequalities the row was combined from.  A duplicate may only
    be dropped when a kept row with the same coefficients dominates it in
    both the right-hand side and the ancestor set: a looser row with a
    smaller history must survive, since the tighter one may later fall to
    the history cap."""
    kept = {}
    for coeffs, rhs, anc in rows:
        coeffs = {k: a for k, a in coeffs.items() if a != 0}
        if not coeffs:
            if rhs < 0:
                return None
            continue
        scale = sum(abs(a) for a in coeffs.values())
        key = tuple(sorted((k, a / scale) for k, a in coeffs.items()))
        rhs = rhs / scale
        bucket = kept.setdefault(key, [])
        if any(r <= rhs and a <= anc for r, a in bucket):
            continue
        bucket[:] = [(r, a) for r, a in bucket if not (rhs <= r and anc <= a)]
        bucket.append((rhs, anc))
    return [
        (dict(key), rhs, anc)
        for key, bucket in kept.items()
        for rhs, anc in bucket
    ]


def fm_feasible(variables, rows) -> bool:
    """Fourier-Motzkin feasibility for rows of (coeffs, rhs) meaning
    sum coeffs . x <= rhs.

    Derived rows carry the index set of original inequalities they combine;
    after k eliminations any row drawing on more than k + 1 originals is
    redundant (Imbert's acceleration) and is dropped, which keeps the row
    growth polynomial on the systems the oracle builds."""
    rows = _fm_normalize(
        [(dict(c), Fraction(r), frozenset([i])) for i, (c, r) in enumerate(rows)]
    )
    remaining = set(variables)
    eliminated = 0
    while rows is not None and remaining:
        occurs = {v: [0, 0] for v in remaining}
        for coeffs, _, _ in rows:
            for k, a in coeffs.items():
                occurs[k][a < 0] += 1
        # Cheapest variable first keeps the row count manageable.
        var = min(remaining, key=lambda v: (occurs[v][0] * occurs[v][1], v))
        remaining.discard(var)
        eliminated += 1
        with_pos = []
        with_neg = []
        new_rows = []
        for coeffs, rhs, anc in rows:
            a = coeffs.get(var, Fraction(0))
            if a > 0:
                with_pos.append((coeffs, rhs, a, anc))
            elif a < 0:
                with_neg.append((coeffs, rhs, a, anc))
            else:
                new_rows.append((coeffs, rhs, anc))
        cap = eliminated + 1
        for cp, rp, ap, hp in with_pos:
            for cn, rn, an, hn in with_neg:
                anc = hp | hn
                if len(anc) > cap:
                    continue
                # Scale so var cancels: row_p / ap + row_n / (-an).
                coeffs = {}
                for k, vco in cp.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + vco / ap
                for k, vco in cn.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) - vco / an
                coeffs.pop(var, None)
                new_rows.append((coeffs, rp / ap - rn / an, anc))
        rows = _fm_normalize(new_rows)
    return rows is not None


def _oracle_priceable(instance, bundle, b_min_one=False):
    """Independent priceability decision: encode the support conditions as
    inequalities from scratch and eliminate variables with Fourier-Motzkin."""
    n = len(instance.voters)
    variables = ["b"]
    pairs = [
        (v, c)
        for v in instance.voters
        for c in sorted(bundle)
        if instance.utilities[v][c] > 0
    ]
    variables += [f"{v}|{c}" for v, c in pairs]
    rows = []
    rows.append(({"b": Fraction(-1)}, Fraction(-1 if b_min_one else 0)))
    for v, c in pairs:
        rows.append(({f"{v}|{c}": Fraction(-1)}, Fraction(0)))
    for v in instance.voters:
        coeffs = {f"{v}|{c}": Fraction(1) for (vv, c) in pairs if vv == v}
        coeffs["b"] = Fraction(-1, n)
        rows.append((coeffs, Fraction(0)))
    for c in sorted(bundle):
        coeffs = {f"{v}|{cc}": Fraction(1) for (v, cc) in pairs if cc == c}
        if not coeffs:
            if instance.cost[c] != 0:
                return _verdict(True)
            continue
        rows.append((dict(coeffs), instance.cost[c]))
        rows.append(({k: -x for k, x in coeffs.items()}, -instance.cost[c]))
    for c in instance.projects:
        if c in bundle:
            continue
        supporters = [v for v in instance.voters if instance.utilities[v][c] > 0]
        if not supporters:
            continue
        coeffs = {"b": Fraction(len(supporters), n)}
        for v in supporters:
            for (vv, cw) in pairs:
                if vv == v:
                    key = f"{v}|{cw}"
                    coeffs[key] = coeffs.get(key, Fraction(0)) - 1
        rows.append((coeffs, instance.cost[c]))
    return _verdict(not fm_feasible(variables, rows))


def oracle_axiom(instance: PBInstance, bundle, axiom: str, **opts) -> AxiomVerdict:
    """Decide an axiom by exhaustive definition-literal search."""
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    if axiom == "core":
        return _oracle_core(instance, bundle)
    if axiom in ("ejr", "ejr1"):
        return _oracle_cohesive(instance, bundle, "ejr", axiom == "ejr1")
    if axiom in ("pjr", "pjr1"):
        return _oracle_cohesive(instance, bundle, "pjr", axiom == "pjr1")
    if axiom == "mwvpjr":
        return _oracle_mwv_pjr(instance, bundle)
    if axiom == "bpjr":
        return _oracle_bpjr(instance, bundle)
    if axiom == "priceable":
        return _oracle_priceable(instance, bundle, **opts)
    raise ValueError(f"no oracle for axiom {axiom!r}")


def _oracle_rho(instance, remaining, project):
    """Minimal rho >= 0 at which the supporters of ``project`` pay its cost
    with voter v paying min(remaining[v], u_v * rho); None if no rho does.

    Tries every set C of capped supporters: for C short of all supporters,
    rho solves cost = remaining(C) + rho * u(rest); for C equal to all of
    them, the money must match the cost and rho is the last cap.  A
    candidate counts when the voters in C are capped at rho and the rest
    are not."""
    cost = instance.cost[project]
    utility = {v: instance.utilities[v][project] for v in instance.voters}
    supporters = [v for v in instance.voters if utility[v] > 0]
    best = None
    for capped in _subsets(supporters):
        free = [v for v in supporters if v not in capped]
        money = sum((remaining[v] for v in capped), Fraction(0))
        if free:
            rho = (cost - money) / sum((utility[v] for v in free), Fraction(0))
        elif capped and money == cost:
            rho = max(remaining[v] / utility[v] for v in capped)
        else:
            continue
        if rho < 0:
            continue
        if all(utility[v] * rho >= remaining[v] for v in capped) and all(
            utility[v] * rho <= remaining[v] for v in free
        ):
            best = rho if best is None else min(best, rho)
    return best


def oracle_rule_x(instance: PBInstance):
    """Rule X (equal shares) from its definition, with no breakpoint walk:
    every voter starts with budget / n; each round buys the project with
    the smallest rho from ``_oracle_rho`` (ties to the smaller id), and
    each supporter pays min(remaining money, u * rho).

    Returns (bundle, rounds), each round (rho, project, payments, tied):
    payments lists the voters who pay a positive amount, in voter order,
    and tied the other projects affordable at the same rho."""
    _check_caps(instance)
    share = instance.budget / len(instance.voters)
    remaining = {v: share for v in instance.voters}
    selected = []
    rounds = []
    while True:
        offers = []
        for c in instance.projects:
            if c not in selected:
                rho = _oracle_rho(instance, remaining, c)
                if rho is not None:
                    offers.append((rho, c))
        if not offers:
            break
        offers.sort()
        rho, c = offers[0]
        tied = tuple(d for r, d in offers[1:] if r == rho)
        payments = {}
        for v in instance.voters:
            pay = min(remaining[v], instance.utilities[v][c] * rho)
            if pay > 0:
                payments[v] = pay
                remaining[v] -= pay
        rounds.append((rho, c, payments, tied))
        selected.append(c)
    return frozenset(selected), rounds


@dataclass(frozen=True)
class GeneratorSpec:
    """Replayable random-instance parameters."""

    min_voters: int = 1
    max_voters: int = 5
    min_projects: int = 1
    max_projects: int = 4
    approval: bool = True
    approval_density: float = 0.55
    utility_denominator: int = 4
    cost_denominator: int = 4
    max_cost_numerator: int = 4
    budget_numerator_range: tuple = (1, 6)
    budget_denominator: int = 2


def random_instance(spec: GeneratorSpec, rng: random.Random) -> PBInstance:
    n = rng.randint(spec.min_voters, spec.max_voters)
    m = rng.randint(spec.min_projects, spec.max_projects)
    voters = [f"v{i + 1}" for i in range(n)]
    projects = [f"c{j + 1}" for j in range(m)]
    cost = {
        c: Fraction(rng.randint(1, spec.max_cost_numerator), spec.cost_denominator)
        for c in projects
    }
    utilities = {}
    for v in voters:
        row = {}
        for c in projects:
            if spec.approval:
                row[c] = Fraction(1 if rng.random() < spec.approval_density else 0)
            else:
                row[c] = Fraction(
                    rng.randint(0, spec.utility_denominator), spec.utility_denominator
                )
        utilities[v] = row
    budget = Fraction(
        rng.randint(*spec.budget_numerator_range), spec.budget_denominator
    )
    return PBInstance.build(voters, projects, cost, utilities, budget)


def random_bundle(instance: PBInstance, rng: random.Random) -> frozenset:
    affordable = list(enumerate_affordable(instance))
    return rng.choice(affordable)


@dataclass
class Counterexample:
    trial: int
    instance: PBInstance
    bundle: frozenset


def search_counterexample(
    generator: GeneratorSpec,
    assume: str,
    conclude: str,
    trials: int,
    seed: int,
) -> Optional[Counterexample]:
    """First sampled (instance, bundle) where ``assume`` holds but
    ``conclude`` fails; None after the trial budget.  Deterministic in the
    seed; trials are indexed so a parallel driver can preserve the
    first-witness contract."""
    from .registry import MAIN_CHECKERS

    if assume not in MAIN_CHECKERS or conclude not in MAIN_CHECKERS:
        raise ValueError(f"unknown axiom id in hypothesis: {assume!r} => {conclude!r}")
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        instance = random_instance(generator, rng)
        bundle = random_bundle(instance, rng)
        try:
            if not MAIN_CHECKERS[assume](instance, bundle).satisfied:
                continue
            if MAIN_CHECKERS[conclude](instance, bundle).satisfied:
                continue
        except PreconditionError:
            continue  # e.g. an MWV-only axiom on a non-MWV draw
        return Counterexample(trial, instance, bundle)
    return None
