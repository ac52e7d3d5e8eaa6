"""The three budgeting rules, with execution traces and exact arithmetic.

All rules are resolute here: ties (equal purchase times, equal price-per-
utility, equal scores) are broken by the canonical lexicographic order on
project ids / member sets.  Traces optionally record the tied alternatives
at each step for diagnostics.

The rules run once per ballot type, not once per voter: voters whose
nonzero utility rows are identical pay the same in every round of every
rule (by induction on the rounds), so a type's sums are its size times
one voter's.  Traces still list every voter's payment, in voter order.
Each round of Phragmén and Rule X also re-prices only the projects that
can still be bought or tied; ``_next_purchase`` says why that is exact.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, chain, combinations

from . import config
from .model import (
    CertificateError,
    EnumerationCapError,
    InputError,
    PBInstance,
    PreconditionError,
    _distinct,
    _scaled,
    check_bundle,
)

STOP_BUDGET = "budget-exhausted"
STOP_NO_PROJECT = "no-affordable-project"


class NotApprovalError(PreconditionError):
    """Rule requires an approval instance (all utilities 0/1)."""


def _ballot_types(instance):
    """The instance's ballot types (``PBInstance.ballot_types``); no rule
    is defined without voters, which raises InputError."""
    if not instance.voters:
        raise InputError("no voters")
    return instance.ballot_types


def _per_voter(members, amounts):
    """Spread per-type amounts {type: amount} over the types' voters
    (the table's ``members``), in voter order; only the paying types'
    voters are read."""
    payers = sorted(chain.from_iterable(map(members.__getitem__, amounts)))
    return {v: amounts[k] for _, v, k in payers}


def _supporters(instance, rows):
    """Project -> indices of the ballot types with a nonzero utility for it."""
    return {c: [k for k, row in enumerate(rows) if c in row] for c in instance.projects}


def _require_approval(instance):
    if not instance.is_approval:
        raise NotApprovalError(
            "this rule is only defined on approval instances; binarize first"
        )


def _next_purchase(bounds, price):
    """One round's purchase for Phragmén and Rule X: (value, project,
    tied) with the least price(c) over the remaining projects, the least id
    at that value and the other ids at it, in order; None if none has one.

    ``bounds`` is a heap of (bound, project) over the remaining projects.
    A bound is zero or the project's last price, so it is at most its price
    now: neither rule's prices ever fall from one round to the next.
    Projects are priced in (bound, id) order until the next bound is
    strictly above the least price found.  So every unpriced project costs
    strictly more than the minimum, and every project tied at it is priced.
    A project priced None is dropped for good (a None price stays None);
    the others go back on the heap with their price as their bound.
    """
    priced = []
    while bounds and (not priced or bounds[0][0] <= priced[0][0]):
        c = heappop(bounds)[1]
        value = price(c)
        if value is not None:
            heappush(priced, (value, c))
    if not priced:
        return None
    value, c = heappop(priced)
    tied = tuple(sorted(cc for vv, cc in priced if vv == value))
    for entry in priced:
        heappush(bounds, entry)
    return value, c, tied


@dataclass(frozen=True)
class PhragmenEvent:
    time: Fraction
    project: str
    payments: dict  # voter id -> Fraction, summing to cost(project)
    tied_with: tuple = ()


@dataclass
class PhragmenTrace:
    events: list = field(default_factory=list)
    stop_time: Fraction = Fraction(0)
    stop_reason: str = STOP_NO_PROJECT


def phragmen(instance: PBInstance, collect_ties=False):
    """Continuous-currency sequential purchase, simulated event by event.

    Balances grow at rate one per voter; the project whose supporters first
    hold its full cost is bought (supporters reset to zero).  The run stops
    entirely at the first selection that would exceed the overall budget.
    Each ballot type's last reset is kept as an index into the list of
    reset times (zero, then each purchase time), so that a project's
    supporters sum their resets as a count of voters per reset time.

    A project's purchase time (cost + its supporters' resets) / supporters
    never falls, because resets only move forward, so each round re-prices
    only the projects that can still be bought or tied (``_next_purchase``).
    """
    rows, sizes, _, members = _ballot_types(instance)
    _require_approval(instance)
    reset_times = [Fraction(0)]
    last_reset = [0] * len(rows)  # index into reset_times, per type
    supporters = _supporters(instance, rows)
    counts = {c: sum(sizes[k] for k in sup) for c, sup in supporters.items()}

    def purchase_time(c):
        voters_at = [0] * len(reset_times)
        for k in supporters[c]:
            voters_at[last_reset[k]] += sizes[k]
        resets = sum(n * r for n, r in zip(voters_at, reset_times) if n)
        return (instance.cost[c] + resets) / counts[c]

    bounds = [(0, c) for c in instance.projects if supporters[c]]
    heapify(bounds)
    selected = []
    spent = Fraction(0)
    trace = PhragmenTrace()
    now = Fraction(0)
    while True:
        found = _next_purchase(bounds, purchase_time)
        if found is None:
            trace.stop_time = now
            trace.stop_reason = STOP_NO_PROJECT
            break
        t, c, tied = found
        if spent + instance.cost[c] > instance.budget:
            trace.stop_time = t
            trace.stop_reason = STOP_BUDGET
            break
        due = [t - r for r in reset_times]
        payments = _per_voter(members, {k: due[last_reset[k]] for k in supporters[c]})
        trace.events.append(
            PhragmenEvent(t, c, payments, tied if collect_ties else ())
        )
        reset_times.append(t)
        for k in supporters[c]:
            last_reset[k] = len(reset_times) - 1
        selected.append(c)
        spent += instance.cost[c]
        now = t
    return frozenset(selected), trace


def harmonic(j: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, j + 1)), Fraction(0))


def _pav_scorer(instance):
    """Check approval once and return (score, unit): score(bundle) is the
    PAV score of a bundle of projects times unit, an integer summed per
    ballot type as size * H(hits), with H scaled by unit = lcm(1..m)."""
    rows, sizes, _, _ = _ballot_types(instance)
    _require_approval(instance)
    m = len(instance.projects)
    unit = math.lcm(*range(1, m + 1))
    scaled_h = list(accumulate((unit // i for i in range(1, m + 1)), initial=0))
    ballots = [(frozenset(row), size) for row, size in zip(rows, sizes)]

    def score(bundle):
        return sum(size * scaled_h[len(ballot & bundle)] for ballot, size in ballots)

    return score, unit


def pav_score(instance: PBInstance, bundle) -> Fraction:
    score, unit = _pav_scorer(instance)
    return Fraction(score(check_bundle(instance, bundle)), unit)


def pav(instance: PBInstance, collect_ties=False):
    """Exhaustive maximisation of the harmonic score over affordable bundles.

    Among score maximizers, the lexicographically smallest sorted member
    tuple wins.  Guarded by a hard project-count cap.
    """
    score, unit = _pav_scorer(instance)
    cap = config.PAV_MAX_PROJECTS
    if len(instance.projects) > cap:
        raise EnumerationCapError(
            f"{len(instance.projects)} projects exceeds PAV cap {cap}"
        )
    projects = instance.projects
    (*costs, budget), _ = _scaled([*map(instance.cost.get, projects), instance.budget])
    cost = dict(zip(projects, costs))
    best_score = None
    maximizers = []
    for r in range(len(projects) + 1):
        for combo in combinations(projects, r):
            if sum(cost[c] for c in combo) > budget:
                continue
            value = score(frozenset(combo))
            if best_score is None or value > best_score:
                best_score = value
                maximizers = [tuple(sorted(combo))]
            elif value == best_score:
                maximizers.append(tuple(sorted(combo)))
    winner = frozenset(min(maximizers))
    best_score = Fraction(best_score, unit)
    if collect_ties:
        return winner, best_score, sorted(maximizers)
    return winner, best_score


def min_rho(instance: PBInstance, paid_so_far, project):
    """Minimal rho >= 0 with sum_i min(share - paid_i, u_i(c) * rho) = cost(c),
    or None when no rho makes the project affordable.

    ``paid_so_far`` maps voters to what they already spent out of their
    equal share budget/n.  Solved exactly by the breakpoint walk of
    ``_walk_rho``, with every voter weighted one.
    """
    share = instance.budget / len(instance.voters)
    contributors = []  # (remaining, utility, weight)
    for v in instance.voters:
        u = instance.utilities[v][project]
        if u == 0:
            continue
        rem = share - paid_so_far.get(v, Fraction(0))
        if rem < 0:
            raise ValueError(f"voter {v} overspent its share")
        contributors.append((rem, u, 1))
    return _walk_rho(project, instance.cost[project], contributors)


def _walk_rho(project, cost, contributors):
    """Minimal rho >= 0 with sum_k w_k * min(rem_k, u_k * rho) = cost, or
    None when the contributors' remaining money falls short of the cost.

    ``contributors`` holds (rem, u, w): w voters, each with remaining money
    rem >= 0 and utility u > 0; entries with equal (rem, u) are merged
    first, keyed by their numerators and denominators, so no Fraction is
    hashed.  Walks the sorted breakpoints rem / u of the piecewise-linear
    payment total; at a breakpoint the total is the same before and after
    the voters there are capped, so voters alike may be capped together.

    The walk runs in integers: money (the cost and each rem) over one
    denominator, utilities over another.  With money a and utility b so
    scaled, the breakpoint is a / b times their ratio, and a / b ranks as
    a * (L // b) for L the lcm of the b's.  Only the answer is a Fraction.
    """
    alike = {}  # (rem, u) as integers -> total weight
    for rem, u, w in contributors:
        key = rem.numerator, rem.denominator, u.numerator, u.denominator
        alike[key] = alike.get(key, 0) + w
    money = math.lcm(cost.denominator, *(key[1] for key in alike))
    unit = math.lcm(*(key[3] for key in alike))
    due = cost.numerator * (money // cost.denominator)
    scaled = [
        (rn * (money // rd), un * (unit // ud), w)
        for (rn, rd, un, ud), w in alike.items()
    ]
    if sum(w * a for a, _, w in scaled) < due:
        return None
    rank = math.lcm(*(b for _, b, _ in scaled))
    breakpoints = sorted((a * (rank // b), a, b, w) for a, b, w in scaled)
    capped = 0  # money paid by voters already at their cap
    slope = sum(w * b for _, b, w in scaled)
    for _, a, b, w in breakpoints:
        # Below this breakpoint the payment total is capped + slope * rho,
        # which reaches the cost by rho = a / b iff this holds:
        if capped * b + slope * a >= due * b:
            return Fraction((due - capped) * unit, slope * money)
        capped += w * a
        slope -= w * b
    # Total equals cost exactly at the last breakpoint, a / b.
    if capped != due:
        raise CertificateError(
            f"breakpoint walk for {project} ends at {Fraction(capped, money)}"
        )
    return Fraction(a * unit, b * money) if breakpoints else Fraction(0)


@dataclass(frozen=True)
class RuleXRound:
    rho: Fraction
    project: str
    payments: dict  # voter id -> Fraction
    tied_with: tuple = ()


@dataclass
class RuleXTrace:
    rounds: list = field(default_factory=list)


def rule_x(instance: PBInstance, collect_ties=False):
    """Equal-shares purchase: repeatedly buy the project affordable at the
    smallest price-per-utility rho, charging min(remaining share, u * rho).
    What each voter has left of its share is kept per ballot type.

    A project's rho never falls from one round to the next: a purchase
    only lowers remaining money, so sum_k w_k * min(rem_k, u_k * rho)
    falls pointwise and the least rho at which it reaches the cost can
    only rise.  Money that falls short of the cost (rho None) stays
    short, so such a project is dropped for good.  Each round therefore
    re-prices only the projects that can still be bought or tied
    (``_next_purchase``).
    """
    rows, sizes, _, members = _ballot_types(instance)
    share = instance.budget / len(instance.voters)
    left = [share] * len(rows)
    supporters = _supporters(instance, rows)

    def price(c):
        contributors = [(left[k], rows[k][c], sizes[k]) for k in supporters[c]]
        return _walk_rho(c, instance.cost[c], contributors)

    bounds = [(0, c) for c in instance.projects]
    heapify(bounds)
    selected = []
    trace = RuleXTrace()
    while True:
        found = _next_purchase(bounds, price)
        if found is None:
            break
        rho, c, tied = found
        charged = {}
        for k in supporters[c]:
            p = min(left[k], rows[k][c] * rho)
            if p > 0:
                charged[k] = p
                left[k] -= p
        payments = _per_voter(members, charged)
        if _payment_total(payments) != instance.cost[c]:
            raise CertificateError(f"rule X payments for {c} do not sum to its cost")
        trace.rounds.append(RuleXRound(rho, c, payments, tied if collect_ties else ()))
        selected.append(c)
    return frozenset(selected), trace


def _payment_total(payments):
    """The sum of every voter's entry in a payment dict, as one product per
    distinct payment object: the voters of a ballot type share one."""
    counts = Counter(map(id, payments.values()))
    distinct = _distinct(payments.values())
    den = math.lcm(*(p.denominator for p in distinct))
    total = sum(
        n * p.numerator * (den // p.denominator)
        for n, p in zip(counts.values(), distinct)
    )
    return Fraction(total, den)
