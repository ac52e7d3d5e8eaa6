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
from itertools import accumulate
from operator import getitem

from . import config
from .axioms import DEAD, _group_search, _mask_members
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


def _per_voter(type_of, amounts):
    """Spread per-type amounts {type: amount} over the types' voters, in
    voter order (the order of ``type_of``)."""
    return {v: amounts[k] for v, k in type_of.items() if k in amounts}


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
    rows, sizes, type_of = _ballot_types(instance)
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
        payments = _per_voter(type_of, {k: due[last_reset[k]] for k in supporters[c]})
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
    """Check approval once and return (score, unit, bits): score(mask) is the
    PAV score of a mask of projects (bits[c] for project c) times unit, an
    integer summed per ballot type as size * H(hits), H scaled by lcm(1..m)."""
    rows, sizes, _ = _ballot_types(instance)
    _require_approval(instance)
    m = len(instance.projects)
    unit = math.lcm(*range(1, m + 1))
    scaled_h = list(accumulate((unit // i for i in range(1, m + 1)), initial=0))
    bits = {c: 1 << k for k, c in enumerate(instance.projects)}
    ballots = [sum(map(bits.get, row)) for row in rows]
    weights = [[size * h for h in scaled_h] for size in sizes]

    def score(mask):
        hits = map(int.bit_count, map(mask.__and__, ballots))
        return sum(map(getitem, weights, hits))

    return score, unit, bits


def pav_score(instance: PBInstance, bundle) -> Fraction:
    score, unit, bits = _pav_scorer(instance)
    return Fraction(score(sum(map(bits.get, check_bundle(instance, bundle)))), unit)


def pav(instance: PBInstance, collect_ties=False):
    """Exhaustive maximisation of the harmonic score over affordable bundles,
    on ``axioms._group_search``: a bundle over the budget is ``DEAD``, since
    every superset costs more.

    Among score maximizers, the lexicographically smallest sorted member
    tuple wins.  Guarded by a hard project-count cap.
    """
    score, unit, _ = _pav_scorer(instance)
    cap = config.PAV_MAX_PROJECTS
    if len(instance.projects) > cap:
        raise EnumerationCapError(
            f"{len(instance.projects)} projects exceeds PAV cap {cap}"
        )
    projects = instance.projects
    (*costs, budget), _ = _scaled([*map(instance.cost.get, projects), instance.budget])
    best = [0, []]  # the best score and its bundles' member tuples

    def found(mask, _, cost):
        if cost > budget:
            return DEAD
        value = score(mask)
        if value > best[0]:
            best[:] = value, []
        if value == best[0]:
            best[1].append(tuple(_mask_members(mask, projects)))

    found(0, 0, 0)  # the empty bundle, which the walk does not visit
    _group_search((1 << len(projects)) - 1, lambda s, i: (s or 0) + costs[i], found)
    winner = frozenset(min(best[1]))
    best_score = Fraction(best[0], unit)
    if collect_ties:
        return winner, best_score, sorted(best[1])
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
    money = math.lcm(*(rem.denominator for rem, _, _ in contributors))
    contributors = [
        (rem.numerator * (money // rem.denominator), u, w) for rem, u, w in contributors
    ]
    return _walk_rho(project, instance.cost[project], contributors, money)


def _walk_rho(project, cost, contributors, money):
    """Minimal rho >= 0 with sum_k w_k * min(rem_k, u_k * rho) = cost, or
    None when the contributors' remaining money falls short of the cost.

    ``contributors`` holds (rem, u, w): w voters, each with remaining money
    rem / money >= 0 (rem an int, money a positive int) and utility u > 0;
    entries with equal (rem, u) are merged first, keyed by integers, so no
    Fraction is hashed.  Walks the sorted breakpoints rem / u of the
    piecewise-linear payment total; at a breakpoint the total is the same
    before and after the voters there are capped, so voters alike may be
    capped together.

    The walk runs in integers: money (the cost and each rem) over one
    denominator, utilities over another.  With money a and utility b so
    scaled, the breakpoint is a / b times their ratio, and a / b ranks as
    a * (L // b) for L the lcm of the b's.  Only the answer is a Fraction.
    """
    alike = {}  # (rem, u) as integers -> total weight
    for rem, u, w in contributors:
        key = rem, u.numerator, u.denominator
        alike[key] = alike.get(key, 0) + w
    grow = cost.denominator // math.gcd(money, cost.denominator)
    money *= grow
    unit = math.lcm(*(key[2] for key in alike))
    due = cost.numerator * (money // cost.denominator)
    scaled = [
        (rem * grow, un * (unit // ud), w)
        for (rem, un, ud), w in alike.items()
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
    What each voter has left of its share is kept per ballot type, as an
    integer over one money denominator for all types.

    A project's rho never falls from one round to the next: a purchase
    only lowers remaining money, so sum_k w_k * min(rem_k, u_k * rho)
    falls pointwise and the least rho at which it reaches the cost can
    only rise.  Money that falls short of the cost (rho None) stays
    short, so such a project is dropped for good.  Each round therefore
    re-prices only the projects that can still be bought or tied
    (``_next_purchase``).
    """
    rows, sizes, type_of = _ballot_types(instance)
    share = instance.budget / len(instance.voters)
    money = share.denominator
    left = [share.numerator] * len(rows)
    unit = math.lcm(*(u.denominator for row in rows for u in row.values()))
    supporters = _supporters(instance, rows)

    def price(c):
        contributors = [(left[k], rows[k][c], sizes[k]) for k in supporters[c]]
        return _walk_rho(c, instance.cost[c], contributors, money)

    bounds = [(0, c) for c in instance.projects]
    heapify(bounds)
    selected = []
    trace = RuleXTrace()
    while True:
        found = _next_purchase(bounds, price)
        if found is None:
            break
        rho, c, tied = found
        # Every charge u * rho is a whole number over money once money is a
        # multiple of rho's denominator times every utility's.
        grow = math.lcm(money, rho.denominator * unit) // money
        if grow != 1:
            money *= grow
            left = [a * grow for a in left]
        per_rho = money // rho.denominator
        charged = {}
        paid = {}  # charge -> its Fraction, built once
        for k in supporters[c]:
            u = rows[k][c]
            p = min(left[k], u.numerator * rho.numerator * (per_rho // u.denominator))
            if p > 0:
                if p not in paid:
                    paid[p] = Fraction(p, money)
                charged[k] = paid[p]
                left[k] -= p
        payments = _per_voter(type_of, charged)
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
