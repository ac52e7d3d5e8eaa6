"""The three budgeting rules, with execution traces and exact arithmetic.

All rules are resolute here: ties (equal purchase times, equal price-per-
utility, equal scores) are broken by the canonical lexicographic order on
project ids / member sets.  Traces optionally record the tied alternatives
at each step for diagnostics.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .model import CertificateError, EnumerationCapError, PBInstance, check_bundle

PAV_MAX_PROJECTS = int(os.environ.get("PBPROP_PAV_MAX_PROJECTS", "20"))

STOP_BUDGET = "budget-exhausted"
STOP_NO_PROJECT = "no-affordable-project"


class NotApprovalError(Exception):
    """Rule requires an approval instance (all utilities 0/1)."""


def _require_approval(instance):
    if not instance.is_approval:
        raise NotApprovalError(
            "this rule is only defined on approval instances; binarize first"
        )


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
    """
    _require_approval(instance)
    last_reset = {v: Fraction(0) for v in instance.voters}
    supporters = {
        c: [v for v in instance.voters if instance.utilities[v][c] == 1]
        for c in instance.projects
    }
    selected = []
    spent = Fraction(0)
    trace = PhragmenTrace()
    now = Fraction(0)
    remaining = [c for c in instance.projects]
    while True:
        times = []
        for c in remaining:
            sup = supporters[c]
            if not sup:
                continue
            t = (instance.cost[c] + sum(last_reset[v] for v in sup)) / len(sup)
            times.append((t, c))
        if not times:
            trace.stop_time = now
            trace.stop_reason = STOP_NO_PROJECT
            break
        t, c = min(times)
        tied = tuple(cc for tt, cc in sorted(times) if tt == t and cc != c)
        if spent + instance.cost[c] > instance.budget:
            trace.stop_time = t
            trace.stop_reason = STOP_BUDGET
            break
        payments = {v: t - last_reset[v] for v in supporters[c]}
        trace.events.append(
            PhragmenEvent(t, c, payments, tied if collect_ties else ())
        )
        for v in supporters[c]:
            last_reset[v] = t
        selected.append(c)
        remaining.remove(c)
        spent += instance.cost[c]
        now = t
    return frozenset(selected), trace


def harmonic(j: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, j + 1)), Fraction(0))


def pav_score(instance: PBInstance, bundle) -> Fraction:
    _require_approval(instance)
    bundle = check_bundle(instance, bundle)
    score = Fraction(0)
    for v in instance.voters:
        hits = sum(1 for c in bundle if instance.utilities[v][c] == 1)
        score += harmonic(hits)
    return score


def pav(instance: PBInstance, collect_ties=False):
    """Exhaustive maximisation of the harmonic score over affordable bundles.

    Among score maximizers, the lexicographically smallest sorted member
    tuple wins.  Guarded by a hard project-count cap.
    """
    _require_approval(instance)
    if len(instance.projects) > PAV_MAX_PROJECTS:
        raise EnumerationCapError(
            f"{len(instance.projects)} projects exceeds PAV cap {PAV_MAX_PROJECTS}"
        )
    best_score = None
    maximizers = []
    for r in range(len(instance.projects) + 1):
        for combo in combinations(instance.projects, r):
            if instance.cost_of(combo) > instance.budget:
                continue
            score = pav_score(instance, frozenset(combo))
            if best_score is None or score > best_score:
                best_score = score
                maximizers = [tuple(sorted(combo))]
            elif score == best_score:
                maximizers.append(tuple(sorted(combo)))
    winner = frozenset(min(maximizers))
    if collect_ties:
        return winner, best_score, sorted(maximizers)
    return winner, best_score


def min_rho(instance: PBInstance, paid_so_far, project):
    """Minimal rho >= 0 with sum_i min(share - paid_i, u_i(c) * rho) = cost(c),
    or None when no rho makes the project affordable.

    ``paid_so_far`` maps voters to what they already spent out of their
    equal share budget/n.  Solved exactly by walking the sorted breakpoints
    (share - paid_i) / u_i(c) of the piecewise-linear payment function.
    """
    share = instance.budget / len(instance.voters)
    cost = instance.cost[project]
    contributors = []  # (breakpoint, remaining, utility)
    for v in instance.voters:
        u = instance.utilities[v][project]
        if u == 0:
            continue
        rem = share - paid_so_far.get(v, Fraction(0))
        if rem < 0:
            raise ValueError(f"voter {v} overspent its share")
        contributors.append((rem / u, rem, u))
    if sum((rem for _, rem, _ in contributors), Fraction(0)) < cost:
        return None
    contributors.sort()
    capped = Fraction(0)  # paid by voters already at their cap
    slope = sum((u for _, _, u in contributors), Fraction(0))
    prev = Fraction(0)
    for bp, rem, u in contributors:
        # On [prev, bp) the payment total is capped + slope * rho.
        if capped + slope * bp >= cost:
            return (cost - capped) / slope
        capped += rem
        slope -= u
        prev = bp
    # Total equals cost exactly at the last breakpoint.
    if capped != cost:
        raise CertificateError(f"breakpoint walk for {project} ends at {capped}")
    return prev


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
    """
    n = len(instance.voters)
    share = instance.budget / n
    paid = {v: Fraction(0) for v in instance.voters}
    selected = []
    remaining = list(instance.projects)
    trace = RuleXTrace()
    while remaining:
        candidates = []
        for c in remaining:
            rho = min_rho(instance, paid, c)
            if rho is not None:
                candidates.append((rho, c))
        if not candidates:
            break
        rho, c = min(candidates)
        tied = tuple(cc for rr, cc in sorted(candidates) if rr == rho and cc != c)
        payments = {}
        for v in instance.voters:
            u = instance.utilities[v][c]
            if u == 0:
                continue
            p = min(share - paid[v], u * rho)
            if p > 0:
                payments[v] = p
                paid[v] += p
        if sum(payments.values(), Fraction(0)) != instance.cost[c]:
            raise CertificateError(f"rule X payments for {c} do not sum to its cost")
        trace.rounds.append(
            RuleXRound(rho, c, payments, tied if collect_ties else ())
        )
        selected.append(c)
        remaining.remove(c)
    return frozenset(selected), trace
