"""Decision procedures, with machine-checkable witnesses, for the
non-laminar proportionality axioms: core, EJR(-up-to-one),
PJR(-up-to-one), the committee-style PJR variant, budget-limit PJR,
and priceability (via exact linear feasibility).

Subset searches enumerate voter and project subsets as bitmasks in
increasing mask order over the canonical (sorted) id order, so the first
witness found is reproducible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linsolve
from .model import (
    CertificateError,
    EnumerationCapError,
    PBInstance,
    ValidationReport,
    check_bundle,
)

ENUM_MAX_BITS = int(os.environ.get("PBPROP_ENUM_MAX_BITS", "16"))

SATISFIED = "satisfied"
VIOLATED = "violated"


def _check_caps(instance, voters=True, projects=True):
    if voters and len(instance.voters) > ENUM_MAX_BITS:
        raise EnumerationCapError(
            f"{len(instance.voters)} voters exceeds subset-search cap {ENUM_MAX_BITS}"
        )
    if projects and len(instance.projects) > ENUM_MAX_BITS:
        raise EnumerationCapError(
            f"{len(instance.projects)} projects exceeds subset-search cap {ENUM_MAX_BITS}"
        )


def _mask_members(mask, ids):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(ids[i])
        mask >>= 1
        i += 1
    return out


@dataclass(frozen=True)
class CohesivenessWitness:
    group: frozenset  # voter ids (S)
    target: frozenset  # project ids (T)
    alpha: dict  # project id -> Fraction, defined on target

    def sum_alpha(self) -> Fraction:
        return sum((self.alpha[c] for c in self.target), Fraction(0))


@dataclass(frozen=True)
class CoreWitness:
    group: frozenset
    target: frozenset


@dataclass(frozen=True)
class CommitteeWitness:
    group: frozenset
    level: Fraction  # the cohesiveness level the group is owed


@dataclass(frozen=True)
class PriceSystem:
    initial_budget: Fraction
    payments: dict  # voter id -> {project id -> Fraction}

    def paid(self, voter, project) -> Fraction:
        return self.payments.get(voter, {}).get(project, Fraction(0))

    def total_paid(self, voter) -> Fraction:
        return sum(self.payments.get(voter, {}).values(), Fraction(0))


@dataclass
class AxiomVerdict:
    status: str  # SATISFIED or VIOLATED
    witness: object = None  # present iff violated
    certificate: Optional[PriceSystem] = None  # priceability only
    mode: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.status == SATISFIED


def validate_cohesiveness_witness(instance, witness) -> bool:
    n = len(instance.voters)
    if not witness.group or not witness.group <= set(instance.voters):
        return False
    if not witness.target <= set(instance.projects):
        return False
    if len(witness.group) * instance.budget < instance.cost_of(witness.target) * n:
        return False
    for c in witness.target:
        a = witness.alpha[c]
        if not 0 <= a <= 1:
            return False
        if any(instance.utilities[v][c] < a for v in witness.group):
            return False
    return True


def validate_core_witness(instance, bundle, witness) -> bool:
    n = len(instance.voters)
    if not witness.group:
        return False
    if len(witness.group) * instance.budget < instance.cost_of(witness.target) * n:
        return False
    return all(
        instance.voter_utility(v, witness.target) > instance.voter_utility(v, bundle)
        for v in witness.group
    )


def _cost_by_mask(instance):
    m = len(instance.projects)
    costs = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        costs[mask] = costs[mask ^ low] + instance.cost[
            instance.projects[low.bit_length() - 1]
        ]
    return costs


def _scaled(values):
    """Integers over the values' least common denominator, and that
    denominator."""
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def core_deviations(instance, bundle):
    """Yield (group, target) for every nonempty target T, in increasing
    mask order over the project ids, whose strict preferrers (the group,
    nonempty) can afford T with their share of the budget.

    Costs and utilities are integers, over one denominator for costs and
    one per voter, summed per mask from the mask without its lowest bit;
    the tables grow only as far as the caller iterates."""
    projects = instance.projects
    voters = instance.voters
    n = len(voters)
    cost_int, cost_den = _scaled([instance.cost[c] for c in projects])
    gains = [[] for _ in projects]  # gains[i][k]: voter k's utility for project i
    bundle_utility = []
    for v in voters:
        ints, _ = _scaled([instance.utilities[v][c] for c in projects])
        for gain, x in zip(gains, ints):
            gain.append(x)
        bundle_utility.append(sum(x for x, c in zip(ints, projects) if c in bundle))
    # len(better) * budget >= cost(T) * n, with cost(T) = cost_sum / cost_den.
    share = instance.budget.numerator * cost_den
    scale = instance.budget.denominator * n
    costs = [0]
    utilities = [[0] * n]
    for mask in range(1, 1 << len(projects)):
        low = mask & -mask
        i = low.bit_length() - 1
        cost = costs[mask ^ low] + cost_int[i]
        row = [a + b for a, b in zip(utilities[mask ^ low], gains[i])]
        costs.append(cost)
        utilities.append(row)
        better = [v for v, a, w in zip(voters, row, bundle_utility) if a > w]
        if better and len(better) * share >= cost * scale:
            yield frozenset(better), frozenset(_mask_members(mask, projects))


def check_core(instance: PBInstance, bundle) -> AxiomVerdict:
    """A bundle is blocked by (S, T) when S can afford T with its share of
    the budget and every member strictly prefers T.  For each T the maximal
    candidate S is exactly the set of strict preferrers, so T alone is
    enumerated."""
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    for group, target in core_deviations(instance, bundle):
        witness = CoreWitness(group, target)
        if not validate_core_witness(instance, bundle, witness):
            raise CertificateError(f"core witness fails: {witness}")
        return AxiomVerdict(VIOLATED, witness)
    return AxiomVerdict(SATISFIED)


def _cohesive_search(instance, bundle, violated_for_group):
    """Shared (S, T) enumeration for EJR/PJR-style axioms.

    For each group S and target T affordable by S, the pointwise-maximal
    feasible threshold function is alpha*(c) = min over S of u_i(c); any
    feasible alpha that violates makes alpha* violate too, so only alpha*
    is tested.  ``violated_for_group(members, sum_alpha)`` decides the
    axiom-specific comparison.
    """
    n = len(instance.voters)
    m = len(instance.projects)
    costs = _cost_by_mask(instance)
    for smask in range(1, 1 << n):
        members = _mask_members(smask, instance.voters)
        cap = len(members) * instance.budget / n
        minu = [
            min(instance.utilities[v][c] for v in members) for c in instance.projects
        ]
        test = violated_for_group(members)
        for tmask in range(1, 1 << m):
            if costs[tmask] > cap:
                continue
            sum_alpha = Fraction(0)
            mask = tmask
            while mask:
                low = mask & -mask
                sum_alpha += minu[low.bit_length() - 1]
                mask ^= low
            if test(sum_alpha):
                target = frozenset(_mask_members(tmask, instance.projects))
                alpha = {c: minu[instance.projects.index(c)] for c in target}
                witness = CohesivenessWitness(frozenset(members), target, alpha)
                if not validate_cohesiveness_witness(instance, witness):
                    raise CertificateError(f"cohesiveness witness fails: {witness}")
                return witness
    return None


def check_ejr(instance: PBInstance, bundle, up_to_one=False) -> AxiomVerdict:
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    uW = {v: instance.voter_utility(v, bundle) for v in instance.voters}
    outside = [c for c in instance.projects if c not in bundle]
    best_add = {
        v: max((instance.utilities[v][a] for a in outside), default=Fraction(0))
        for v in instance.voters
    }

    def for_group(members):
        mx_base = max(uW[v] for v in members)
        mx_add = max(uW[v] + best_add[v] for v in members)

        def test(sum_alpha):
            if mx_base >= sum_alpha:
                return False
            return not up_to_one or mx_add <= sum_alpha

        return test

    witness = _cohesive_search(instance, bundle, for_group)
    mode = {"up_to_one": up_to_one}
    if witness is None:
        return AxiomVerdict(SATISFIED, mode=mode)
    return AxiomVerdict(VIOLATED, witness, mode=mode)


def check_pjr(instance: PBInstance, bundle, up_to_one=False) -> AxiomVerdict:
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    outside = [c for c in instance.projects if c not in bundle]

    def for_group(members):
        lhs = sum(
            (max(instance.utilities[v][c] for v in members) for c in bundle),
            Fraction(0),
        )
        add = max(
            (max(instance.utilities[v][a] for v in members) for a in outside),
            default=Fraction(0),
        )

        def test(sum_alpha):
            if lhs >= sum_alpha:
                return False
            return not up_to_one or lhs + add <= sum_alpha

        return test

    witness = _cohesive_search(instance, bundle, for_group)
    mode = {"up_to_one": up_to_one}
    if witness is None:
        return AxiomVerdict(SATISFIED, mode=mode)
    return AxiomVerdict(VIOLATED, witness, mode=mode)


def check_mwv_pjr(instance: PBInstance, bundle) -> AxiomVerdict:
    """Committee-style PJR: every group owed ell commonly-approved seats
    must see at least ell of its union-approved projects selected."""
    if not instance.is_mwv:
        raise ValueError("committee-style PJR requires an MWV instance")
    k = instance.committee_size()
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    approvals = {v: instance.approval_set(v) for v in instance.voters}
    for smask in range(1, 1 << n):
        members = _mask_members(smask, instance.voters)
        inter = frozenset.intersection(*(approvals[v] for v in members))
        union = frozenset.union(*(approvals[v] for v in members))
        selected = len(union & bundle)
        for ell in range(1, k + 1):
            if len(members) * k < ell * n:
                break
            if len(inter) >= ell and selected < ell:
                witness = CommitteeWitness(frozenset(members), Fraction(ell))
                return AxiomVerdict(VIOLATED, witness)
    return AxiomVerdict(SATISFIED)


def check_strong_bpjr(instance: PBInstance, bundle) -> AxiomVerdict:
    """Budget-limit PJR: no group may be owed ell worth of commonly
    approved cost while its union-approved selection is worth less.

    For a fixed S the violating levels form the interval
    (cost(union & W), min(l, |S| l / n, cost(intersection))], so the
    interval-nonemptiness test is exact; the witness level is the
    interval's upper end.
    """
    if not instance.is_approval:
        raise ValueError("budget-limit PJR requires an approval instance")
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    l = instance.budget
    approvals = {v: instance.approval_set(v) for v in instance.voters}
    for smask in range(1, 1 << n):
        members = _mask_members(smask, instance.voters)
        inter = frozenset.intersection(*(approvals[v] for v in members))
        union = frozenset.union(*(approvals[v] for v in members))
        bound = min(l, Fraction(len(members)) * l / n, instance.cost_of(inter))
        if instance.cost_of(union & bundle) < bound:
            witness = CommitteeWitness(frozenset(members), bound)
            return AxiomVerdict(VIOLATED, witness)
    return AxiomVerdict(SATISFIED)


def _payment_var(voter, project):
    return f"p[{voter}][{project}]"


def priceability_system(instance: PBInstance, bundle, b_min_one=False):
    """Encode 'there is a price system supporting W' as a linear system.

    Variables: the initial budget b and one payment per (voter, selected
    project) pair with positive utility; payments for other pairs are
    identically zero and omitted.
    """
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    system = linsolve.LinearSystem()
    system.add_variable("b", nonneg=True)
    payers = {c: [] for c in bundle}
    for v in instance.voters:
        for c in sorted(bundle):
            if instance.utilities[v][c] > 0:
                system.add_variable(_payment_var(v, c), nonneg=True)
                payers[c].append(v)
    if b_min_one:
        system.add({"b": Fraction(1)}, linsolve.GEQ, Fraction(1))
    for v in instance.voters:
        coeffs = {
            _payment_var(v, c): Fraction(1) for c in bundle if instance.utilities[v][c] > 0
        }
        coeffs["b"] = Fraction(-1, n)
        system.add(coeffs, linsolve.LEQ, Fraction(0))
    for c in sorted(bundle):
        coeffs = {_payment_var(v, c): Fraction(1) for v in payers[c]}
        system.add(coeffs, linsolve.EQ, instance.cost[c])
    for c in instance.projects:
        if c in bundle:
            continue
        supporters = instance.approvers(c)
        if not supporters:
            continue
        coeffs = {"b": Fraction(len(supporters), n)}
        for v in supporters:
            for cw in bundle:
                if instance.utilities[v][cw] > 0:
                    var = _payment_var(v, cw)
                    coeffs[var] = coeffs.get(var, Fraction(0)) - 1
        system.add(coeffs, linsolve.LEQ, instance.cost[c])
    return system


def check_priceable(instance: PBInstance, bundle, b_min_one=False) -> AxiomVerdict:
    bundle = check_bundle(instance, bundle)
    system = priceability_system(instance, bundle, b_min_one)
    result = linsolve.lp_feasible(system)
    mode = {"b_min": 1 if b_min_one else 0}
    if not result.feasible:
        return AxiomVerdict(
            VIOLATED, witness="no supporting price system exists", mode=mode
        )
    payments = {}
    for v in instance.voters:
        row = {}
        for c in bundle:
            if instance.utilities[v][c] > 0:
                row[c] = result.assignment[_payment_var(v, c)]
        payments[v] = row
    ps = PriceSystem(result.assignment["b"], payments)
    report = validate_price_system(instance, bundle, ps, b_min_one=b_min_one)
    if not report.ok:
        raise CertificateError("; ".join(report.problems))
    return AxiomVerdict(SATISFIED, certificate=ps, mode=mode)


def validate_price_system(
    instance: PBInstance, bundle, ps: PriceSystem, b_min_one=False
) -> ValidationReport:
    """Exhaustive exact check of all price-system conditions for W."""
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    report = ValidationReport()
    if ps.initial_budget < 0:
        report.add(f"negative initial budget {ps.initial_budget}")
    if b_min_one and ps.initial_budget < 1:
        report.add(f"initial budget {ps.initial_budget} below 1 (strict mode)")
    share = ps.initial_budget / n
    for v in instance.voters:
        for c, p in ps.payments.get(v, {}).items():
            if p < 0:
                report.add(f"negative payment p_{v}({c}) = {p}")
            if p > 0 and instance.utilities[v][c] == 0:
                report.add(f"payment for zero-utility project: p_{v}({c}) = {p}")
        if ps.total_paid(v) > share:
            report.add(
                f"voter {v} pays {ps.total_paid(v)} exceeding share {share}"
            )
    for c in instance.projects:
        total = sum((ps.paid(v, c) for v in instance.voters), Fraction(0))
        if c in bundle:
            if total != instance.cost[c]:
                report.add(
                    f"selected project {c} funded {total}, cost {instance.cost[c]}"
                )
        elif total != 0:
            report.add(f"unselected project {c} receives payment {total}")
    for c in instance.projects:
        if c in bundle:
            continue
        supporters = instance.approvers(c)
        slack = sum(
            (
                share - sum((ps.paid(v, cw) for cw in bundle), Fraction(0))
                for v in supporters
            ),
            Fraction(0),
        )
        if slack > instance.cost[c]:
            report.add(
                f"supporters of unselected {c} hold slack {slack} > cost "
                f"{instance.cost[c]}"
            )
    return report


def price_system_from_phragmen(instance: PBInstance, trace) -> PriceSystem:
    """Turn a sequential-purchase trace into a supporting price system:
    everyone's initial budget is the stop time."""
    payments = {v: {} for v in instance.voters}
    for event in trace.events:
        if event.project not in instance.cost:
            raise ValueError(f"trace mentions unknown project {event.project}")
        for v, p in event.payments.items():
            if v not in payments:
                raise ValueError(f"trace mentions unknown voter {v}")
            payments[v][event.project] = p
    return PriceSystem(trace.stop_time * len(instance.voters), payments)
