"""Decision procedures, with machine-checkable witnesses, for the
non-laminar proportionality axioms: core, EJR(-up-to-one),
PJR(-up-to-one), the committee-style PJR variant, budget-limit PJR,
and priceability (via exact linear feasibility).

Subset searches enumerate voter and project subsets as bitmasks in
increasing mask order over the canonical (sorted) id order, so the first
witness found is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import config, linsolve
from .model import (
    CertificateError,
    EnumerationCapError,
    PBInstance,
    PreconditionError,
    ValidationReport,
    _scaled,
    check_bundle,
)

SATISFIED = "satisfied"
VIOLATED = "violated"


def _check_caps(instance):
    for kind, ids in (("voters", instance.voters), ("projects", instance.projects)):
        if len(ids) > config.ENUM_MAX_BITS:
            raise EnumerationCapError(
                f"{len(ids)} {kind} exceeds subset-search cap {config.ENUM_MAX_BITS}"
            )


def _mask_members(mask, ids):
    return [x for k, x in enumerate(ids) if mask >> k & 1]


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


def validate_committee_witness(instance, bundle, witness, axiom) -> bool:
    """Check a committee PJR ("mwvpjr") or budget-limit PJR ("bpjr")
    witness against the definition, in Fractions: the nonempty group S is
    owed the level ell and its union-approved selection falls short of it.
    Owed means ell <= |S| k / n seats with ell common approvals (mwvpjr,
    ell a whole number), or 0 < ell <= |S| l / n with common approvals
    costing at least ell (bpjr)."""
    group, level = witness.group, witness.level
    n = len(instance.voters)
    if not group or not group <= set(instance.voters):
        return False
    approvals = [instance.approval_set(v) for v in group]
    common = frozenset.intersection(*approvals)
    selected = frozenset.union(*approvals) & frozenset(bundle)
    if axiom == "mwvpjr":
        k = instance.committee_size()
        return (
            Fraction(level).denominator == 1
            and len(group) * k >= level * n
            and len(common) >= level > len(selected)
        )
    if axiom == "bpjr":
        return (
            0 < level
            and len(group) * instance.budget >= level * n
            and instance.cost_of(common) >= level > instance.cost_of(selected)
        )
    raise ValueError(f"no committee witness for axiom {axiom!r}")


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
    return core_verdict(instance, check_bundle(instance, bundle))


def core_verdict(instance, bundle, admits=lambda group, target: True):
    """Violated by the first deviation of ``core_deviations`` that
    ``admits`` lets through, with its witness re-checked; else Satisfied."""
    for group, target in core_deviations(instance, bundle):
        if admits(group, target):
            witness = CoreWitness(group, target)
            if not validate_core_witness(instance, bundle, witness):
                raise CertificateError(f"core witness fails: {witness}")
            return AxiomVerdict(VIOLATED, witness)
    return AxiomVerdict(SATISFIED)


def _mask_costs(instance):
    """Affordability in integers: (costs, share, unit) such that a group
    S affords the project mask T iff costs[T] <= |S| * share, and cost(T)
    is Fraction(costs[T], unit)."""
    ints, den = _scaled([instance.cost[c] for c in instance.projects])
    # |S| * budget >= cost(T) * n, both sides times den * budget.denominator.
    scale = instance.budget.denominator * len(instance.voters)
    costs = [0]
    for mask in range(1, 1 << len(ints)):
        low = mask & -mask
        costs.append(costs[mask ^ low] + ints[low.bit_length() - 1] * scale)
    return costs, instance.budget.numerator * den, den * scale


def _group_search(instance, found, extra=None, utilities=True):
    """The one voter-group walk behind EJR, PJR, bpjr and mwvpjr: returns
    (S, hit) for the first nonempty voter mask S, in increasing order,
    with a non-None ``hit = found(|S|, low, high, inter, union)``, else
    None.  ``low`` and ``high`` are the minimum and maximum over S of the
    utility rows as integers over one denominator (``high`` also of the
    per-voter columns ``extra(rows)``), or empty lists when ``utilities``
    is false; ``inter`` and ``union`` combine the members' positive-utility
    project masks, so ``inter`` is the support of ``low``.  S's tables
    extend those of S minus its lowest bit, the last mask of |S| - 1
    members visited, so one table per size is kept."""
    voters, projects, m = instance.voters, instance.projects, len(instance.projects)
    supports = [
        sum(1 << c for c, x in enumerate(projects) if instance.utilities[v][x])
        for v in voters
    ]
    if utilities:
        flat, _ = _scaled([instance.utilities[v][c] for v in voters for c in projects])
        rows = [flat[k * m : (k + 1) * m] for k in range(len(voters))]
        tops = rows if extra is None else [r + x for r, x in zip(rows, extra(rows))]
    else:
        rows = tops = [[]] * len(voters)
    tables = [None] * (len(voters) + 1)
    for smask in range(1, 1 << len(voters)):
        i = (smask & -smask).bit_length() - 1
        size = smask.bit_count()
        # A lone member starts from its own rows; -1 masks every project.
        low, high, inter, union = tables[size - 1] or (rows[i], tops[i], -1, 0)
        table = tables[size] = (
            list(map(min, low, rows[i])),
            list(map(max, high, tops[i])),
            inter & supports[i],
            union | supports[i],
        )
        hit = found(size, *table)
        if hit is not None:
            return smask, hit
    return None


def _cohesive_verdict(instance, bundle, ejr, up_to_one):
    """EJR (``ejr``) or PJR, plain or up to one project.

    Only alpha*(c) = min over S of u_i(c) is tested: it is the pointwise-
    maximal feasible threshold function, so any violating alpha makes it
    violate too.  In integers over the utility denominator, S and a target
    T it affords violate iff sum alpha*(T) >= need: max uW_i + 1 over S for
    EJR, the covered sum + 1 for PJR, where up to one the 1 becomes
    max(1, best single addition).  Only the nonempty submasks T of supp =
    {c : alpha*(c) > 0} are walked, in increasing order, and S is skipped
    when sum alpha*(supp) < need.  The first witness is unchanged: dropping
    the zero-threshold projects from a violating T keeps sum alpha* and does
    not raise the cost, so T & supp violates too and, as a mask, is <= T.
    The first violating T in full mask order is therefore a submask of supp.
    """
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    m = len(instance.projects)
    inside = [c for c in range(m) if instance.projects[c] in bundle]
    outside = [c for c in range(m) if instance.projects[c] not in bundle]

    def need(row):  # a voter's row under EJR, the group's max row under PJR
        add = max((row[c] for c in outside), default=0) if up_to_one else 0
        return sum(row[c] for c in inside) + max(1, add)

    extra = (lambda rows: [[need(r)] for r in rows]) if ejr else None
    group_need = (lambda high: high[m]) if ejr else need
    costs, share, _ = _mask_costs(instance)
    sums = [0] * len(costs)

    def found(size, low, high, supp, union):
        goal = group_need(high)
        if sum(low) < goal:
            return None
        cap = size * share
        t = 0
        while t := (t - supp) & supp:
            bit = t & -t
            s = sums[t] = sums[t ^ bit] + low[bit.bit_length() - 1]
            if s >= goal and costs[t] <= cap:
                return t

    hit = _group_search(instance, found, extra)
    mode = {"up_to_one": up_to_one}
    if hit is None:
        return AxiomVerdict(SATISFIED, mode=mode)
    group = frozenset(_mask_members(hit[0], instance.voters))
    target = frozenset(_mask_members(hit[1], instance.projects))
    alpha = {c: min(instance.utilities[v][c] for v in group) for c in target}
    witness = CohesivenessWitness(group, target, alpha)
    if not validate_cohesiveness_witness(instance, witness):
        raise CertificateError(f"cohesiveness witness fails: {witness}")
    return AxiomVerdict(VIOLATED, witness, mode=mode)


def check_ejr(instance: PBInstance, bundle, up_to_one=False) -> AxiomVerdict:
    return _cohesive_verdict(instance, bundle, True, up_to_one)


def check_pjr(instance: PBInstance, bundle, up_to_one=False) -> AxiomVerdict:
    return _cohesive_verdict(instance, bundle, False, up_to_one)


def _committee_verdict(instance, bundle, axiom, found):
    hit = _group_search(instance, found, utilities=False)
    if hit is None:
        return AxiomVerdict(SATISFIED)
    group = frozenset(_mask_members(hit[0], instance.voters))
    witness = CommitteeWitness(group, hit[1])
    if not validate_committee_witness(instance, bundle, witness, axiom):
        raise CertificateError(f"{axiom} witness fails: {witness}")
    return AxiomVerdict(VIOLATED, witness)


def check_mwv_pjr(instance: PBInstance, bundle) -> AxiomVerdict:
    """Committee-style PJR: every group owed ell commonly-approved seats
    must see at least ell of its union-approved projects selected.  A group
    seeing s of them is denied the levels in (s, min(|inter|, |S| k / n)],
    so it violates iff s + 1, the level reported, lies in that interval."""
    if not instance.is_mwv:
        raise PreconditionError("committee-style PJR requires an MWV instance")
    k = instance.committee_size()
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    chosen = sum(1 << c for c, x in enumerate(instance.projects) if x in bundle)

    def found(size, low, high, inter, union):
        ell = (union & chosen).bit_count() + 1
        if ell * n <= size * k and ell <= inter.bit_count():
            return Fraction(ell)

    return _committee_verdict(instance, bundle, "mwvpjr", found)


def check_strong_bpjr(instance: PBInstance, bundle) -> AxiomVerdict:
    """Budget-limit PJR: no group may be owed ell worth of commonly
    approved cost while its union-approved selection is worth less.

    For a fixed S the violating levels form the interval
    (cost(union & W), min(l, |S| l / n, cost(intersection))], so the
    interval-nonemptiness test is exact; the witness level is the
    interval's upper end (|S| l / n <= l, so l never binds).
    """
    if not instance.is_approval:
        raise PreconditionError("budget-limit PJR requires an approval instance")
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    costs, share, unit = _mask_costs(instance)
    chosen = sum(1 << c for c, x in enumerate(instance.projects) if x in bundle)

    def found(size, low, high, inter, union):
        bound = min(size * share, costs[inter])
        if costs[union & chosen] < bound:
            return Fraction(bound, unit)

    return _committee_verdict(instance, bundle, "bpjr", found)


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
