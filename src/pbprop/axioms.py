"""Decision procedures, with machine-checkable witnesses, for the
non-laminar proportionality axioms: core, EJR(-up-to-one),
PJR(-up-to-one), the committee-style PJR variant, budget-limit PJR,
and priceability (via exact linear feasibility).

Subset searches enumerate voter and project subsets as bitmasks in
increasing mask order over the canonical (sorted) id order, so the first
witness found is reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, compress
from operator import add
from typing import Optional

from . import config, linsolve
from .model import (
    CertificateError,
    EnumerationCapError,
    InputError,
    PBInstance,
    PreconditionError,
    ValidationReport,
    ZERO,
    _scaled,
    check_bundle,
)

SATISFIED = "satisfied"
VIOLATED = "violated"
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)
# What a ``_group_search`` test returns for a subset no superset of which
# can violate.
DEAD = object()


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


# The witness validators read ``instance.utilities``, never the ballot-type
# table the searches read, so that no check shares what it checks.
def _names_known(instance, witness):
    """A nonempty group of known voters and a target of known projects."""
    voters, projects = set(instance.voters), set(instance.projects)
    return bool(witness.group) and witness.group <= voters and witness.target <= projects


def validate_cohesiveness_witness(instance, witness) -> bool:
    n = len(instance.voters)
    if not _names_known(instance, witness):
        return False
    if len(witness.group) * instance.budget < instance.cost_of(witness.target) * n:
        return False
    for c in witness.target:
        a = witness.alpha.get(c)
        if a is None or not 0 <= a <= 1:
            return False
        if any(instance.utilities[v][c] < a for v in witness.group):
            return False
    return True


def validate_core_witness(instance, bundle, witness) -> bool:
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    if not _names_known(instance, witness):
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
    bundle = check_bundle(instance, bundle)
    group, level = witness.group, witness.level
    n = len(instance.voters)
    if not group or not group <= set(instance.voters):
        return False
    approvals = [instance.approval_set(v) for v in group]
    common = frozenset.intersection(*approvals)
    selected = frozenset.union(*approvals) & bundle
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


def check_core(instance: PBInstance, bundle) -> AxiomVerdict:
    """A bundle is blocked by (S, T) when S can afford T with its share of
    the budget and every member strictly prefers T.  For each T the maximal
    candidate S is exactly the set of strict preferrers, so T alone is
    enumerated."""
    _check_caps(instance)
    return core_verdict(instance, check_bundle(instance, bundle))


def core_verdict(instance, bundle, admits=lambda group, target: True):
    """Violated by the first target T, in increasing mask order over the
    project ids, whose strict preferrers (the group, nonempty) afford T
    with their share of the budget and that ``admits`` lets through, with
    its witness re-checked; else Satisfied.  T's table is its voters'
    utilities, the integer rows of ``_encode`` summed; T is ``DEAD`` when it
    costs more than the whole budget, as then does every superset."""
    voters, projects = instance.voters, instance.projects
    rows, _, chosen = _encode(instance, bundle)
    gains = [[row[i] for row in rows] for i in range(len(projects))]
    bundle_utility = [sum(_mask_members(chosen, row)) for row in rows]
    costs, share, _ = _mask_costs(instance)

    def grow(row, i):
        return gains[i] if row is None else list(map(add, row, gains[i]))

    def found(mask, size, row):
        if costs[mask] > len(voters) * share:
            return DEAD
        better = [v for v, a, w in zip(voters, row, bundle_utility) if a > w]
        if better and costs[mask] <= len(better) * share:
            group, target = frozenset(better), frozenset(_mask_members(mask, projects))
            if admits(group, target):
                return CoreWitness(group, target)

    hit = _group_search((1 << len(projects)) - 1, grow, found)
    if hit is None:
        return AxiomVerdict(SATISFIED)
    if not validate_core_witness(instance, bundle, hit[1]):
        raise CertificateError(f"core witness fails: {hit[1]}")
    return AxiomVerdict(VIOLATED, hit[1])


def _mask_costs(instance):
    """Affordability in integers: (costs, share, unit) such that a group
    S affords the project mask T iff costs[T] <= |S| * share, and cost(T)
    is Fraction(costs[T], unit)."""
    ints, den = _scaled([instance.cost[c] for c in instance.projects])
    # |S| * budget >= cost(T) * n, both sides times den * budget.denominator.
    scale = instance.budget.denominator * len(instance.voters)
    costs = [0]
    for x in ints:  # the masks with this bit set follow those without it
        x *= scale
        costs += [c + x for c in costs]
    return costs, instance.budget.numerator * den, den * scale


def _encode(instance, bundle):
    """The integer form every subset search reads, with bit k standing for
    projects[k]: (rows, supports, chosen), where rows[i] is voter i's
    utility row as integers over one denominator common to all voters,
    supports[i] the mask of voter i's positive-utility projects, and
    chosen the bundle's mask.  Only the ballot types' rows are scaled; the
    voters of a type share its row and mask."""
    projects, m = instance.projects, len(instance.projects)
    types, _, type_of = instance.ballot_types
    flat, _ = _scaled([row.get(c, ZERO) for row in types for c in projects])
    rows = [flat[k * m : (k + 1) * m] for k in range(len(types))]
    bits = [1 << c for c in range(m)]
    supports = [sum(compress(bits, row)) for row in rows]
    chosen = sum(compress(bits, [c in bundle for c in projects]))
    order = type_of.values()
    return [rows[k] for k in order], [supports[k] for k in order], chosen


def _group_search(universe, grow, found):
    """The one subset walk, behind the core, EJR and PJR (groups and
    targets), bpjr, mwvpjr and PAV: returns (S, hit) for the first nonempty
    submask S of ``universe``, in increasing order, with a ``hit = found(S,
    |S|, table)`` other than None and ``DEAD``, else None.  S's table is
    ``grow(table, i)``: the table of S minus its lowest bit i (None for the
    empty set), the last mask of |S| - 1 elements visited, extended by
    element i, so one table per size is kept.  In order, the submasks are
    the masks over popcount(universe) elements relabelled, so what follows
    holds for them as for the masks over n elements.

    ``found`` answers ``DEAD`` when a test failed that can only fail again
    on a superset of S, so that no superset of S is a hit.  The walk then
    skips every mask whose chain of "minus its lowest bit" reaches S: the
    masks S | y for nonempty y in ``universe`` below S's lowest bit, which
    are exactly the submasks that follow S up to S | (universe & (lowbit(S)
    - 1)).  Each is a superset of S, so none is a hit and the first hit is
    unchanged.  No later mask extends a skipped one (its chain would pass
    through S, putting it in the skipped range), so the one-table-per-size
    invariant holds."""
    tables = [None] * (universe.bit_count() + 1)
    smask = 0
    while smask := (smask - universe) & universe:
        bit = smask & -smask
        size = smask.bit_count()
        table = tables[size] = grow(tables[size - 1], bit.bit_length() - 1)
        hit = found(smask, size, table)
        if hit is DEAD:
            smask |= universe & (bit - 1)
        elif hit is not None:
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
    {c : alpha*(c) > 0} are walked, on ``_group_search``.  The first witness
    is unchanged: dropping the zero-threshold projects from a violating T
    keeps sum alpha* and does not raise the cost, so T & supp violates too
    and, as a mask, is <= T.  The first violating T in full mask order is
    therefore a submask of supp.

    Two bounds skip groups with no violating T, so the first witness stays
    the same.  When sum alpha*(supp) < need, S is ``DEAD``: a superset's
    alpha* is pointwise no larger and its need no smaller (EJR's is a
    maximum over more voters; PJR's ``need`` grows with the columnwise
    maximum it reads), so the test fails for every superset as well.  When
    K * max alpha* < need, where K is the largest k whose k cheapest
    projects fit the share |S| * budget / n, no affordable T has more than K
    projects and so none reaches need; S alone is skipped, since a larger
    group's share admits more projects.  A T that costs more than the share
    is ``DEAD``, as every superset of it costs more still.
    """
    _check_caps(instance)
    rows, supports, chosen = _encode(instance, check_bundle(instance, bundle))
    m = len(instance.projects)
    inside = _mask_members(chosen, range(m))
    outside = _mask_members(~chosen, range(m))

    def need(row):  # a voter's row under EJR, the group's max row under PJR
        add = max((row[c] for c in outside), default=0) if up_to_one else 0
        return sum(row[c] for c in inside) + max(1, add)

    if ejr:  # one more column, each voter's need: the group's is its maximum
        rows = [row + [need(row)] for row in rows]
    costs, share, _ = _mask_costs(instance)
    cheapest = [0, *accumulate(sorted(costs[1 << c] for c in range(m)))]

    def grow(table, i):  # a lone member starts from its own rows and support
        low, high, supp = table or (rows[i], rows[i], -1)
        return list(map(min, low, rows[i])), list(map(max, high, rows[i])), supp & supports[i]

    def found(_, size, table):
        low, high, supp = table
        goal = high[m] if ejr else need(high)
        alpha = low[:m]
        if sum(alpha) < goal:
            return DEAD
        cap = size * share
        if (bisect_right(cheapest, cap) - 1) * max(alpha) < goal:
            return None
        def target(t, _, s):
            if costs[t] > cap:
                return DEAD
            if s >= goal:
                return t

        hit = _group_search(supp, lambda s, c: (s or 0) + low[c], target)
        return hit and hit[0]

    hit = _group_search((1 << len(rows)) - 1, grow, found)
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


def _committee_verdict(instance, bundle, axiom, supports, found):
    def grow(table, i):  # approval (intersection, union); -1 masks every project
        inter, union = table or (-1, 0)
        return inter & supports[i], union | supports[i]

    hit = _group_search((1 << len(supports)) - 1, grow, found)
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
    so it violates iff s + 1, the level reported, lies in that interval.
    When s + 1 > |inter| the group is ``DEAD``: a superset's union sees at
    least s selected projects and its intersection has no more common
    ones, so its interval is empty too."""
    if not instance.is_mwv:
        raise PreconditionError("committee-style PJR requires an MWV instance")
    k = instance.committee_size()
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    _, supports, chosen = _encode(instance, bundle)
    n = len(instance.voters)

    def found(_, size, table):
        inter, union = table
        ell = (union & chosen).bit_count() + 1
        if ell > inter.bit_count():
            return DEAD
        if ell * n <= size * k:
            return Fraction(ell)

    return _committee_verdict(instance, bundle, "mwvpjr", supports, found)


def check_strong_bpjr(instance: PBInstance, bundle) -> AxiomVerdict:
    """Budget-limit PJR: no group may be owed ell worth of commonly
    approved cost while its union-approved selection is worth less.

    For a fixed S the violating levels form the interval
    (cost(union & W), min(l, |S| l / n, cost(intersection))], so the
    interval-nonemptiness test is exact; the witness level is the
    interval's upper end (|S| l / n <= l, so l never binds).  When
    cost(union & W) >= cost(intersection) the group is ``DEAD``: a
    superset's union & W costs no less and its intersection no more, so its
    interval is empty too.
    """
    if not instance.is_approval:
        raise PreconditionError("budget-limit PJR requires an approval instance")
    _check_caps(instance)
    bundle = check_bundle(instance, bundle)
    _, supports, chosen = _encode(instance, bundle)
    costs, share, unit = _mask_costs(instance)

    def found(_, size, table):
        inter, union = table
        have = costs[union & chosen]
        if have >= costs[inter]:
            return DEAD
        bound = min(size * share, costs[inter])
        if have < bound:
            return Fraction(bound, unit)

    return _committee_verdict(instance, bundle, "bpjr", supports, found)


def _payment_var(voter, project):
    return f"p[{voter}][{project}]"


def _liked(instance, projects):
    """Per ballot type, its positive-utility projects among ``projects``."""
    rows, _, _ = instance.ballot_types
    return [[c for c in projects if row.get(c, 0) > 0] for row in rows]


def priceability_system(instance: PBInstance, bundle, b_min_one=False):
    """Encode 'there is a price system supporting W' as a linear system.

    Variables: the initial budget b and one payment per (voter, selected
    project) pair with positive utility; payments for other pairs are
    identically zero and omitted.  Each ballot type's row is compared with
    zero once.
    """
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    if not n:
        raise InputError("no voters")
    selected = sorted(bundle)
    unselected = [c for c in instance.projects if c not in bundle]
    liked = list(zip(_liked(instance, selected), _liked(instance, unselected)))
    _, _, type_of = instance.ballot_types
    pays = {}  # voter -> its payment variables
    payers = {c: {} for c in selected}  # project -> {payment variable: 1}
    supporters = {c: [] for c in unselected}
    system = linsolve.LinearSystem()
    system.add_variable("b", nonneg=True)
    for v, k in type_of.items():
        inside, outside = liked[k]
        pays[v] = []
        for c in inside:
            var = _payment_var(v, c)
            system.add_variable(var, nonneg=True)
            pays[v].append(var)
            payers[c][var] = _ONE
        for c in outside:
            supporters[c].append(v)
    if b_min_one:
        system.add({"b": _ONE}, linsolve.GEQ, _ONE)
    minus_share = Fraction(-1, n)
    for v in instance.voters:
        coeffs = dict.fromkeys(pays[v], _ONE)
        coeffs["b"] = minus_share
        system.add(coeffs, linsolve.LEQ, ZERO)
    for c in selected:
        system.add(payers[c], linsolve.EQ, instance.cost[c])
    for c in unselected:
        if not supporters[c]:
            continue
        coeffs = {"b": Fraction(len(supporters[c]), n)}
        for v in supporters[c]:
            coeffs.update(dict.fromkeys(pays[v], _MINUS_ONE))
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
    point = result.assignment
    inside = _liked(instance, sorted(bundle))
    _, _, type_of = instance.ballot_types
    payments = {v: {c: point[_payment_var(v, c)] for c in inside[k]} for v, k in type_of.items()}
    ps = PriceSystem(point["b"], payments)
    report = validate_price_system(instance, bundle, ps, b_min_one=b_min_one)
    if not report.ok:
        raise CertificateError("; ".join(report.problems))
    return AxiomVerdict(SATISFIED, certificate=ps, mode=mode)


def validate_price_system(
    instance: PBInstance, bundle, ps: PriceSystem, b_min_one=False
) -> ValidationReport:
    """Exhaustive exact check of all price-system conditions for W, read
    from ``instance.utilities``, never from the LP's ballot-type table.

    Each voter's total and in-bundle payments are summed once; the slack
    of an unselected project's supporters S is then
    |S| * share - (their in-bundle payments), exactly the sum over S of
    share minus each one's in-bundle payments."""
    bundle = check_bundle(instance, bundle)
    n = len(instance.voters)
    report = ValidationReport()
    if not n:
        report.add("no voters")
        return report
    if ps.initial_budget < 0:
        report.add(f"negative initial budget {ps.initial_budget}")
    if b_min_one and ps.initial_budget < 1:
        report.add(f"initial budget {ps.initial_budget} below 1 (strict mode)")
    share = Fraction(ps.initial_budget) / n
    for v in ps.payments:
        if v not in instance.utilities:
            report.add(f"payments by unknown voter {v}")
    funded = dict.fromkeys(instance.projects, ZERO)
    in_bundle = {}
    for v in instance.voters:
        row = ps.payments.get(v, {})
        spent = ZERO
        for c, p in row.items():
            if p < 0:
                report.add(f"negative payment p_{v}({c}) = {p}")
            if c not in instance.cost:
                report.add(f"payment for unknown project: p_{v}({c}) = {p}")
                continue
            if p > 0 and instance.utilities[v][c] == 0:
                report.add(f"payment for zero-utility project: p_{v}({c}) = {p}")
            funded[c] += p
            if c in bundle:
                spent += p
        in_bundle[v] = spent
        total = sum(row.values(), ZERO)
        if total > share:
            report.add(f"voter {v} pays {total} exceeding share {share}")
    for c in instance.projects:
        total = funded[c]
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
        slack = len(supporters) * share - sum((in_bundle[v] for v in supporters), ZERO)
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
