"""Exact output checks, written from the definitions.

Nothing here calls pbprop: each check reads plain data (ids, Fractions,
dicts) and decides one property of a rule outcome, a witness, a price
system or a laminar decomposition.  A failed check raises CheckFailed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

ZERO = Fraction(0)


class CheckFailed(Exception):
    """An output of the program does not have the property checked."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Election:
    """The benchmark's own copy of an instance: u[v][c] is a Fraction in
    [0, 1]; a missing entry means utility 0."""

    voters: tuple
    projects: tuple
    cost: dict
    u: dict
    budget: Fraction

    @staticmethod
    def copy_of(instance):
        """Copy the fields of a pbprop instance into plain data."""
        return Election(
            tuple(instance.voters),
            tuple(instance.projects),
            dict(instance.cost),
            {v: {c: x for c, x in row.items() if x != 0} for v, row in instance.utilities.items()},
            instance.budget,
        )

    def util(self, v, c):
        return self.u[v].get(c, ZERO)

    def supporters(self, c):
        return [v for v in self.voters if self.util(v, c) > 0]

    def cost_of(self, bundle):
        return sum((self.cost[c] for c in bundle), ZERO)

    def utility_of(self, v, bundle):
        return sum((self.util(v, c) for c in bundle), ZERO)

    def approves(self, v, c):
        return self.util(v, c) == 1


def check_affordable(e, bundle):
    require(set(bundle) <= set(e.projects), f"bundle has unknown projects {sorted(set(bundle) - set(e.projects))}")
    require(e.cost_of(bundle) <= e.budget, f"bundle costs {e.cost_of(bundle)} > budget {e.budget}")


def check_price_system(e, bundle, b, payments):
    """Price system for W with initial budget b: nonnegative payments only
    by supporters of selected projects, at most b/n per voter, each selected
    project paid in full, and no unselected project whose supporters hold
    more than its cost in unspent money."""
    bundle = frozenset(bundle)
    n = len(e.voters)
    require(b >= 0, f"negative initial budget {b}")
    share = b / n
    spent = {}
    funded = {c: ZERO for c in e.projects}
    for v in e.voters:
        row = payments.get(v, {})
        for c, p in row.items():
            require(c in funded, f"payment to unknown project {c}")
            require(p >= 0, f"negative payment p_{v}({c}) = {p}")
            require(p == 0 or c in bundle, f"payment p_{v}({c}) = {p} to an unselected project")
            require(p == 0 or e.util(v, c) > 0, f"payment p_{v}({c}) = {p} for utility 0")
            funded[c] += p
        spent[v] = sum(row.values(), ZERO)
        require(spent[v] <= share, f"voter {v} pays {spent[v]} > b/n = {share}")
    require(set(payments) <= set(e.voters), "payment by an unknown voter")
    for c in e.projects:
        if c in bundle:
            require(funded[c] == e.cost[c], f"selected {c} funded {funded[c]}, costs {e.cost[c]}")
        else:
            slack = sum((share - spent[v] for v in e.supporters(c)), ZERO)
            require(slack <= e.cost[c], f"supporters of unselected {c} hold {slack} > cost {e.cost[c]}")


def check_phragmen(e, bundle, events, stop_time, stop_reason):
    """Sequential Phragmén on approvals: each purchase at time t charges
    every supporter exactly what it earned since its last payment, the
    charges sum to the cost, and the payments with b = n * stop time form a
    price system."""
    last = {v: ZERO for v in e.voters}
    bought = []
    now = ZERO
    for t, c, pays in events:
        require(c in e.cost and c not in bought, f"bad purchase of {c}")
        require(t >= now, f"purchase of {c} at t={t} before t={now}")
        expected = {v: t - last[v] for v in e.voters if e.approves(v, c)}
        require(pays == expected, f"payments for {c} differ from the earned balances")
        require(sum(pays.values(), ZERO) == e.cost[c], f"payments for {c} do not sum to its cost")
        for v in pays:
            last[v] = t
        bought.append(c)
        now = t
    require(frozenset(bought) == frozenset(bundle), "bundle differs from the purchases")
    check_affordable(e, bundle)
    require(stop_time >= now, f"stop time {stop_time} before the last purchase")
    rest = [c for c in e.projects if c not in bundle]
    if stop_reason == "budget-exhausted":
        require(
            any(
                sum((stop_time - last[v] for v in e.voters if e.approves(v, c)), ZERO) == e.cost[c]
                and e.cost_of(bundle) + e.cost[c] > e.budget
                for c in rest
            ),
            "no over-budget project becomes affordable at the stop time",
        )
    else:
        require(stop_reason == "no-affordable-project", f"unknown stop reason {stop_reason!r}")
        require(all(not e.supporters(c) for c in rest), "stopped while a project had supporters")
    payments = {v: {} for v in e.voters}
    for t, c, pays in events:
        for v, p in pays.items():
            payments[v][c] = p
    check_price_system(e, bundle, len(e.voters) * stop_time, payments)


def check_rule_x(e, bundle, rounds):
    """Rule X (equal shares): a round at price rho charges each supporter
    min(unspent share, u * rho), the charges sum to the cost, nobody pays
    more than budget/n, and at the end no unselected project's supporters
    hold its cost in unspent share."""
    n = len(e.voters)
    share = e.budget / n
    paid = {v: ZERO for v in e.voters}
    payments = {v: {} for v in e.voters}
    bought = []
    for rho, c, pays in rounds:
        require(c in e.cost and c not in bought, f"bad purchase of {c}")
        require(rho > 0, f"nonpositive rho {rho} for {c}")
        expected = {}
        for v in e.voters:
            p = min(share - paid[v], e.util(v, c) * rho)
            if e.util(v, c) > 0 and p > 0:
                expected[v] = p
        require(pays == expected, f"round for {c} charges differ from min(share left, u*rho)")
        require(sum(pays.values(), ZERO) == e.cost[c], f"payments for {c} do not sum to its cost")
        for v, p in pays.items():
            paid[v] += p
            payments[v][c] = p
        bought.append(c)
    require(frozenset(bought) == frozenset(bundle), "bundle differs from the purchases")
    check_affordable(e, bundle)
    for v in e.voters:
        require(paid[v] <= share, f"voter {v} pays {paid[v]} > budget/n")
    for c in e.projects:
        if c not in bundle:
            unspent = sum((share - paid[v] for v in e.supporters(c)), ZERO)
            require(unspent < e.cost[c], f"unselected {c} is still affordable: {unspent} >= {e.cost[c]}")
    check_price_system(e, bundle, e.budget, payments)


def harmonic_score(e, bundle):
    score = ZERO
    for v in e.voters:
        hits = sum(1 for c in bundle if e.approves(v, c))
        score += sum((Fraction(1, i) for i in range(1, hits + 1)), ZERO)
    return score


def best_pav_score(e):
    """Highest harmonic score over every affordable bundle."""
    best = ZERO
    for r in range(len(e.projects) + 1):
        for combo in combinations(e.projects, r):
            if e.cost_of(combo) <= e.budget:
                best = max(best, harmonic_score(e, combo))
    return best


def check_pav(e, bundle, score, best=None):
    check_affordable(e, bundle)
    require(harmonic_score(e, bundle) == score, f"reported PAV score {score} is not the bundle's score")
    best = best_pav_score(e) if best is None else best
    require(score == best, f"PAV bundle scores {score} < best affordable score {best}")


def _group_can_afford(e, group, target):
    return len(group) * e.budget >= e.cost_of(target) * len(e.voters)


def check_cohesive_witness(e, bundle, group, target, alpha, kind, up_to_one):
    """A violated EJR/PJR (or up-to-one) witness: S can afford T, every
    member has utility at least alpha(c) on each c in T, and S is
    under-served as the axiom defines it."""
    require(group and set(group) <= set(e.voters), "witness group empty or unknown")
    require(target and set(target) <= set(e.projects), "witness target empty or unknown")
    require(_group_can_afford(e, group, target), "witness group cannot afford its target")
    require(set(alpha) == set(target), "alpha not defined exactly on the target")
    for c in target:
        require(0 <= alpha[c] <= 1, f"alpha({c}) = {alpha[c]} outside [0, 1]")
        require(all(e.util(v, c) >= alpha[c] for v in group), f"a member values {c} below alpha")
    level = sum(alpha.values(), ZERO)
    outside = [a for a in e.projects if a not in bundle]
    if kind == "ejr":
        for v in group:
            have = e.utility_of(v, bundle)
            require(have < level, f"member {v} already has {have} >= {level}")
            if up_to_one:
                for a in outside:
                    require(have + e.util(v, a) <= level, f"member {v} exceeds {level} with {a}")
    else:
        covered = sum((max(e.util(v, c) for v in group) for c in bundle), ZERO)
        require(covered < level, f"group already covers {covered} >= {level}")
        if up_to_one:
            for a in outside:
                extra = max(e.util(v, a) for v in group)
                require(covered + extra <= level, f"group exceeds {level} with {a}")


def check_core_witness(e, bundle, group, target):
    require(group and set(group) <= set(e.voters), "witness group empty or unknown")
    require(target and set(target) <= set(e.projects), "witness target empty or unknown")
    require(_group_can_afford(e, group, target), "witness group cannot afford its target")
    for v in group:
        require(
            e.utility_of(v, target) > e.utility_of(v, bundle),
            f"member {v} does not strictly prefer the target",
        )


def _approval_sets(e, group):
    sets = [frozenset(c for c in e.projects if e.approves(v, c)) for v in group]
    return frozenset.intersection(*sets), frozenset.union(*sets)


def check_committee_witness(e, bundle, group, level):
    """Committee PJR: a group of |S| >= level * n / k voters with level
    common approvals sees fewer than level of its approved projects."""
    costs = {e.cost[c] for c in e.projects}
    require(len(costs) == 1, "committee witness on an instance with several costs")
    k = e.budget / costs.pop()
    require(k.denominator == 1, "budget is not a whole number of seats")
    require(group and set(group) <= set(e.voters), "witness group empty or unknown")
    require(level >= 1 and Fraction(level).denominator == 1, f"bad level {level}")
    require(len(group) * k >= level * len(e.voters), "group too small for its level")
    common, union = _approval_sets(e, group)
    require(len(common) >= level, "group shares fewer approvals than its level")
    require(len(union & frozenset(bundle)) < level, "group already has its level")


def check_bpjr_witness(e, bundle, group, level):
    """Budget-limit PJR: S is owed level <= min(budget, |S| budget / n,
    cost of its common approvals) but its approved selection costs less."""
    require(group and set(group) <= set(e.voters), "witness group empty or unknown")
    require(0 < level <= e.budget, f"level {level} outside (0, budget]")
    require(len(group) * e.budget >= level * len(e.voters), "group too small for its level")
    common, union = _approval_sets(e, group)
    require(e.cost_of(common) >= level, "common approvals cost less than the level")
    require(e.cost_of(union & frozenset(bundle)) < level, "group already has its level")


def counting_unpriceable(e, bundle, left_out, inside):
    """True when W cannot be priceable: c' in W has s' supporters who each
    pay at most b/n, so b >= n cost(c')/s'; the s supporters of c, left
    out of W, hold at most cost(c) unspent and spent at most cost(W), so
    s b/n <= cost(W) + cost(c).  Both hold only if s cost(c')/s' <=
    cost(W) + cost(c)."""
    if left_out in bundle or inside not in bundle:
        return False
    s, s_in = len(e.supporters(left_out)), len(e.supporters(inside))
    return s_in > 0 and Fraction(s) * e.cost[inside] / s_in > e.cost_of(bundle) + e.cost[left_out]


def _slice_approves(e, v, projects):
    return frozenset(c for c in projects if e.approves(v, c))


def check_laminar_tree(e, root):
    """Node rules of a laminar decomposition: a leaf is unanimous and its
    projects cost at least its budget; a unanimous project is approved by
    its whole slice and the child keeps the slice less that project; a
    split partitions voters and projects, its wings share no approval, and
    its budgets are proportional to voter counts."""
    approved = frozenset(c for c in e.projects if any(e.approves(v, c) for v in e.voters))
    require(frozenset(root.voters) == frozenset(e.voters), "root does not hold every voter")
    require(frozenset(root.projects) == approved, "root does not hold the approved projects")
    require(root.budget == e.budget, "root budget differs from the instance budget")
    stack = [root]
    while stack:
        node = stack.pop()
        voters, projects, budget = tuple(node.voters), frozenset(node.projects), node.budget
        require(voters and budget > 0, "empty slice or nonpositive budget")
        kind = type(node).__name__
        if kind == "UnanimousLeaf":
            for v in voters:
                require(_slice_approves(e, v, projects) == projects, f"leaf voter {v} is not unanimous")
            require(e.cost_of(projects) >= budget, "leaf projects cost less than its budget")
        elif kind == "UnanimousProject":
            c, child = node.project, node.child
            require(c in projects, f"unanimous project {c} outside its slice")
            require(all(e.approves(v, c) for v in voters), f"{c} is not approved by the whole slice")
            require(tuple(child.voters) == voters, "unanimous child changes the voters")
            require(frozenset(child.projects) == projects - {c}, "unanimous child projects wrong")
            require(child.budget == budget - e.cost[c], "unanimous child budget wrong")
            stack.append(child)
        elif kind == "Split":
            left, right = node.left, node.right
            lv, rv = frozenset(left.voters), frozenset(right.voters)
            lp, rp = frozenset(left.projects), frozenset(right.projects)
            require(lv and rv and not lv & rv and lv | rv == frozenset(voters), "split voters are no partition")
            require(not lp & rp and lp | rp == projects, "split projects are no partition")
            for wing, other in ((lv, rp), (rv, lp)):
                require(all(not _slice_approves(e, v, other) for v in wing), "split wings share an approval")
            n = len(voters)
            require(left.budget * n == budget * len(lv), "left budget not proportional to its voters")
            require(right.budget * n == budget * len(rv), "right budget not proportional to its voters")
            stack += [left, right]
        else:
            raise CheckFailed(f"unknown node kind {kind}")
