"""Laminar instance recognition, laminar-proportional bundle certification
and enumeration, unanimity-affordability, the restricted core, and a
seeded generator of laminar instances.

A laminar instance is built from three node kinds: a unanimous block whose
agreed projects cover the budget; a unanimously approved project stacked on
a laminar remainder; or a disjoint split of two laminar instances whose
budgets are proportional to their voter counts.  One memoized table lists
the cases of each slice of voters, projects and budget; recognition,
certification, enumeration and the constructive price system are folds over
that table, and certification of a bundle is existential over all
decompositions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product

from . import config
from .axioms import SATISFIED, VIOLATED, AxiomVerdict, PriceSystem, core_verdict
from .model import EnumerationCapError, PBInstance, PreconditionError, check_bundle


class NotLaminarError(PreconditionError):
    """The instance (or bundle) has no laminar decomposition."""


@dataclass(frozen=True)
class UnanimousLeaf:
    voters: tuple
    projects: frozenset
    budget: Fraction


@dataclass(frozen=True)
class UnanimousProject:
    project: str
    child: object
    voters: tuple
    projects: frozenset
    budget: Fraction


@dataclass(frozen=True)
class Split:
    left: object
    right: object
    voters: tuple
    projects: frozenset
    budget: Fraction


def _first_component(voters, approvals):
    """The connected component of the voter-project approval graph that
    holds the canonically first voter, as (voters, projects)."""
    comp_voters = {voters[0]}
    comp_projects = set(approvals[voters[0]])
    grew = True
    while grew:
        grew = False
        for v in voters:
            if v not in comp_voters and approvals[v] & comp_projects:
                comp_voters.add(v)
                comp_projects |= approvals[v]
                grew = True
    return tuple(v for v in voters if v in comp_voters), frozenset(comp_projects)


def _slice_cases(instance):
    """Check that the instance may be searched, and return its root slice
    with a memoized map from a slice to its cases.

    A slice is a (voters, projects, budget) triple; only approved projects
    take part, since a project nobody approves can never appear in a
    laminar proportional bundle.  A case is (project, children), listed in
    search order:

    - (None, ()) when the slice is unanimous and its projects cover the
      budget: a leaf;
    - (c, (child,)) for each commonly approved c cheaper than the budget,
      in id order: c stacked on the rest of the slice;
    - (None, (left, right)) when the approval graph is disconnected: the
      component of the first voter split off from the rest, each with its
      voter-proportional part of the budget.

    A slice has cases of one kind at most.  Removing a common project from
    a unanimous slice leaves it unanimous, so c is stacked only on a
    non-unanimous slice; a common project joins all voters into one
    component.  A voter approving nothing in the slice can never sit in a
    unanimous block with positive budget, so such a slice has no case, and
    neither has a slice with no voters (only the root can have none).
    """
    if not instance.is_approval:
        raise PreconditionError("laminar recognition requires an approval instance")
    cap = config.LAMINAR_MAX_BITS
    if len(instance.voters) > cap or len(instance.projects) > cap:
        raise EnumerationCapError("instance exceeds laminar-search caps")
    approval = {v: instance.approval_set(v) for v in instance.voters}
    memo = {}

    def cases(s):
        if s in memo:
            return memo[s]
        voters, projects, budget = s
        approvals = {v: approval[v] & projects for v in voters}
        sets = list(approvals.values())
        out = []
        if sets and all(sets):
            common = frozenset.intersection(*sets)
            if all(a == common for a in sets):
                if instance.cost_of(projects) >= budget:
                    out.append((None, ()))
            elif common:
                for c in sorted(common):
                    if budget > instance.cost[c]:
                        child = (voters, projects - {c}, budget - instance.cost[c])
                        out.append((c, (child,)))
            else:
                lv, lp = _first_component(voters, approvals)
                if len(lv) < len(voters):
                    rv = tuple(v for v in voters if v not in lv)
                    left = (lv, lp, budget * len(lv) / len(voters))
                    right = (rv, projects - lp, budget * len(rv) / len(voters))
                    out.append((None, (left, right)))
        memo[s] = out
        return out

    return (tuple(instance.voters), frozenset().union(*approval.values()), instance.budget), cases


def _fills_leaf(instance, s, w):
    """w is a maximal affordable part of the leaf's agreed projects: it fits
    in the slice budget and no other project of the slice fits beside it."""
    room = s[2] - instance.cost_of(w)
    return room >= 0 and not any(instance.cost[c] <= room for c in s[1] - w)


def _certifying(instance, cases, memo, s, w):
    """The first case of slice s that certifies w, or None, memoized in
    memo.  A leaf must be filled by w, a stacked project must be in w, and
    each child slice must certify its part of w.  A module-level function,
    so that recursing builds no reference cycle."""
    if (s, w) not in memo:
        found = None
        for case in cases(s) if w <= s[1] else ():
            c, children = case
            if not children:
                fits = _fills_leaf(instance, s, w)
            else:
                fits = (c is None or c in w) and all(
                    _certifying(instance, cases, memo, t, w & t[1]) for t in children
                )
            if fits:
                found = case
                break
        memo[s, w] = found
    return memo[s, w]


def _tree(cases, memo, s):
    """The tree of the first case of slice s whose children are all
    laminar, or None, memoized in memo; a case fails at its first
    non-laminar child."""
    if s not in memo:
        found = None
        for c, children in cases(s):
            nodes = []
            for t in children:
                nodes.append(_tree(cases, memo, t))
                if nodes[-1] is None:
                    break
            else:
                if not children:
                    found = UnanimousLeaf(*s)
                elif c is None:
                    found = Split(*nodes, *s)
                else:
                    found = UnanimousProject(c, *nodes, *s)
                break
        memo[s] = found
    return memo[s]


def recognize_laminar(instance: PBInstance):
    """Return a certification tree, or None when the instance is not laminar.

    Takes the first case of each slice whose children are all laminar.
    """
    root, cases = _slice_cases(instance)
    return _tree(cases, {}, root)


def _laminar_tree(root, cases):
    """The certification tree of the root slice from its case table; raise
    NotLaminarError when there is none."""
    tree = _tree(cases, {}, root)
    if tree is None:
        raise NotLaminarError("instance is not laminar")
    return tree


def is_laminar_proportional(instance: PBInstance, bundle) -> AxiomVerdict:
    """Satisfied iff some decomposition certifies the bundle: leaves take a
    maximal affordable part of the agreed projects (nothing else fits in the
    slice budget), unanimous projects must be taken, splits partition the
    bundle between the wings.

    Maximality at leaves mirrors the committee setting, where a unanimous
    block fills exactly its share of seats; without it, bundles that
    underspend one wing lose priceability and core guarantees."""
    bundle = check_bundle(instance, bundle)
    root, cases = _slice_cases(instance)
    if _certifying(instance, cases, {}, root, bundle):
        return AxiomVerdict(SATISFIED)
    _laminar_tree(root, cases)
    return AxiomVerdict(VIOLATED, witness="no decomposition certifies the bundle")


def _bundles(instance, cases, memo, s):
    """Every bundle that some case of slice s certifies, memoized in memo."""
    if s not in memo:
        out = set()
        for c, children in cases(s):
            if children:
                head = frozenset() if c is None else frozenset([c])
                parts = [_bundles(instance, cases, memo, t) for t in children]
                out.update(head.union(*ws) for ws in product(*parts))
            else:
                for r in range(len(s[1]) + 1):
                    leaf = map(frozenset, combinations(sorted(s[1]), r))
                    out.update(w for w in leaf if _fills_leaf(instance, s, w))
        memo[s] = out
    return memo[s]


def laminar_bundles(instance: PBInstance):
    """All bundles certified laminar proportional, in canonical order: the
    union over every case of every slice.

    The set is empty exactly when the instance is not laminar.  By
    induction over slices, a slice has a certified bundle iff ``_tree``
    finds a case for it: a leaf case always certifies one, since a maximal
    affordable part of its projects always exists (grow the empty set,
    which fits in the slice budget, until nothing else fits); a stacked
    project or a split certifies a bundle iff each of its children does;
    and ``_tree`` takes a case iff each of its children has a tree."""
    root, cases = _slice_cases(instance)
    bundles = _bundles(instance, cases, {}, root)
    if not bundles:
        raise NotLaminarError("instance is not laminar")
    yield from sorted(bundles, key=lambda w: tuple(sorted(w)))


def _payments(instance, cases, memo, s, w):
    """Payments of slice s's voters for w along its first certifying case."""
    voters = s[0]
    c, children = _certifying(instance, cases, memo, s, w)
    if not children:
        return {v: {d: instance.cost[d] / len(voters) for d in w} for v in voters}
    payments = {}
    for t in children:
        payments.update(_payments(instance, cases, memo, t, w & t[1]))
    if c is not None:
        for v in voters:
            payments.setdefault(v, {})[c] = instance.cost[c] / len(voters)
    return payments


def laminar_price_system(instance: PBInstance, bundle):
    """Constructive supporting price system with initial budget cost(W),
    assembled along the first decomposition that certifies W: leaf voters
    split each selected project's cost evenly, a unanimous project is paid
    cost/n by its whole voter slice, and a split takes the disjoint union of
    its wings."""
    bundle = check_bundle(instance, bundle)
    root, cases = _slice_cases(instance)
    memo = {}
    if not _certifying(instance, cases, memo, root, bundle):
        _laminar_tree(root, cases)
        raise NotLaminarError("bundle is not laminar proportional")
    payments = _payments(instance, cases, memo, root, bundle)
    for v in instance.voters:
        payments.setdefault(v, {})
    return PriceSystem(instance.cost_of(bundle), payments)


def is_u_affordable(instance: PBInstance, target, unanimous_pool) -> bool:
    """True iff for every pooled project there is a target member at least
    as expensive."""
    target = check_bundle(instance, target)
    for c in unanimous_pool:
        if not any(instance.cost[t] >= instance.cost[c] for t in target):
            return False
    return True


def unanimous_pool(root, group) -> frozenset:
    """Projects unanimously agreed along the decomposition branch whose
    voter slice covers the group."""
    pool = set()
    node = root
    while True:
        if isinstance(node, UnanimousProject):
            pool.add(node.project)
            node = node.child
        elif isinstance(node, Split):
            if group <= set(node.left.voters):
                node = node.left
            elif group <= set(node.right.voters):
                node = node.right
            else:
                break
        else:  # UnanimousLeaf
            pool |= node.projects
            break
    return frozenset(pool)


def check_core_u_afford(instance: PBInstance, bundle) -> AxiomVerdict:
    """Core restricted to deviations whose target is u-affordable w.r.t.
    the unanimous projects scoped to the deviating group's branch."""
    bundle = check_bundle(instance, bundle)
    root = _laminar_tree(*_slice_cases(instance))
    pools = {}  # group -> its unanimity pool

    def u_affordable(group, target):
        # Only the full set of strict preferrers needs testing: shrinking
        # the group pushes it deeper into the decomposition, which only
        # grows its unanimity pool and so only tightens u-affordability,
        # while also shrinking the group's budget share.
        if group not in pools:
            pools[group] = unanimous_pool(root, set(group))
        return is_u_affordable(instance, target, pools[group])

    return core_verdict(instance, bundle, u_affordable)


def _fresh_ids():
    """A function that names new voters and projects in order of creation:
    fresh("v") gives v001, v002, ... and fresh("p") p001, p002, ..."""
    counters = {"v": count(1), "p": count(1)}
    return lambda kind: f"{kind}{next(counters[kind]):03d}"


def _approval_instance(approvals, cost, budget, description):
    """The instance whose voter v approves exactly approvals[v], with the
    projects of cost in their order."""
    utilities = {
        v: {c: 1 if c in a else 0 for c in cost} for v, a in approvals.items()
    }
    return PBInstance.build(
        voters=list(approvals),
        projects=list(cost),
        cost=cost,
        utilities=utilities,
        budget=budget,
        description=description,
    )


def _draw_laminar(rng, fresh, limits, share, depth):
    """One subtree of ``generate_laminar``, at most ``depth`` levels deep,
    whose voters each hold ``share``: (approvals, project costs, budget).
    ``limits`` is (max_leaf_voters, max_leaf_projects)."""
    kind = "leaf" if depth <= 0 else rng.choice(["leaf", "split", "unanimous"])
    if kind == "leaf":
        max_leaf_voters, max_leaf_projects = limits
        nv = rng.randint(1, max_leaf_voters)
        np = rng.randint(1, max_leaf_projects)
        take = rng.randint(1, np)
        budget = share * nv
        voters = [fresh("v") for _ in range(nv)]
        projects = {fresh("p"): budget / take for _ in range(np)}
        return {v: set(projects) for v in voters}, projects, budget
    # A split, or a unanimous project over a split (a split is never
    # unanimous), whose halves keep the share left after the project.
    inner_share = share if kind == "split" else share * Fraction(rng.randint(1, 3), 4)
    la, lp, lb = _draw_laminar(rng, fresh, limits, inner_share, depth - 1)
    ra, rp, rb = _draw_laminar(rng, fresh, limits, inner_share, depth - 1)
    approvals, projects, budget = {**la, **ra}, {**lp, **rp}, lb + rb
    if kind == "split":
        return approvals, projects, budget
    c = fresh("p")
    projects[c] = (share - inner_share) * len(approvals)
    for v in approvals:
        approvals[v].add(c)
    return approvals, projects, budget + projects[c]


def generate_laminar(
    seed,
    max_depth=2,
    max_leaf_voters=3,
    max_leaf_projects=3,
) -> PBInstance:
    """Draw a random laminar instance by building a certification tree
    bottom-up; the per-voter budget share is kept constant under every
    split so the proportional-split condition holds by construction.

    Within each leaf all projects share one cost that divides the leaf
    budget exactly, so every maximal affordable subset spends the budget
    to the last penny; costs still vary across leaves and unanimous
    projects."""
    if max_depth < 0 or max_leaf_voters < 1 or max_leaf_projects < 1:
        raise ValueError("unsatisfiable generator parameters")
    rng = random.Random(f"laminar:{seed}")
    share = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    approvals, projects, budget = _draw_laminar(
        rng, _fresh_ids(), (max_leaf_voters, max_leaf_projects), share, max_depth
    )
    return _approval_instance(
        approvals, projects, budget, f"generated laminar instance (seed {seed})"
    )


def _draw_committee(rng, fresh, max_leaf_voters, depth):
    """One subtree of ``generate_laminar_mwv``, at most ``depth`` levels
    deep: (approvals, projects, seats)."""
    if depth <= 0 or rng.random() < 0.4:
        nv = rng.randint(1, max_leaf_voters)
        np = nv + rng.randint(0, 2)
        voters = [fresh("v") for _ in range(nv)]
        projects = [fresh("p") for _ in range(np)]
        return {v: set(projects) for v in voters}, projects, nv
    la, lp, lk = _draw_committee(rng, fresh, max_leaf_voters, depth - 1)
    ra, rp, rk = _draw_committee(rng, fresh, max_leaf_voters, depth - 1)
    return {**la, **ra}, lp + rp, lk + rk


def generate_laminar_mwv(seed, max_depth=2, max_leaf_voters=3) -> PBInstance:
    """Like generate_laminar but with unit costs and an integer committee
    size: each leaf seats exactly its voter count, splits add seats, and a
    few unanimously approved projects may sit on top."""
    if max_depth < 0 or max_leaf_voters < 1:
        raise ValueError("unsatisfiable generator parameters")
    rng = random.Random(f"mwv:{seed}")
    fresh = _fresh_ids()
    approvals, projects, k = _draw_committee(rng, fresh, max_leaf_voters, max_depth)
    for _ in range(rng.randint(0, 2)):
        c = fresh("p")
        projects.append(c)
        for v in approvals:
            approvals[v].add(c)
        k += 1
    return _approval_instance(
        approvals,
        dict.fromkeys(projects, Fraction(1)),
        Fraction(k),
        f"generated laminar committee instance (seed {seed})",
    )
