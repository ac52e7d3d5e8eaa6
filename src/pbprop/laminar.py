"""Laminar instance recognition, laminar-proportional bundle certification
and enumeration, unanimity-affordability, the restricted core, and a
seeded generator of laminar instances.

A laminar instance is built from three node kinds: a unanimous block whose
agreed projects cover the budget; a unanimously approved project stacked on
a laminar remainder; or a disjoint split of two laminar instances whose
budgets are proportional to their voter counts.  One memoized table, built
on integers once per call, lists the cases of each slice: its voters and
projects are bitmasks over the sorted ids and its budget a reduced pair of
integers over the costs' one denominator.  Recognition, certification,
enumeration and the constructive price system are folds over that table,
and certification of a bundle is existential over all decompositions.  A
leaf's maximal affordable parts come from the one subset walk,
``axioms._group_search``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count
from operator import or_

from . import config
from .axioms import DEAD, SATISFIED, VIOLATED, AxiomVerdict, PriceSystem, core_verdict
from .axioms import _group_search, _mask_members
from .model import EnumerationCapError, PBInstance, PreconditionError, _scaled, check_bundle


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


def _reduced(num, den):
    g = math.gcd(num, den)
    return num // g, den // g


def _slice_cases(instance):
    """Check that the instance may be searched, and return (root, cases,
    costs, den): its root slice, a memoized map from a slice to its cases,
    and the project costs as integers over one denominator den.

    A slice is (voters, projects, num, bden): a voter mask and a project
    mask, bit k standing for the k-th id of ``instance.voters`` and of
    ``instance.projects``, and the budget num / bden in units of 1 / den as
    a reduced pair with bden > 0, so that every memo key is a tuple of
    ints.  Only approved projects take part, since a project nobody
    approves can never appear in a laminar proportional bundle.  A case is
    (project, children), the project an index, listed in search order:

    - (None, ()) when the slice is unanimous and its projects cover the
      budget: a leaf;
    - (c, (child,)) for each commonly approved c cheaper than the budget,
      in id order: c stacked on the rest of the slice, whose budget
      (num - cost_c * bden, bden) stays reduced;
    - (None, (left, right)) when the approval graph is disconnected: the
      component of the first voter split off from the rest, a wing of k
      of the n voters taking (num * k, bden * n), reduced.

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
    rows, _, type_of = instance.ballot_types
    bit = {c: 1 << k for k, c in enumerate(instance.projects)}
    masks = [sum(map(bit.get, row)) for row in rows]
    approval = [(1 << i, masks[k]) for i, k in enumerate(type_of.values())]
    costs, den = _scaled([instance.cost[c] for c in instance.projects])
    memo = {}

    def cases(s):
        if s in memo:
            return memo[s]
        voters, projects, num, bden = s
        sets = [(b, a & projects) for b, a in approval if voters & b]
        out = memo[s] = []
        if not sets or not all(a for _, a in sets):
            return out
        common = union = sets[0][1]
        for _, a in sets:
            common, union = common & a, union | a
        if common == union:
            if sum(_mask_members(projects, costs)) * bden >= num:
                out.append((None, ()))
        elif common:
            for c in range(common.bit_length()):
                step = costs[c] * bden
                if common >> c & 1 and num > step:
                    out.append((c, ((voters, projects & ~(1 << c), num - step, bden),)))
        else:
            lv, lp = sets[0]
            grew = True
            while grew:  # the component of the first voter
                grew = False
                for b, a in sets:
                    if not lv & b and a & lp:
                        lv, lp, grew = lv | b, lp | a, True
            if lv != voters:
                n, k = voters.bit_count(), lv.bit_count()
                left = (lv, lp, *_reduced(num * k, bden * n))
                right = (voters & ~lv, projects & ~lp, *_reduced(num * (n - k), bden * n))
                out.append((None, (left, right)))
        return out

    budget = _reduced(instance.budget.numerator * den, instance.budget.denominator)
    return ((1 << len(approval)) - 1, reduce(or_, masks, 0), *budget), cases, costs, den


def _mask_of(instance, bundle):
    return sum(1 << k for k, c in enumerate(instance.projects) if c in bundle)


def _fills_leaf(costs, s, w):
    """w is a maximal affordable part of the leaf's agreed projects: it fits
    in the slice budget and no other project of the slice fits beside it."""
    _, projects, num, bden = s
    room = num - sum(_mask_members(w, costs)) * bden
    return room >= 0 and not any(x * bden <= room for x in _mask_members(projects & ~w, costs))


def _certifying(cases, costs, memo, s, w):
    """The first case of slice s that certifies the project mask w, or None,
    memoized in memo.  A leaf must be filled by w, a stacked project must
    be in w, and each child slice must certify its part of w.  A
    module-level function, so that recursing builds no reference cycle."""
    if (s, w) not in memo:
        found = None
        for case in cases(s) if not w & ~s[1] else ():
            c, children = case
            if not children:
                fits = _fills_leaf(costs, s, w)
            else:
                fits = (c is None or w >> c & 1) and all(
                    _certifying(cases, costs, memo, t, w & t[1]) for t in children
                )
            if fits:
                found = case
                break
        memo[s, w] = found
    return memo[s, w]


def _tree(instance, den, cases, memo, s):
    """The tree of the first case of slice s whose children are all
    laminar, or None, memoized in memo; a case fails at its first
    non-laminar child.  Nodes hold ids and the budget as a Fraction."""
    if s not in memo:
        found = None
        for c, children in cases(s):
            nodes = []
            for t in children:
                nodes.append(_tree(instance, den, cases, memo, t))
                if nodes[-1] is None:
                    break
            else:
                voters, projects, num, bden = s
                fields = (
                    tuple(_mask_members(voters, instance.voters)),
                    frozenset(_mask_members(projects, instance.projects)),
                    Fraction(num, bden * den),
                )
                if not children:
                    found = UnanimousLeaf(*fields)
                elif c is None:
                    found = Split(*nodes, *fields)
                else:
                    found = UnanimousProject(instance.projects[c], *nodes, *fields)
                break
        memo[s] = found
    return memo[s]


def recognize_laminar(instance: PBInstance):
    """Return a certification tree, or None when the instance is not laminar.

    Takes the first case of each slice whose children are all laminar.
    """
    root, cases, _, den = _slice_cases(instance)
    return _tree(instance, den, cases, {}, root)


def _laminar_tree(instance, table):
    """The certification tree of the root slice from its case table; raise
    NotLaminarError when there is none."""
    root, cases, _, den = table
    tree = _tree(instance, den, cases, {}, root)
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
    w = _mask_of(instance, check_bundle(instance, bundle))
    table = _slice_cases(instance)
    root, cases, costs, _ = table
    if _certifying(cases, costs, {}, root, w):
        return AxiomVerdict(SATISFIED)
    _laminar_tree(instance, table)
    return AxiomVerdict(VIOLATED, witness="no decomposition certifies the bundle")


def _leaf_bundles(costs, s, out):
    """Add to out the mask of every maximal affordable part of leaf slice
    s's projects, on the one subset walk: a part over the slice budget is
    ``DEAD``, as is every superset.  The empty part, which the walk does
    not visit, is tested first."""
    _, projects, num, bden = s

    def found(mask, _, cost):
        room = num - cost * bden
        if room < 0:
            return DEAD
        if not any(x * bden <= room for x in _mask_members(projects & ~mask, costs)):
            out.add(mask)

    found(0, 0, 0)
    _group_search(projects, lambda t, i: (t or 0) + costs[i], found)


def _bundles(cases, costs, memo, s):
    """The mask of every bundle that some case of slice s certifies,
    memoized in memo."""
    if s not in memo:
        out = set()
        for c, children in cases(s):
            if not children:
                _leaf_bundles(costs, s, out)
            elif c is None:
                left, right = (_bundles(cases, costs, memo, t) for t in children)
                out.update(x | y for x in left for y in right)
            else:
                out.update(x | 1 << c for x in _bundles(cases, costs, memo, children[0]))
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
    root, cases, costs, _ = _slice_cases(instance)
    bundles = _bundles(cases, costs, {}, root)
    if not bundles:
        raise NotLaminarError("instance is not laminar")
    # Bit order is id order, so each member list is sorted already.
    for members in sorted(tuple(_mask_members(w, instance.projects)) for w in bundles):
        yield frozenset(members)


def _payments(instance, den, cases, costs, memo, s, w):
    """Payments of slice s's voters for the project mask w along its first
    certifying case."""
    voters = _mask_members(s[0], instance.voters)
    c, children = _certifying(cases, costs, memo, s, w)
    if not children:
        shares = {
            d: Fraction(x, den * len(voters))
            for d, x in zip(_mask_members(w, instance.projects), _mask_members(w, costs))
        }
        return {v: dict(shares) for v in voters}
    payments = {}
    for t in children:
        payments.update(_payments(instance, den, cases, costs, memo, t, w & t[1]))
    if c is not None:
        share = Fraction(costs[c], den * len(voters))
        for v in voters:
            payments.setdefault(v, {})[instance.projects[c]] = share
    return payments


def laminar_price_system(instance: PBInstance, bundle):
    """Constructive supporting price system with initial budget cost(W),
    assembled along the first decomposition that certifies W: leaf voters
    split each selected project's cost evenly, a unanimous project is paid
    cost/n by its whole voter slice, and a split takes the disjoint union of
    its wings."""
    bundle = check_bundle(instance, bundle)
    w = _mask_of(instance, bundle)
    table = _slice_cases(instance)
    root, cases, costs, den = table
    memo = {}
    if not _certifying(cases, costs, memo, root, w):
        _laminar_tree(instance, table)
        raise NotLaminarError("bundle is not laminar proportional")
    payments = _payments(instance, den, cases, costs, memo, root, w)
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
    root = _laminar_tree(instance, _slice_cases(instance))
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
