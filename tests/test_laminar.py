"""Laminar recognition, bundle certification, the constructive price
system, generators, and the unanimity-restricted core."""

import random
from fractions import Fraction

import pytest

from pbprop import (
    GeneratorSpec,
    NotLaminarError,
    PBInstance,
    check_core_u_afford,
    generate_laminar,
    generate_laminar_mwv,
    is_laminar_proportional,
    is_u_affordable,
    laminar_bundles,
    laminar_price_system,
    random_instance,
    recognize_laminar,
    validate_price_system,
)
from pbprop.fixtures import get_fixture, tall_stack_bundle
from pbprop.laminar import Split, UnanimousLeaf, UnanimousProject, unanimous_pool
from pbprop.model import EnumerationCapError


def test_recognize_split_ten():
    root = recognize_laminar(get_fixture("split_ten"))
    assert isinstance(root, UnanimousProject)
    assert root.project == "c6"
    child = root.child
    assert isinstance(child, Split)
    sizes = sorted([len(child.left.voters), len(child.right.voters)])
    budgets = sorted([child.left.budget, child.right.budget])
    assert sizes == [1, 2]
    assert budgets == [3, 6]


def test_recognize_requires_approval():
    with pytest.raises(ValueError):
        recognize_laminar(get_fixture("cardinal_quartet"))


def test_recognize_rejects_non_laminar():
    # Overlapping but non-nested approvals with no common project: one
    # connected component, never unanimous, so no decomposition exists.
    inst = PBInstance.build(
        voters=["a", "b", "c"],
        projects=["p", "q", "r", "s"],
        cost={c: 1 for c in "pqrs"},
        utilities={
            "a": {"p": 1, "q": 1},
            "b": {"q": 1, "r": 1},
            "c": {"r": 1, "s": 1},
        },
        budget=2,
    )
    assert recognize_laminar(inst) is None
    with pytest.raises(NotLaminarError):
        is_laminar_proportional(inst, {"q"})
    with pytest.raises(NotLaminarError):
        list(laminar_bundles(inst))
    with pytest.raises(NotLaminarError, match="instance is not laminar"):
        laminar_price_system(inst, {"q"})
    with pytest.raises(NotLaminarError):
        check_core_u_afford(inst, {"q"})


def test_laminar_cap_is_not_a_verdict():
    # Laminar by construction, but 27 voters and 25 projects: over the cap.
    # The cap error is not a ValueError, so `search` cannot skip it as an
    # unmet precondition.
    inst = generate_laminar(3, max_depth=4)
    assert (len(inst.voters), len(inst.projects)) == (27, 25)
    for call in (
        recognize_laminar,
        lambda i: list(laminar_bundles(i)),
        lambda i: is_laminar_proportional(i, frozenset()),
        lambda i: check_core_u_afford(i, frozenset()),
    ):
        with pytest.raises(EnumerationCapError, match="laminar-search caps"):
            call(inst)
    assert not issubclass(EnumerationCapError, ValueError)


def test_single_leaf_instance():
    inst = PBInstance.build(
        voters=["a", "b"],
        projects=["p", "q"],
        cost={"p": 1, "q": 1},
        utilities={v: {"p": 1, "q": 1} for v in "ab"},
        budget=2,
    )
    root = recognize_laminar(inst)
    assert isinstance(root, UnanimousLeaf)
    assert is_laminar_proportional(inst, {"p", "q"}).satisfied
    # Underspending the leaf loses certification: q still fits.
    assert not is_laminar_proportional(inst, {"p"}).satisfied


def test_certified_bundles_on_split_ten():
    inst = get_fixture("split_ten")
    assert is_laminar_proportional(inst, {"c1", "c2", "c4", "c6"}).satisfied
    # Dropping the unanimous project c6 is never certified.
    assert not is_laminar_proportional(inst, {"c1", "c2", "c4"}).satisfied
    bundles = list(laminar_bundles(inst))
    assert frozenset({"c1", "c2", "c4", "c6"}) in bundles
    assert all(is_laminar_proportional(inst, w).satisfied for w in bundles)
    assert bundles == sorted(bundles, key=lambda w: tuple(sorted(w)))


def test_cheap_fill_bundle_not_certified():
    inst = get_fixture("cheap_fill")
    assert not is_laminar_proportional(
        inst, {"c1", "c2", "c3", "c4", "c5"}
    ).satisfied


def test_constructive_price_system_structure():
    inst = get_fixture("split_ten")
    w = frozenset({"c1", "c2", "c4", "c6"})
    ps = laminar_price_system(inst, w)
    assert ps.initial_budget == inst.cost_of(w)
    # The unanimous project is paid by everyone, camp projects by camps,
    # and each selected project is funded exactly.
    assert ps.paid("v3", "c6") == Fraction(1, 3)
    assert ps.paid("v3", "c4") == 2
    assert ps.paid("v3", "c1") == 0
    for c in w:
        assert sum(ps.paid(v, c) for v in inst.voters) == inst.cost[c]
    with pytest.raises(NotLaminarError):
        laminar_price_system(inst, {"c1", "c2", "c4"})


def test_constructive_price_system_validates_on_generated_instances():
    # The generator makes every leaf bundle spend its slice exactly, which
    # is what makes the cost(W) budget sufficient.
    checked = 0
    for seed in range(20):
        inst = generate_laminar(seed)
        if len(inst.voters) > 7 or len(inst.projects) > 7:
            continue
        for w in laminar_bundles(inst):
            ps = laminar_price_system(inst, w)
            assert ps.initial_budget == inst.cost_of(w)
            assert validate_price_system(inst, w, ps).ok
            checked += 1
    assert checked > 0


def test_enumeration_matches_certification_over_all_bundles():
    # The union fold (enumeration) and the existential fold (certification)
    # agree on every subset, and each certified bundle has a price system.
    instances = [generate_laminar(seed, max_leaf_projects=2) for seed in range(12)]
    instances += [generate_laminar_mwv(seed) for seed in range(12)]
    checked = 0
    for inst in instances:
        projects = inst.projects
        if len(projects) > 8 or len(inst.voters) > 8:
            continue
        subsets = [
            frozenset(c for i, c in enumerate(projects) if mask >> i & 1)
            for mask in range(1 << len(projects))
        ]
        certified = {w for w in subsets if is_laminar_proportional(inst, w).satisfied}
        assert set(laminar_bundles(inst)) == certified
        for w in certified:
            ps = laminar_price_system(inst, w)
            assert validate_price_system(inst, w, ps).ok
            assert ps.initial_budget == inst.cost_of(w)
        checked += 1
    assert checked >= 12


def test_not_laminar_exactly_when_no_bundle_is_certified():
    """recognize_laminar answers None iff laminar_bundles raises iff
    is_laminar_proportional raises on a bundle: all three read one case
    table, and a slice with a tree always certifies some bundle.  An
    instance with no voters is not laminar."""
    rng = random.Random(13)
    instances = [random_instance(GeneratorSpec(), rng) for _ in range(300)]
    instances += [generate_laminar(seed) for seed in range(40)]
    empty = PBInstance.build([], ["c"], {"c": 1}, {}, 1)
    instances.append(empty)
    kinds = set()
    for inst in instances:
        not_laminar = recognize_laminar(inst) is None
        kinds.add(not_laminar)
        try:
            next(laminar_bundles(inst))
            enumeration_raises = False
        except NotLaminarError:
            enumeration_raises = True
        try:
            bundle = {c for c in inst.projects if rng.random() < 0.5}
            is_laminar_proportional(inst, bundle)
            certification_raises = False
        except NotLaminarError:
            certification_raises = True
        assert not_laminar == enumeration_raises == certification_raises
    assert kinds == {True, False}
    assert recognize_laminar(empty) is None
    for call in (laminar_price_system, check_core_u_afford):
        with pytest.raises(NotLaminarError, match="^instance is not laminar$"):
            call(empty, set())


def test_u_affordability_is_pointwise_cost_domination():
    inst = get_fixture("split_ten")
    assert is_u_affordable(inst, {"c5"}, {"c6", "c4"})
    assert not is_u_affordable(inst, {"c6"}, {"c5"})
    assert is_u_affordable(inst, {"c1"}, set())


def test_unanimous_pool_follows_the_branch():
    inst = get_fixture("split_ten")
    root = recognize_laminar(inst)
    assert "c6" in unanimous_pool(root, {"v1", "v2", "v3"})
    pool_small = unanimous_pool(root, {"v3"})
    assert {"c6", "c4", "c5"} <= set(pool_small)


def test_restricted_core_on_tall_stack():
    inst = get_fixture("tall_stack")
    w = tall_stack_bundle()
    assert check_core_u_afford(inst, w).satisfied
    assert is_laminar_proportional(inst, w).satisfied


def test_restricted_core_violation_still_found():
    # A plainly unrepresentative bundle on a laminar instance is caught.
    inst = get_fixture("split_ten")
    verdict = check_core_u_afford(inst, {"c6"})
    assert not verdict.satisfied


def test_generate_laminar_is_deterministic_and_laminar():
    for seed in range(30):
        a = generate_laminar(seed)
        b = generate_laminar(seed)
        assert a == b
        assert a.is_approval
        assert recognize_laminar(a) is not None


def test_generate_laminar_mwv_is_mwv():
    recognized = 0
    for seed in range(30):
        inst = generate_laminar_mwv(seed)
        assert inst.is_mwv
        assert inst.committee_size() >= 1
        if len(inst.voters) <= 16 and len(inst.projects) <= 16:
            assert recognize_laminar(inst) is not None
            recognized += 1
    assert recognized > 10


def test_generator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_laminar(0, max_leaf_voters=0)
    with pytest.raises(ValueError):
        generate_laminar_mwv(0, max_depth=-1)


def test_public_calls_leave_no_cyclic_garbage():
    import gc

    inst = generate_laminar(3, max_depth=2)
    bundles = list(laminar_bundles(inst))
    gc.collect()
    gc.disable()
    try:
        generate_laminar(3, max_depth=2)
        assert gc.collect() == 0
        generate_laminar_mwv(3, max_depth=2)
        assert gc.collect() == 0
        recognize_laminar(inst)
        assert gc.collect() == 0
        list(laminar_bundles(inst))
        assert gc.collect() == 0
        for bundle in bundles:
            is_laminar_proportional(inst, bundle)
            assert gc.collect() == 0
            laminar_price_system(inst, bundle)
            assert gc.collect() == 0
            check_core_u_afford(inst, bundle)
            assert gc.collect() == 0
        with pytest.raises(NotLaminarError):
            laminar_price_system(inst, frozenset())
    finally:
        gc.enable()
