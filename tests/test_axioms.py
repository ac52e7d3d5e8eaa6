"""Axiom checkers: fixture verdicts, witness validity, price systems."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pbprop import (
    GeneratorSpec,
    PBInstance,
    check_core,
    check_ejr,
    check_mwv_pjr,
    check_pjr,
    check_priceable,
    check_strong_bpjr,
    pav,
    phragmen,
    price_system_from_phragmen,
    random_instance,
    rule_x,
    validate_cohesiveness_witness,
    validate_committee_witness,
    validate_core_witness,
    validate_price_system,
)
from pbprop import axioms
from pbprop.axioms import CohesivenessWitness, CoreWitness, EnumerationCapError
from pbprop.fixtures import get_fixture
from pbprop.model import CertificateError, InputError, ValidationReport
from pbprop.oracle import random_bundle
from pbprop.registry import MAIN_CHECKERS


def test_core_detects_blocking_pair():
    inst = get_fixture("common_tail")
    verdict = check_core(inst, {"c1", "c2", "c3"})
    assert not verdict.satisfied
    assert validate_core_witness(inst, frozenset({"c1", "c2", "c3"}), verdict.witness)


def test_core_witness_failing_recheck_raises(monkeypatch):
    """A witness or price system that fails its re-check raises, for the
    core, EJR, PJR and priceability, instead of reaching the verdict."""
    monkeypatch.setattr("pbprop.axioms.validate_core_witness", lambda *a: False)
    monkeypatch.setattr("pbprop.axioms.validate_cohesiveness_witness", lambda *a: False)
    monkeypatch.setattr(
        "pbprop.axioms.validate_price_system",
        lambda *a, **k: ValidationReport(["forged problem"]),
    )
    for check, name, bundle in (
        (check_core, "tall_stack", set()),
        (check_ejr, "cardinal_quartet", {"c2", "c3"}),
        (check_pjr, "cardinal_quartet", {"c2", "c3"}),
        (check_priceable, "common_tail", {"c1", "c2", "c3"}),
    ):
        with pytest.raises(CertificateError):
            check(get_fixture(name), frozenset(bundle))


def test_core_satisfied_on_unit_split():
    inst = get_fixture("unit_split")
    assert check_core(inst, {"c1", "c2", "c3", "c4"}).satisfied


def test_pjr_witness_on_quartet():
    inst = get_fixture("cardinal_quartet")
    verdict = check_pjr(inst, {"c2", "c3"})
    assert not verdict.satisfied
    w = verdict.witness
    assert w.group == frozenset({"v1", "v2"})
    assert w.target == frozenset({"c1"})
    assert w.alpha["c1"] == Fraction(7, 10)
    assert validate_cohesiveness_witness(inst, w)


def test_ejr_and_pjr_agree_on_satisfied_fixture():
    inst = get_fixture("unit_split")
    w = {"c1", "c2", "c3", "c4"}
    assert check_ejr(inst, w).satisfied
    assert check_pjr(inst, w).satisfied


def test_up_to_one_weakens_the_axiom():
    # The lone voter affords {p,r} (threshold total 7/4) but only gets 3/2
    # from {p,q}; adding r lifts every affordable deviation strictly, so
    # the up-to-one variant is satisfied while the plain one is not.
    inst = PBInstance.build(
        voters=["a"],
        projects=["p", "q", "r"],
        cost={"p": 1, "q": 1, "r": 1},
        utilities={"a": {"p": "3/4", "q": "3/4", "r": 1}},
        budget=2,
    )
    w = {"p", "q"}
    assert not check_ejr(inst, w).satisfied
    assert check_ejr(inst, w, up_to_one=True).satisfied


def test_witness_validation_rejects_garbage():
    inst = get_fixture("unit_split")
    too_big = CohesivenessWitness(
        frozenset({"v1"}),
        frozenset({"c1", "c2", "c3", "c4"}),
        {f"c{i}": Fraction(1) for i in range(1, 5)},
    )
    assert not validate_cohesiveness_witness(inst, too_big)
    wrong_alpha = CohesivenessWitness(
        frozenset({"v1"}), frozenset({"c3"}), {"c3": Fraction(1)}
    )
    assert not validate_cohesiveness_witness(inst, wrong_alpha)
    # Names the instance does not know are rejected, not a KeyError.
    missing_alpha = CohesivenessWitness(frozenset({"v1"}), frozenset({"c1"}), {})
    assert not validate_cohesiveness_witness(inst, missing_alpha)
    empty = frozenset()
    assert validate_core_witness(inst, empty, CoreWitness(frozenset({"v1"}), frozenset({"c1"})))
    for group, target in (({"zz"}, {"c1"}), ({"v1"}, {"zz"}), ({"v1", "zz"}, {"c1"})):
        foreign = CoreWitness(frozenset(group), frozenset(target))
        assert not validate_core_witness(inst, empty, foreign)


def test_validators_reject_unknown_bundle_ids_like_the_checkers():
    # A bundle naming a project the instance lacks is the caller's error,
    # not a verdict: every validator raises the checkers' KeyError.
    inst = get_fixture("unit_split")
    bundle = frozenset({"zz"})
    with pytest.raises(KeyError) as expected:
        check_core(inst, bundle)
    core = CoreWitness(frozenset({"v1"}), frozenset({"c1"}))
    mwv = axioms.CommitteeWitness(frozenset({"v1"}), Fraction(1))
    calls = (
        lambda: validate_core_witness(inst, bundle, core),
        lambda: validate_committee_witness(inst, bundle, mwv, "mwvpjr"),
        lambda: validate_price_system(inst, bundle, axioms.PriceSystem(Fraction(1), {})),
    )
    for call in calls:
        with pytest.raises(KeyError) as raised:
            call()
        assert raised.value.args == expected.value.args


def test_mwv_pjr_requires_mwv():
    with pytest.raises(ValueError):
        check_mwv_pjr(get_fixture("cardinal_quartet"), set())


def test_mwv_pjr_finds_starved_group():
    inst = get_fixture("unit_split")
    verdict = check_mwv_pjr(inst, {"c1", "c2", "c3", "c4"})
    assert verdict.satisfied
    starved = check_mwv_pjr(inst, {"c3", "c4", "c5"})
    # v1, v2 are owed two commonly approved seats but see only c5.
    assert not starved.satisfied


def test_strong_bpjr_requires_approval():
    with pytest.raises(ValueError):
        check_strong_bpjr(get_fixture("cardinal_quartet"), set())


def test_strong_bpjr_verdicts():
    inst = PBInstance.build(
        voters=["a", "b"],
        projects=["p", "q"],
        cost={"p": 1, "q": 1},
        utilities={"a": {"p": 1}, "b": {"q": 1}},
        budget=2,
    )
    assert check_strong_bpjr(inst, {"p", "q"}).satisfied
    verdict = check_strong_bpjr(inst, {"p"})
    assert not verdict.satisfied
    assert verdict.witness.group == frozenset({"b"})
    assert verdict.witness.level == 1
    # On split_ten every affordable bundle starves one camp of its share.
    split = get_fixture("split_ten")
    starved = check_strong_bpjr(split, {"c1", "c2", "c3", "c6"})
    assert not starved.satisfied
    assert starved.witness.group == frozenset({"v3"})


def test_committee_witness_validation_rejects_corruption(monkeypatch):
    unit_split, starved = get_fixture("unit_split"), frozenset({"c3", "c4", "c5"})
    split_ten, short = get_fixture("split_ten"), frozenset({"c1", "c2", "c3", "c6"})
    mwv = check_mwv_pjr(unit_split, starved).witness
    bpjr = check_strong_bpjr(split_ten, short).witness
    assert (mwv.group, mwv.level) == (frozenset({"v1", "v2"}), 2)
    assert (bpjr.group, bpjr.level) == (frozenset({"v3"}), Fraction(10, 3))
    assert validate_committee_witness(unit_split, starved, mwv, "mwvpjr")
    assert validate_committee_witness(split_ten, short, bpjr, "bpjr")
    corrupt = axioms.CommitteeWitness
    for bad in (
        lambda group, level: corrupt(group, level + 1),  # more than owed
        lambda group, level: corrupt(group, Fraction(1)),  # what both groups have
        lambda group, level: corrupt(frozenset({"v1", "v2", "v3"}), level),
        lambda group, level: corrupt(frozenset(), level),
    ):
        assert not validate_committee_witness(
            unit_split, starved, bad(mwv.group, mwv.level), "mwvpjr"
        )
        assert not validate_committee_witness(
            split_ten, short, bad(bpjr.group, bpjr.level), "bpjr"
        )
        monkeypatch.setattr(axioms, "CommitteeWitness", bad)
        with pytest.raises(CertificateError):
            check_mwv_pjr(unit_split, starved)
        with pytest.raises(CertificateError):
            check_strong_bpjr(split_ten, short)
        monkeypatch.undo()


def test_priceable_fixture_verdicts():
    assert not check_priceable(
        get_fixture("unit_split"), {"c1", "c2", "c3", "c4"}
    ).satisfied
    verdict = check_priceable(get_fixture("two_camps"), {"t2", "c1", "c2", "c3"})
    assert verdict.satisfied
    report = validate_price_system(
        get_fixture("two_camps"), {"t2", "c1", "c2", "c3"}, verdict.certificate
    )
    assert report.ok


def test_priceable_b_min_one_mode():
    inst = PBInstance.build(
        voters=["a"],
        projects=["p"],
        cost={"p": 1},
        utilities={"a": {"p": 1}},
        budget=1,
    )
    # The empty bundle is supported by b = 0 but not by any b >= 1: the
    # lone supporter of p would hold slack b > cost(p) = 1... only at b > 1,
    # so b = 1 exactly still works.
    assert check_priceable(inst, set(), b_min_one=False).satisfied
    assert check_priceable(inst, set(), b_min_one=True).satisfied
    richer = PBInstance.build(
        voters=["a"],
        projects=["p"],
        cost={"p": "1/2"},
        utilities={"a": {"p": 1}},
        budget=1,
    )
    assert check_priceable(richer, set(), b_min_one=False).satisfied
    assert not check_priceable(richer, set(), b_min_one=True).satisfied


def test_price_system_validation_catches_violations():
    inst = get_fixture("two_camps")
    w = frozenset({"t2", "c1", "c2", "c3"})
    good = check_priceable(inst, w).certificate
    bad = type(good)(good.initial_budget, {**good.payments, "s1": {"t2": Fraction(2)}})
    report = validate_price_system(inst, w, bad)
    assert not report.ok
    # Payments to an unknown project, or by an unknown voter, are problems.
    s1 = {**good.payments["s1"], "zz": Fraction(1, 9)}
    foreign = type(good)(good.initial_budget, {**good.payments, "s1": s1})
    problems = validate_price_system(inst, w, foreign).problems
    assert "payment for unknown project: p_s1(zz) = 1/9" in problems
    stranger = type(good)(good.initial_budget, {**good.payments, "zz": {"t2": Fraction(0)}})
    assert validate_price_system(inst, w, stranger).problems == [
        "payments by unknown voter zz"
    ]
    # Strict mode's floor on the budget, a negative payment, a payment to an
    # unselected project, and supporters left with slack above its cost.
    negative = {**good.payments, "s1": {"t2": Fraction(-1, 5)}}
    unselected = {**good.payments, "s1": {"t1": Fraction(1, 10)}}
    for ps, bundle, strict, problem in (
        (type(good)(Fraction(1, 2), {}), set(), True, "initial budget 1/2 below 1 (strict mode)"),
        (type(good)(1, negative), w, False, "negative payment p_s1(t2) = -1/5"),
        (type(good)(1, unselected), w, False, "unselected project t1 receives payment 1/10"),
        (type(good)(1, {}), set(), False, "supporters of unselected t1 hold slack 2/5 > cost 1/5"),
    ):
        assert problem in validate_price_system(inst, bundle, ps, b_min_one=strict).problems
    # An int initial budget is exact too: each voter's share stays a Fraction.
    assert good.initial_budget == 1
    assert validate_price_system(inst, w, type(good)(1, good.payments)).ok


def test_no_voters_is_an_input_error():
    inst = PBInstance.build([], ["c"], {"c": 1}, {}, 1)
    for call in (
        lambda: rule_x(inst),
        lambda: phragmen(inst),
        lambda: pav(inst),
        lambda: axioms.priceability_system(inst, {"c"}),
        lambda: check_priceable(inst, {"c"}),
    ):
        with pytest.raises(InputError, match="^no voters$"):
            call()
    ps = axioms.PriceSystem(Fraction(1), {})
    assert validate_price_system(inst, set(), ps).problems == ["no voters"]


def test_price_system_validation_accepts_its_boundaries():
    # Every condition holds with equality somewhere below, so a validator
    # comparison made strict, or loosened to accept equality on the wrong
    # side, shows.
    inst = PBInstance.build(
        voters=["v1", "v2"],
        projects=["a", "b", "c"],
        cost={"a": 1, "b": 1, "c": 1},
        utilities={"v1": {"a": 1, "c": 1}, "v2": {"b": 1, "c": 1}},
        budget=3,
    )
    PS = axioms.PriceSystem
    # v1 pays nothing for b, which it does not like; c's supporters keep
    # exactly its cost.
    spare = PS(
        Fraction(3), {"v1": {"a": Fraction(1), "b": Fraction(0)}, "v2": {"b": Fraction(1)}}
    )
    # Each voter spends exactly their share.
    spent = PS(Fraction(2), {"v1": {"a": Fraction(1)}, "v2": {"b": Fraction(1)}})
    for ps in (spare, spent):
        assert validate_price_system(inst, {"a", "b"}, ps, b_min_one=True).ok
    # Budgets of exactly 0, and exactly 1 in strict mode, on the empty bundle.
    assert validate_price_system(inst, set(), PS(Fraction(0), {})).ok
    assert validate_price_system(inst, set(), PS(Fraction(1), {}), b_min_one=True).ok
    liked = PS(
        Fraction(3), {"v1": {"a": Fraction(1), "b": Fraction(1, 2)}, "v2": {"b": Fraction(1, 2)}}
    )
    assert validate_price_system(inst, {"a", "b"}, liked).problems == [
        "payment for zero-utility project: p_v1(b) = 1/2"
    ]


def test_phragmen_trace_to_price_system():
    inst = get_fixture("split_ten")
    winners, trace = phragmen(inst)
    ps = price_system_from_phragmen(inst, trace)
    assert validate_price_system(inst, winners, ps).ok
    # A trace that names a project or a voter the instance lacks is refused.
    first = trace.events[0]
    for event, message in (
        (replace(first, project="zz"), "trace mentions unknown project zz"),
        (replace(first, payments={"zz": Fraction(1)}), "trace mentions unknown voter zz"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            price_system_from_phragmen(inst, replace(trace, events=[event]))


def test_checkers_judge_over_budget_bundles_as_given():
    # README, "Axiom checkers": a bundle of known projects is judged as
    # given, over budget included; feasibility is the caller's job.
    inst = get_fixture("unit_split")
    everything = frozenset(inst.projects)
    assert inst.cost_of(everything) > inst.budget
    verdicts = {axiom: check(inst, everything) for axiom, check in MAIN_CHECKERS.items()}
    assert {axiom for axiom, v in verdicts.items() if not v.satisfied} == {"laminarprop"}


def test_enumeration_cap(monkeypatch):
    from pbprop import config

    monkeypatch.setattr(config, "ENUM_MAX_BITS", 2)
    with pytest.raises(EnumerationCapError):
        check_core(get_fixture("unit_split"), set())


def test_violation_witnesses_always_validate():
    rng = random.Random(99)
    for trial in range(80):
        spec = GeneratorSpec(approval=trial % 2 == 0)
        inst = random_instance(spec, rng)
        w = random_bundle(inst, rng)
        core = check_core(inst, w)
        if not core.satisfied:
            assert validate_core_witness(inst, w, core.witness)
        for checker in (check_ejr, check_pjr):
            verdict = checker(inst, w)
            if not verdict.satisfied:
                assert validate_cohesiveness_witness(inst, verdict.witness)


def _ascending(ids):
    """Every nonempty subset of ids, in increasing bitmask order (bit k is
    ids[k])."""
    for mask in range(1, 1 << len(ids)):
        yield frozenset(x for k, x in enumerate(ids) if mask >> k & 1)


def _literal_cohesive_witnesses(inst, bundle):
    """The first (group, target, alpha*) of EJR, EJR-up-to-one, PJR and
    PJR-up-to-one, from the definitions: every S, then every T, ascending,
    with alpha*(c) = min over S of u_i(c), in Fractions."""
    n = len(inst.voters)
    outside = [a for a in inst.projects if a not in bundle]
    first = {}
    for group in _ascending(inst.voters):
        have = [inst.voter_utility(v, bundle) for v in group]
        more = [
            max([h] + [h + inst.utilities[v][a] for a in outside])
            for v, h in zip(group, have)
        ]
        top = {c: max(inst.utilities[v][c] for v in group) for c in inst.projects}
        covered = sum((top[c] for c in bundle), Fraction(0))
        covered_more = max([covered] + [covered + top[a] for a in outside])
        for target in _ascending(inst.projects):
            if len(group) * inst.budget < inst.cost_of(target) * n:
                continue
            alpha = {c: min(inst.utilities[v][c] for v in group) for c in target}
            total = sum(alpha.values(), Fraction(0))
            violated = {
                "ejr": all(h < total for h in have),
                "ejr1": all(h < total for h in have) and all(x <= total for x in more),
                "pjr": covered < total,
                "pjr1": covered < total and covered_more <= total,
            }
            for axiom, bad in violated.items():
                if bad and axiom not in first:
                    first[axiom] = (group, target, alpha)
            if len(first) == 4:
                return first
    return first


def _literal_core_witness(inst, bundle):
    """The first (group, target) of the core, from the definition: every
    target T, ascending, with S the voters who strictly prefer T to the
    bundle, when S is nonempty and affords T; in Fractions."""
    n = len(inst.voters)
    for target in _ascending(inst.projects):
        group = frozenset(
            v
            for v in inst.voters
            if inst.voter_utility(v, target) > inst.voter_utility(v, bundle)
        )
        if group and len(group) * inst.budget >= inst.cost_of(target) * n:
            return group, target
    return None


def _literal_committee_witnesses(inst, bundle, committee):
    """The first (group, level) of budget-limit PJR (largest owed level,
    cost) and, on a committee instance, of committee PJR (least level,
    seats), from the definitions."""
    n, l = len(inst.voters), inst.budget
    approvals = {v: inst.approval_set(v) for v in inst.voters}
    first = {}
    for group in _ascending(inst.voters):
        inter = frozenset.intersection(*(approvals[v] for v in group))
        selected = frozenset.union(*(approvals[v] for v in group)) & bundle
        owed = min(l, len(group) * l / n, inst.cost_of(inter))
        if "bpjr" not in first and inst.cost_of(selected) < owed:
            first["bpjr"] = (group, owed)
        if committee and "mwvpjr" not in first:
            k = inst.committee_size()
            for ell in range(1, k + 1):
                if len(group) * k >= ell * n and len(inter) >= ell > len(selected):
                    first["mwvpjr"] = (group, ell)
                    break
    return first


def _differential_instance(rng, trial):
    """n, m <= 6: approval, committee (unit costs, integer k) or cardinal
    with fractional utilities, where zeros leave zero-threshold columns."""
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    voters = [f"v{i}" for i in range(n)]
    projects = [f"c{j}" for j in range(m)]
    kind = trial % 3
    if kind == 1:
        cost = {c: 1 for c in projects}
        budget = rng.randint(1, m)
    else:
        cost = {c: Fraction(rng.randint(1, 6), rng.choice((1, 2, 3))) for c in projects}
        budget = Fraction(rng.randint(1, 12), 2)
    levels = ("1",) if kind < 2 else ("1/3", "1/2", "2/3", "3/4", "1")
    utilities = {
        v: {c: rng.choice(levels) for c in projects if rng.random() < 0.6}
        for v in voters
    }
    return PBInstance.build(voters, projects, cost, utilities, budget)


def test_first_witness_matches_definition_literal_search():
    rng = random.Random(20261018)
    seen = {}
    zero_columns = 0
    for trial in range(360):
        inst = _differential_instance(rng, trial)
        bundle = random_bundle(inst, rng)
        w = check_core(inst, bundle).witness
        got = None if w is None else (w.group, w.target)
        assert got == _literal_core_witness(inst, bundle), (trial, "core")
        seen["core", got is None] = seen.get(("core", got is None), 0) + 1
        expected = _literal_cohesive_witnesses(inst, bundle)
        for axiom, verdict in (
            ("ejr", check_ejr(inst, bundle)),
            ("ejr1", check_ejr(inst, bundle, up_to_one=True)),
            ("pjr", check_pjr(inst, bundle)),
            ("pjr1", check_pjr(inst, bundle, up_to_one=True)),
        ):
            w = verdict.witness
            got = None if w is None else (w.group, w.target, w.alpha)
            assert got == expected.get(axiom), (trial, axiom)
            seen[axiom, got is None] = seen.get((axiom, got is None), 0) + 1
            if w is not None and not inst.is_approval:
                zero_columns += any(
                    min(inst.utilities[v][c] for v in w.group) == 0
                    for c in inst.projects
                )
        if not inst.is_approval:
            continue
        committee = trial % 3 == 1
        expected = _literal_committee_witnesses(inst, bundle, committee)
        checks = [("bpjr", check_strong_bpjr)]
        if committee:
            checks.append(("mwvpjr", check_mwv_pjr))
        for axiom, checker in checks:
            w = checker(inst, bundle).witness
            got = None if w is None else (w.group, w.level)
            assert got == expected.get(axiom), (trial, axiom)
            seen[axiom, got is None] = seen.get((axiom, got is None), 0) + 1
    # Both verdicts occur for every axiom, and cardinal witnesses skip
    # zero-threshold projects.
    for axiom in ("core", "ejr", "ejr1", "pjr", "pjr1", "bpjr", "mwvpjr"):
        assert seen.get((axiom, True)) and seen.get((axiom, False)), axiom
    assert zero_columns > 0


def _typed_instance(rng, trial):
    """n = 8 or 9 voters, each a copy of one of 2-4 ballots, so that many
    groups are supersets of a group that cannot violate: approval,
    committee (unit costs, integer k) or cardinal, m <= 5."""
    n, m = rng.randint(8, 9), rng.randint(3, 5)
    voters = [f"v{i}" for i in range(n)]
    projects = [f"c{j}" for j in range(m)]
    kind = trial % 3
    if kind == 1:
        cost = {c: 1 for c in projects}
        budget = rng.randint(1, m)
    else:
        cost = {c: Fraction(rng.randint(1, 6), rng.choice((1, 2, 3))) for c in projects}
        budget = Fraction(rng.randint(1, 16), 2)
    levels = ("1",) if kind < 2 else ("1/3", "1/2", "2/3", "3/4", "1")
    ballots = [
        {c: rng.choice(levels) for c in projects if rng.random() < 0.5}
        for _ in range(rng.randint(2, 4))
    ]
    utilities = {v: dict(rng.choice(ballots)) for v in voters}
    return PBInstance.build(voters, projects, cost, utilities, budget)


def test_first_witness_matches_definition_literal_search_on_repeated_ballots():
    """The skipped groups of ``_group_search`` (supersets of a group that
    cannot violate, and groups whose share buys too few projects) leave
    every first witness as the definitions give it."""
    rng = random.Random(15)
    seen = {}
    for trial in range(24):
        inst = _typed_instance(rng, trial)
        bundle = frozenset(c for c in inst.projects if rng.random() < 0.4)
        committee = trial % 3 == 1
        expected = _literal_cohesive_witnesses(inst, bundle)
        if inst.is_approval:
            expected.update(_literal_committee_witnesses(inst, bundle, committee))
        checks = [
            ("ejr", lambda: check_ejr(inst, bundle)),
            ("ejr1", lambda: check_ejr(inst, bundle, up_to_one=True)),
            ("pjr", lambda: check_pjr(inst, bundle)),
            ("pjr1", lambda: check_pjr(inst, bundle, up_to_one=True)),
        ]
        if inst.is_approval:
            checks.append(("bpjr", lambda: check_strong_bpjr(inst, bundle)))
        if committee:
            checks.append(("mwvpjr", lambda: check_mwv_pjr(inst, bundle)))
        for axiom, checker in checks:
            w = checker().witness
            if w is None:
                got = None
            elif axiom in ("bpjr", "mwvpjr"):
                got = (w.group, w.level)
            else:
                got = (w.group, w.target, w.alpha)
            assert got == expected.get(axiom), (trial, axiom)
            seen[axiom, got is None] = seen.get((axiom, got is None), 0) + 1
    for axiom in ("ejr", "ejr1", "pjr", "pjr1", "bpjr", "mwvpjr"):
        assert seen.get((axiom, True)) and seen.get((axiom, False)), axiom


def test_unanimous_support_over_many_projects_is_satisfied():
    """Every voter approves all 16 unit-cost projects, the budget buys 4 and
    the bundle holds 4: each voter needs 5, while a group of s of the 8
    voters affords at most s / 2 <= 4 projects.  The size bound settles
    each group without walking its 65,535 targets."""
    projects = [f"c{j:02d}" for j in range(16)]
    voters = [f"v{i}" for i in range(8)]
    utilities = {v: dict.fromkeys(projects, 1) for v in voters}
    inst = PBInstance.build(voters, projects, dict.fromkeys(projects, 1), utilities, 4)
    for checker in (check_ejr, check_pjr):
        assert checker(inst, set(projects[:4])).satisfied


def test_size_bound_skips_only_below_the_need():
    """A group of s of the 4 voters affords at most K = s unit-cost
    projects, every approval is 1 and W = {c0}, so EJR and PJR need 2.  The
    pair {v0, v1} meets K * max alpha* = 2 = need exactly and violates with
    T = {c0, c1}; a bound that also skipped at equality would report
    {v0, v1, v2}."""
    voters, projects = ["v0", "v1", "v2", "v3"], ["c0", "c1", "c2", "c3"]
    utilities = {v: dict.fromkeys(projects[:3], 1) for v in voters}
    inst = PBInstance.build(voters, projects, dict.fromkeys(projects, 1), utilities, 4)
    bundle = frozenset({"c0"})
    expected = _literal_cohesive_witnesses(inst, bundle)
    for axiom, checker in (("ejr", check_ejr), ("pjr", check_pjr)):
        w = checker(inst, bundle).witness
        assert (w.group, w.target) == ({"v0", "v1"}, {"c0", "c1"})
        assert (w.group, w.target, w.alpha) == expected[axiom]
