"""Brute-force oracles, affordable-bundle enumeration, and the randomized
counterexample search."""

import random
from fractions import Fraction

import pytest

from pbprop import (
    GeneratorSpec,
    PBInstance,
    enumerate_affordable,
    oracle_axiom,
    random_instance,
    search_counterexample,
)
from pbprop.fixtures import get_fixture
from pbprop.laminar import NotLaminarError, generate_laminar, generate_laminar_mwv
from pbprop.oracle import OracleCapError, fm_feasible, random_bundle
from pbprop.registry import MAIN_CHECKERS


def test_enumerate_affordable_is_exact_and_canonical():
    inst = PBInstance.build(
        voters=["a"],
        projects=["p", "q", "r"],
        cost={"p": 1, "q": 2, "r": 2},
        utilities={"a": {"p": 1}},
        budget=3,
    )
    got = list(enumerate_affordable(inst))
    assert got == [
        frozenset(),
        frozenset({"p"}),
        frozenset({"q"}),
        frozenset({"r"}),
        frozenset({"p", "q"}),
        frozenset({"p", "r"}),
    ]


def test_enumerate_affordable_respects_caps():
    big = PBInstance.build(
        voters=[f"v{i}" for i in range(12)],
        projects=["p"],
        cost={"p": 1},
        utilities={},
        budget=1,
    )
    with pytest.raises(OracleCapError):
        list(enumerate_affordable(big))


def test_fm_feasible_basic():
    assert fm_feasible(["x"], [({"x": Fraction(1)}, Fraction(1))])
    assert not fm_feasible(
        ["x"],
        [({"x": Fraction(1)}, Fraction(-1)), ({"x": Fraction(-1)}, Fraction(-1))],
    )
    # Constant rows decide immediately.
    assert not fm_feasible([], [({}, Fraction(-1))])
    assert fm_feasible([], [({}, Fraction(0))])


def test_oracle_matches_fixture_verdicts():
    quartet = get_fixture("cardinal_quartet")
    assert not oracle_axiom(quartet, {"c2", "c3"}, "pjr").satisfied
    tail = get_fixture("common_tail")
    w = frozenset({"c1", "c2", "c3"})
    assert not oracle_axiom(tail, w, "core").satisfied
    assert not oracle_axiom(tail, w, "ejr").satisfied
    assert oracle_axiom(tail, w, "priceable").satisfied
    split = get_fixture("unit_split")
    c = frozenset({"c1", "c2", "c3", "c4"})
    assert oracle_axiom(split, c, "core").satisfied
    assert not oracle_axiom(split, c, "priceable").satisfied
    assert oracle_axiom(split, c, "mwvpjr").satisfied


def test_oracle_unknown_axiom():
    for axiom in ("nope", "laminarprop"):
        with pytest.raises(ValueError, match=f"^no oracle for axiom '{axiom}'$"):
            oracle_axiom(get_fixture("unit_split"), set(), axiom)


def test_oracle_agrees_with_main_checkers_spot():
    rng = random.Random(4242)
    axioms = ["core", "ejr", "ejr1", "pjr", "pjr1", "priceable"]
    for trial in range(40):
        spec = GeneratorSpec(approval=trial % 2 == 0)
        inst = random_instance(spec, rng)
        w = random_bundle(inst, rng)
        for ax in axioms:
            assert (
                oracle_axiom(inst, w, ax).satisfied
                == MAIN_CHECKERS[ax](inst, w).satisfied
            ), (trial, ax)


def test_core_u_afford_oracle_agrees_on_small_laminar_draws():
    """check_core_u_afford against its oracle, which tries every group and
    target, on laminar draws with n, m <= 6 and random bundles."""
    violated = 0
    for seed in range(60):
        for generate in (generate_laminar, generate_laminar_mwv):
            inst = generate(seed, max_depth=1)
            if len(inst.voters) > 6 or len(inst.projects) > 6:
                continue
            rng = random.Random(seed)
            for _ in range(3):
                w = frozenset(c for c in inst.projects if rng.random() < 0.5)
                verdict = MAIN_CHECKERS["coreuafford"](inst, w)
                oracle = oracle_axiom(inst, w, "coreuafford")
                assert verdict.satisfied == oracle.satisfied, (seed, generate.__name__, w)
                violated += not verdict.satisfied
    assert violated > 100
    with pytest.raises(NotLaminarError, match="^instance is not laminar$"):
        oracle_axiom(get_fixture("common_tail"), set(), "coreuafford")


def test_search_reflexive_implication_finds_nothing():
    spec = GeneratorSpec()
    assert search_counterexample(spec, "pjr", "pjr", trials=50, seed=0) is None


def test_search_is_deterministic():
    spec = GeneratorSpec()
    a = search_counterexample(spec, "priceable", "pjr", trials=100, seed=3)
    b = search_counterexample(spec, "priceable", "pjr", trials=100, seed=3)
    assert a is not None and b is not None
    assert a.trial == b.trial
    assert a.bundle == b.bundle
    assert a.instance == b.instance
    # The found pair really separates the two axioms.
    assert MAIN_CHECKERS["priceable"](a.instance, a.bundle).satisfied
    assert not MAIN_CHECKERS["pjr"](a.instance, a.bundle).satisfied


def test_search_rejects_unknown_axiom_ids():
    with pytest.raises(ValueError):
        search_counterexample(GeneratorSpec(), "pjr", "nope", trials=1, seed=0)


def test_search_raises_errors_that_are_not_preconditions(monkeypatch):
    def broken(inst, w):
        raise ValueError("a fault, not an unmet precondition")

    monkeypatch.setitem(MAIN_CHECKERS, "pjr", broken)
    with pytest.raises(ValueError, match="a fault, not an unmet precondition"):
        search_counterexample(GeneratorSpec(), "pjr", "ejr", trials=5, seed=0)


def test_search_skips_precondition_failures():
    # mwvpjr only applies to committee instances; fractional-cost draws are
    # skipped rather than crashing the search.
    spec = GeneratorSpec()
    result = search_counterexample(spec, "mwvpjr", "mwvpjr", trials=30, seed=0)
    assert result is None
