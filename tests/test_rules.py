"""Voting rules: documented outcomes on the shipped fixtures plus
payment-flow invariants on random instances."""

import random
from fractions import Fraction

import pytest

from pbprop import (
    GeneratorSpec,
    binarize,
    enumerate_affordable,
    harmonic,
    pav,
    pav_score,
    phragmen,
    random_instance,
    rule_x,
)
from pbprop.fixtures import get_fixture
from pbprop.oracle import oracle_rule_x
from pbprop.rules import (
    STOP_BUDGET,
    STOP_NO_PROJECT,
    EnumerationCapError,
    NotApprovalError,
    min_rho,
)


def quartet_approval():
    return binarize(get_fixture("cardinal_quartet"), "3/10")


def test_phragmen_quartet_trace():
    winners, trace = phragmen(quartet_approval())
    assert winners == frozenset({"c2", "c4"})
    assert [e.time for e in trace.events] == [Fraction(1, 10), Fraction(11, 40)]
    assert [e.project for e in trace.events] == ["c2", "c4"]
    assert trace.stop_reason == STOP_BUDGET
    assert trace.stop_time == Fraction(31, 80)


def test_phragmen_payments_cover_costs():
    inst = quartet_approval()
    _, trace = phragmen(inst)
    for event in trace.events:
        assert sum(event.payments.values()) == inst.cost[event.project]
        assert all(p >= 0 for p in event.payments.values())


def test_phragmen_requires_approval():
    with pytest.raises(NotApprovalError):
        phragmen(get_fixture("cardinal_quartet"))


def test_phragmen_no_supporters_stops_cleanly():
    from pbprop import PBInstance

    inst = PBInstance.build(
        voters=["a"],
        projects=["p", "q"],
        cost={"p": 1, "q": 1},
        utilities={"a": {}},
        budget=2,
    )
    winners, trace = phragmen(inst)
    assert winners == frozenset()
    assert trace.stop_reason != STOP_BUDGET


def test_harmonic_prefix_sums():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)


def test_pav_quartet_scores():
    inst = quartet_approval()
    winners, score = pav(inst)
    assert winners == frozenset({"c2", "c3"})
    assert score == Fraction(9, 2)
    assert pav_score(inst, {"c1", "c4"}) == Fraction(7, 2)
    assert pav_score(inst, {"c1", "c2"}) == 4
    assert pav_score(inst, {"c2", "c4"}) == 4


def test_pav_collects_ties():
    from pbprop import PBInstance

    inst = PBInstance.build(
        voters=["a", "b"],
        projects=["p", "q"],
        cost={"p": 1, "q": 1},
        utilities={"a": {"p": 1}, "b": {"q": 1}},
        budget=1,
    )
    winner, score, ties = pav(inst, collect_ties=True)
    assert winner == frozenset({"p"})
    assert score == 1
    assert ties == [("p",), ("q",)]


def test_pav_project_cap(monkeypatch):
    from pbprop import config

    monkeypatch.setattr(config, "PAV_MAX_PROJECTS", 2)
    with pytest.raises(EnumerationCapError):
        pav(quartet_approval())


def test_pav_matches_exhaustive_maximization():
    rng = random.Random(7)
    spec = GeneratorSpec()
    for _ in range(50):
        inst = random_instance(spec, rng)
        winner, score = pav(inst)
        best = max(pav_score(inst, w) for w in enumerate_affordable(inst))
        assert score == best
        assert pav_score(inst, winner) == best


def test_min_rho_breakpoint_walk():
    from pbprop import PBInstance

    inst = PBInstance.build(
        voters=["a", "b"],
        projects=["p"],
        cost={"p": 1},
        utilities={"a": {"p": 1}, "b": {"p": "1/2"}},
        budget=2,
    )
    # Both can pay u * rho until a hits its share cap of 1.
    assert min_rho(inst, {}, "p") == Fraction(2, 3)
    # With a's share spent, b alone covers the cost with its whole share.
    assert min_rho(inst, {"a": Fraction(1)}, "p") == 2
    assert min_rho(inst, {"a": Fraction(1), "b": Fraction(1, 2)}, "p") is None


def test_rule_x_quartet_trace():
    inst = get_fixture("cardinal_quartet")
    winners, trace = rule_x(inst)
    assert winners == frozenset({"c1", "c4"})
    assert [r.rho for r in trace.rounds] == [Fraction(7, 32), Fraction(2, 9)]
    spent = sum(p for r in trace.rounds for p in r.payments.values())
    assert inst.budget - spent == Fraction(1, 4)


def test_rule_x_respects_shares():
    rng = random.Random(11)
    for trial in range(60):
        spec = GeneratorSpec(approval=trial % 2 == 0)
        inst = random_instance(spec, rng)
        winners, trace = rule_x(inst)
        share = inst.budget / len(inst.voters)
        paid = {v: Fraction(0) for v in inst.voters}
        for r in trace.rounds:
            assert sum(r.payments.values()) == inst.cost[r.project]
            for v, p in r.payments.items():
                assert p > 0
                paid[v] += p
        assert all(paid[v] <= share for v in inst.voters)
        assert inst.cost_of(winners) <= inst.budget


def test_phragmen_within_budget_on_random_instances():
    rng = random.Random(13)
    spec = GeneratorSpec()
    for _ in range(60):
        inst = random_instance(spec, rng)
        winners, trace = phragmen(inst)
        assert inst.cost_of(winners) <= inst.budget
        times = [e.time for e in trace.events]
        assert times == sorted(times)


def repeated_ballots_instance(rng, approval, many_rounds=False):
    """A small instance in which voters often copy an earlier voter's row,
    sometimes with one utility changed.  With ``many_rounds``, at most 6
    voters and 8-12 projects that share two or three costs and the budget is a quarter to all
    of their total cost, so the rules run many rounds and meet many ties."""
    from pbprop import PBInstance

    projects = [f"c{j}" for j in range(rng.randint(8, 12) if many_rounds else rng.randint(1, 5))]
    levels = [Fraction(0), Fraction(1)] if approval else [Fraction(k, 4) for k in range(5)]
    rows = []
    for _ in range(rng.randint(1, 6 if many_rounds else 8)):
        if rows and rng.random() < 0.6:
            row = dict(rng.choice(rows))
            if rng.random() < 0.3:
                c = rng.choice(projects)
                row[c] = rng.choice([u for u in levels if u != row[c]])
        else:
            row = {c: rng.choice(levels) for c in projects}
        rows.append(row)
    if many_rounds:
        pool = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        cost = {c: rng.choice(pool) for c in projects}
        budget = sum(cost.values()) * Fraction(rng.randint(1, 4), 4)
    else:
        cost = {c: Fraction(rng.randint(1, 8), rng.randint(1, 4)) for c in projects}
        budget = Fraction(rng.randint(1, 12), rng.randint(1, 3))
    return PBInstance.build(
        voters=[f"v{i}" for i in range(len(rows))],
        projects=projects,
        cost=cost,
        utilities={f"v{i}": row for i, row in enumerate(rows)},
        budget=budget,
    )


def test_rule_x_matches_capped_set_oracle(monkeypatch):
    from pbprop import config

    # The oracle is exponential in the voters only; admit 12 projects.
    monkeypatch.setattr(config, "ORACLE_MAX_BITS", 12)
    rng = random.Random(17)
    rounds_seen = ties_seen = 0
    for trial in range(500):
        many_rounds = trial >= 300
        inst = repeated_ballots_instance(rng, trial % 2 == 0, many_rounds)
        winners, trace = rule_x(inst, collect_ties=True)
        bundle, rounds = oracle_rule_x(inst)
        assert winners == bundle
        got = [(r.rho, r.project, r.payments, r.tied_with) for r in trace.rounds]
        assert got == rounds
        for (_, _, payments, _), r in zip(rounds, trace.rounds):
            assert list(r.payments) == list(payments)
        if many_rounds:
            rounds_seen += len(rounds)
            ties_seen += sum(bool(r.tied_with) for r in trace.rounds)
    # The many-round instances exercise the lazy re-pricing of later rounds.
    assert rounds_seen >= 1000 and ties_seen >= 300


def test_rule_x_payment_self_check_covers_every_voter(monkeypatch):
    from pbprop import rules
    from pbprop.model import CertificateError

    per_voter = rules._per_voter

    def overcharge_last_voter(type_of, amounts):
        payments = per_voter(type_of, amounts)
        last = list(payments)[-1]
        payments[last] += Fraction(1, 1000)
        return payments

    monkeypatch.setattr(rules, "_per_voter", overcharge_last_voter)
    with pytest.raises(CertificateError, match="do not sum to its cost"):
        rule_x(get_fixture("cardinal_quartet"))


def literal_phragmen(inst):
    """Phragmen voter by voter: every voter earns one unit of money per
    unit of time; at each step the project whose approvers first hold its
    cost together is bought at that moment and their balances drop to 0."""
    reset = {v: Fraction(0) for v in inst.voters}
    bought, events, spent, now = [], [], Fraction(0), Fraction(0)
    while True:
        offers = []
        for c in inst.projects:
            approvers = [v for v in inst.voters if inst.utilities[v][c] == 1]
            if c in bought or not approvers:
                continue
            # sum over approvers of (t - reset[v]) = cost(c), solved for t
            t = (inst.cost[c] + sum(reset[v] for v in approvers)) / len(approvers)
            assert sum(t - reset[v] for v in approvers) == inst.cost[c]
            offers.append((t, c, approvers))
        if not offers:
            return bought, events, now, STOP_NO_PROJECT
        offers.sort(key=lambda offer: offer[:2])
        t, c, approvers = offers[0]
        if spent + inst.cost[c] > inst.budget:
            return bought, events, t, STOP_BUDGET
        tied = tuple(d for s, d, _ in offers[1:] if s == t)
        events.append((t, c, {v: t - reset[v] for v in approvers}, tied))
        for v in approvers:
            reset[v] = t
        bought.append(c)
        spent += inst.cost[c]
        now = t


def test_phragmen_matches_per_voter_simulation():
    rng = random.Random(19)
    events_seen = ties_seen = 0
    for trial in range(500):
        many_rounds = trial >= 300
        inst = repeated_ballots_instance(rng, True, many_rounds)
        winners, trace = phragmen(inst, collect_ties=True)
        bought, events, stop_time, stop_reason = literal_phragmen(inst)
        assert winners == frozenset(bought)
        got = [(e.time, e.project, e.payments, e.tied_with) for e in trace.events]
        assert got == events
        for (_, _, payments, _), e in zip(events, trace.events):
            assert list(e.payments) == list(payments)
        assert (trace.stop_time, trace.stop_reason) == (stop_time, stop_reason)
        if many_rounds:
            events_seen += len(events)
            ties_seen += sum(bool(e.tied_with) for e in trace.events)
    # The many-round instances exercise the lazy re-pricing of later rounds.
    assert events_seen >= 1000 and ties_seen >= 300


@pytest.mark.parametrize(
    "cells",
    [
        [Fraction(2, 4), "1/2", Fraction(1, 2)],  # utilities in halves
        [1, "1", Fraction(1)],  # unshared copies of one approval row
    ],
    ids=["halves", "approval-copies"],
)
def test_ballot_types_merge_equal_rows_built_apart(cells):
    """Every reader of the ballot-type table sees one type for equal rows
    built apart: the rules, ``binarize``, ``_encode`` and the LP."""
    from pbprop import PBInstance
    from pbprop.axioms import _encode, priceability_system

    voters = ["v1", "v2", "v3"]
    inst = PBInstance.build(
        voters=voters,
        projects=["p", "q", "r"],
        cost={"p": 1, "q": "3/2", "r": 4},
        utilities={v: {"p": u, "q": u} for v, u in zip(voters, cells)},
        budget=3,
    )
    rows = [inst.utilities[v] for v in voters]
    assert len({id(row) for row in rows}) == 3
    assert len({id(row["p"]) for row in rows}) == 3
    types, sizes, type_of = inst.ballot_types
    assert sizes == [3] and list(type_of) == voters
    assert type_of == dict.fromkeys(voters, 0)
    approval = binarize(inst, "1/2")
    assert approval.utilities["v1"] is approval.utilities["v2"] is approval.utilities["v3"]
    rows, supports, _ = _encode(inst, frozenset())
    assert rows[0] == rows[1] == rows[2] and supports[0] == supports[1] == supports[2]
    system = priceability_system(inst, {"p"})

    def pattern(v):  # the voter's payment variables, and where each occurs
        mine = f"p[{v}]"
        names = [x.replace(mine, "p[*]") for x in system.variables if x.startswith(mine)]
        rows = [
            sorted((x.replace(mine, "p[*]"), a) for x, a in con.coeffs.items() if x.startswith(mine))
            for con in system.constraints
        ]
        return names, [row for row in rows if row]

    assert pattern("v1") == pattern("v2") == pattern("v3") != ([], [])
    winners, trace = rule_x(inst, collect_ties=True)
    bundle, rounds = oracle_rule_x(inst)
    assert winners == bundle and trace.rounds
    assert [(r.rho, r.project, r.payments, r.tied_with) for r in trace.rounds] == rounds
    for (_, _, payments, _), r in zip(rounds, trace.rounds):
        assert list(r.payments) == list(payments) == voters
    if inst.is_approval:
        winners, trace = phragmen(inst, collect_ties=True)
        bought, events, stop_time, stop_reason = literal_phragmen(inst)
        assert winners == frozenset(bought) and trace.events
        got = [(e.time, e.project, e.payments, e.tied_with) for e in trace.events]
        assert got == events
        for (_, _, payments, _), e in zip(events, trace.events):
            assert list(e.payments) == list(payments) == voters
        assert (trace.stop_time, trace.stop_reason) == (stop_time, stop_reason)


def test_payments_follow_voter_order_of_a_directly_built_instance():
    """A PBInstance built directly may list its voters out of id order;
    the rules' payment dicts still list the payers in ``instance.voters``
    order, with the ballot types interleaved along it."""
    from pbprop import PBInstance
    from pbprop.model import ONE, ZERO

    left = {"a": ONE, "b": ONE, "c": ZERO}
    right = {"a": ZERO, "b": ONE, "c": ONE}
    voters = ("v3", "v1", "v4", "v0", "v2")
    rows = dict(zip(voters, [left, right, left, right, left]))
    inst = PBInstance(
        voters, ("a", "b", "c"), {"a": Fraction(2), "b": Fraction(5), "c": Fraction(2)},
        rows, Fraction(9),
    )
    winners, trace = phragmen(inst, collect_ties=True)
    bought, events, _, _ = literal_phragmen(inst)
    assert winners == frozenset(bought) and "b" in winners
    assert [(e.time, e.project, e.payments, e.tied_with) for e in trace.events] == events
    for e in trace.events:
        assert list(e.payments) == [v for v in voters if v in e.payments]
    assert list(next(e for e in trace.events if e.project == "b").payments) == list(voters)
    winners, trace = rule_x(inst, collect_ties=True)
    bundle, rounds = oracle_rule_x(inst)
    assert winners == bundle and "b" in winners
    assert [(r.rho, r.project, r.payments, r.tied_with) for r in trace.rounds] == rounds
    for r in trace.rounds:
        assert list(r.payments) == [v for v in voters if v in r.payments]
    assert list(next(r for r in trace.rounds if r.project == "b").payments) == list(voters)
