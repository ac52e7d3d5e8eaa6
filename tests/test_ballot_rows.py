"""Shared utility rows: each distinct ballot is read, validated, grouped and
scored once.  Every test compares against a literal per-voter reference
written here, on instances whose rows are shared, unshared or mixed."""

import copy
import random
from fractions import Fraction
from itertools import combinations

import pytest

from pbprop import PBInstance, binarize, pav, pav_score, validate
from pbprop.io import FormatError, parse_pabulib
from pbprop.model import ONE, ZERO
from pbprop.rules import harmonic


def literal_validate(instance):
    """The per-voter, per-cell check: every problem, in voter then row order."""
    problems = []
    if not instance.voters:
        problems.append("no voters")
    if len(set(instance.voters)) != len(instance.voters):
        problems.append("duplicate voter id")
    if len(set(instance.projects)) != len(instance.projects):
        problems.append("duplicate project id")
    if set(instance.voters) & set(instance.projects):
        problems.append("voter and project ids overlap")
    if instance.budget <= 0:
        problems.append(f"nonpositive budget {instance.budget}")
    for c in instance.projects:
        if c not in instance.cost:
            problems.append(f"missing cost for project {c}")
        elif instance.cost[c] <= 0:
            problems.append(f"nonpositive cost for project {c}")
    for v in instance.voters:
        row = instance.utilities.get(v)
        if row is None:
            problems.append(f"missing utilities for voter {v}")
            continue
        for c, u in row.items():
            if c not in instance.cost:
                problems.append(f"utility for unknown project {c} (voter {v})")
            if not 0 <= u <= 1:
                problems.append(f"utility out of [0,1]: u_{v}({c}) = {u}")
    return problems


def raw_instance(voters, rows, projects=("p", "q", "r")):
    """A PBInstance built directly, so that bad cells reach validate."""
    return PBInstance(
        voters=tuple(voters),
        projects=tuple(projects),
        cost={c: Fraction(1) for c in projects},
        utilities=dict(zip(voters, rows)),
        budget=Fraction(2),
    )


def test_validate_shared_bad_cells_keep_per_voter_messages():
    bad = {"p": Fraction(3, 2), "zz": Fraction(1), "q": Fraction(-1)}
    good = {"p": Fraction(1)}
    voters = ["a", "b", "c", "d", "e"]
    shared = raw_instance(voters, [bad, good, bad, bad, good])
    unshared = raw_instance(voters, [dict(bad), dict(good), dict(bad), dict(bad), dict(good)])
    expected = literal_validate(unshared)
    assert expected == [
        "utility out of [0,1]: u_a(p) = 3/2",
        "utility for unknown project zz (voter a)",
        "utility out of [0,1]: u_a(q) = -1",
        "utility out of [0,1]: u_c(p) = 3/2",
        "utility for unknown project zz (voter c)",
        "utility out of [0,1]: u_c(q) = -1",
        "utility out of [0,1]: u_d(p) = 3/2",
        "utility for unknown project zz (voter d)",
        "utility out of [0,1]: u_d(q) = -1",
    ]
    assert validate(shared).problems == expected
    assert validate(unshared).problems == expected
    assert literal_validate(shared) == expected


def test_validate_matches_per_voter_reference_on_mixed_rows():
    rng = random.Random(23)
    cells = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3), 2]
    for _ in range(300):
        projects = [f"c{j}" for j in range(rng.randint(1, 4))]
        keys = projects + ["zz"]
        pool = []
        rows = []
        voters = [f"v{i}" for i in range(rng.randint(0, 8))]
        for _ in voters:
            pick = rng.random()
            if pool and pick < 0.4:
                row = rng.choice(pool)  # shared object
            elif pool and pick < 0.6:
                row = dict(rng.choice(pool))  # equal content, own object
            else:
                row = {c: rng.choice(cells) for c in keys if rng.random() < 0.6}
                pool.append(row)
            rows.append(row)
        instance = raw_instance(voters, rows, projects)
        if voters and rng.random() < 0.2:
            del instance.utilities[rng.choice(voters)]
        expected = literal_validate(copy.deepcopy(instance))
        assert validate(instance).problems == expected


def test_build_shares_one_normalised_row_per_input_row():
    shared = {"p": "1/2"}
    other = {"q": 1}
    utilities = {"a": shared, "b": other, "c": shared, "d": {"p": "1/2"}}
    inst = PBInstance.build(["a", "b", "c", "d", "e"], ["p", "q"], {"p": 1, "q": 1}, utilities, 2)
    per_voter = PBInstance.build(
        ["a", "b", "c", "d", "e"],
        ["p", "q"],
        {"p": 1, "q": 1},
        {v: dict(row) for v, row in utilities.items()},
        2,
    )
    assert inst == per_voter
    rows = inst.utilities
    assert rows["a"] is rows["c"]
    assert rows["a"] is not rows["d"] and rows["a"] == rows["d"]
    assert rows["b"] is not rows["a"]
    assert rows["e"] == {"p": 0, "q": 0}


PB_HEAD = """META
key;value
description;shared ballots
vote_type;approval
budget;30
PROJECTS
project_id;cost
p1;10
p2;12
p3;7
p4;9
VOTES
voter_id;vote
"""


def literal_pabulib(text):
    """Per-voter build of a well-formed .pb file: one fresh row per voter."""
    head, votes = text.split("voter_id;vote\n")
    lines = head.splitlines()
    cost = {}
    for line in lines[lines.index("project_id;cost") + 1 : lines.index("VOTES")]:
        pid, c = line.split(";")
        cost[pid] = c
    voters, utilities = [], {}
    for line in votes.splitlines():
        vid, vote = line.split(";")
        voters.append(vid)
        utilities[vid] = {p: 1 for p in vote.split(",") if p}
    return PBInstance.build(voters, list(cost), cost, utilities, 30, "shared ballots")


def test_parse_pabulib_splits_each_vote_string_once():
    votes = ["p1,p2", "p2,p1", "p1,p2", "p3,p3", "", "p1,p2", "p3,p3", "p2,p1,p4", ""]
    text = PB_HEAD + "".join(f"v{i};{vote}\n" for i, vote in enumerate(votes))
    inst = parse_pabulib(text)
    assert inst == literal_pabulib(text)
    assert len({id(row) for row in inst.utilities.values()}) == len(set(votes))
    assert inst.utilities["v0"] is inst.utilities["v2"] is inst.utilities["v5"]
    assert inst.utilities["v0"] is not inst.utilities["v1"]
    assert inst.utilities["v0"] == inst.utilities["v1"]
    assert inst.approval_set("v3") == frozenset({"p3"})


def test_parse_pabulib_matches_per_voter_build_on_random_files():
    rng = random.Random(29)
    projects = ["p1", "p2", "p3", "p4"]
    for _ in range(200):
        pool = []
        for _ in range(rng.randint(1, 5)):
            ballot = [rng.choice(projects) for _ in range(rng.randint(0, 4))]
            pool.append(",".join(ballot))
        n = rng.randint(1, 12)
        votes = [rng.choice(pool) for _ in range(n)]
        text = PB_HEAD + "".join(f"v{i:02d};{vote}\n" for i, vote in enumerate(votes))
        inst = parse_pabulib(text)
        assert inst == literal_pabulib(text)
        assert len({id(row) for row in inst.utilities.values()}) == len(set(votes))


def test_parse_pabulib_unknown_project_names_first_voter_with_that_vote():
    text = PB_HEAD + "a;p1\nb;p2,zz\nc;p1\nd;p2,zz\n"
    with pytest.raises(FormatError, match=r"voter b approves unknown project 'zz'"):
        parse_pabulib(text)


def literal_types(instance):
    """Content keying, voter by voter."""
    index, type_of = {}, {}
    for v in instance.voters:
        key = tuple((c, u) for c, u in instance.utilities[v].items() if u)
        type_of[v] = index.setdefault(key, len(index))
    sizes = [list(type_of.values()).count(k) for k in range(len(index))]
    members = [
        [(i, v, k) for i, (v, kk) in enumerate(type_of.items()) if kk == k]
        for k in range(len(index))
    ]
    return [dict(key) for key in index], sizes, type_of, members


def test_ballot_types_match_content_keying():
    rng = random.Random(31)
    levels = [Fraction(0), Fraction(1, 2), Fraction(1)]
    for trial in range(300):
        projects = [f"c{j}" for j in range(rng.randint(1, 4))]
        pool, utilities = [], {}
        voters = [f"v{i}" for i in range(rng.randint(1, 10))]
        for v in voters:
            pick = rng.random()
            if pool and pick < 0.5:
                row = rng.choice(pool)
            elif pool and pick < 0.7:
                row = dict(rng.choice(pool))
            else:
                row = {c: rng.choice(levels) for c in projects}
                pool.append(row)
            utilities[v] = row
        if trial % 3 == 0:  # nothing shared
            utilities = copy.deepcopy(utilities)
        inst = PBInstance(
            tuple(voters),
            tuple(projects),
            {c: Fraction(1) for c in projects},
            utilities,
            Fraction(2),
        )
        rows, sizes, type_of, members = inst.ballot_types
        assert (rows, sizes, type_of, members) == literal_types(inst)
        assert list(type_of) == voters
        for k, entries in enumerate(members):
            assert sizes[k] == len(entries)
            assert [i for i, _, _ in entries] == sorted(i for i, _, _ in entries)
            assert [voters[i] for i, _, _ in entries] == [v for _, v, _ in entries]


def test_ballot_types_table_is_cached_and_invisible():
    """The table is computed once per instance, changes neither == nor
    repr, is recomputed for a binarized instance from its own rows, and
    gives is_approval its cell-by-cell meaning."""
    rng = random.Random(43)
    shared = [ZERO, ONE]
    verdicts = set()
    for trial in range(200):
        projects = [f"c{j}" for j in range(rng.randint(1, 4))]
        voters = [f"v{i}" for i in range(rng.randint(1, 8))]
        cells = shared + [Fraction(0), Fraction(1), 0, 1]
        if trial % 2:
            cells.append(Fraction(1, 2))
        pool = [{c: rng.choice(cells) for c in projects} for _ in range(rng.randint(1, 3))]
        utilities = {
            v: rng.choice(pool) if rng.random() < 0.5 else dict(rng.choice(pool))
            for v in voters
        }
        fields = (tuple(voters), tuple(projects), dict.fromkeys(projects, ONE), utilities, Fraction(2))
        inst, twin = PBInstance(*fields), PBInstance(*fields)
        text = repr(inst)
        table = inst.ballot_types
        assert inst.ballot_types is table
        assert inst == twin and repr(inst) == text
        literal = all(u in (0, 1) for v in voters for u in utilities[v].values())
        assert inst.is_approval == literal
        verdicts.add(literal)
        approval = binarize(inst, rng.choice(["1/2", "1"]))
        assert approval.ballot_types is not table
        assert approval.ballot_types == literal_types(approval)
    assert verdicts == {True, False}


def literal_pav(instance):
    """Per-voter PAV: every affordable bundle, every voter's H(hits)."""
    scores = {}
    for r in range(len(instance.projects) + 1):
        for combo in combinations(instance.projects, r):
            if instance.cost_of(combo) <= instance.budget:
                hits = [sum(instance.utilities[v][c] == 1 for c in combo) for v in instance.voters]
                scores[combo] = sum((harmonic(j) for j in hits), Fraction(0))
    best = max(scores.values())
    ties = sorted(combo for combo, s in scores.items() if s == best)
    return frozenset(ties[0]), best, ties, scores


def test_pav_per_type_matches_per_voter_score():
    rng = random.Random(37)
    for _ in range(150):
        projects = [f"c{j}" for j in range(rng.randint(1, 6))]
        pool = [
            frozenset(c for c in projects if rng.random() < 0.5)
            for _ in range(rng.randint(1, 4))
        ]
        voters = [f"v{i}" for i in range(rng.randint(1, 9))]
        utilities = {v: {c: 1 for c in rng.choice(pool)} for v in voters}
        inst = PBInstance.build(
            voters,
            projects,
            {c: Fraction(rng.randint(1, 6), rng.randint(1, 2)) for c in projects},
            utilities,
            Fraction(rng.randint(1, 12), rng.randint(1, 3)),
        )
        winner, best, ties, scores = literal_pav(inst)
        assert pav(inst) == (winner, best)
        assert pav(inst, collect_ties=True) == (winner, best, ties)
        for combo, score in scores.items():
            assert pav_score(inst, combo) == score


def test_binarize_keeps_rows_shared():
    shared = {"p": "1/2", "q": "1/4"}
    inputs = [
        {"a": shared, "b": {"p": "3/4"}, "c": shared},
        # Equal rows built apart fall into one ballot type, so share one row.
        {"a": {"p": Fraction(2, 4)}, "b": {"p": "3/4"}, "c": {"p": "1/2"}},
    ]
    for utilities in inputs:
        inst = PBInstance.build(["a", "b", "c"], ["p", "q"], {"p": 1, "q": 1}, utilities, 2)
        approval = binarize(inst, "1/2")
        rows = approval.utilities
        assert rows["a"] is rows["c"] and rows["a"] is not rows["b"]
        for v, row in inst.utilities.items():
            assert rows[v] == {c: Fraction(1 if u >= Fraction(1, 2) else 0) for c, u in row.items()}
        assert rows["a"]["p"] is rows["b"]["p"]
        assert rows["a"]["q"] is rows["b"]["q"]
