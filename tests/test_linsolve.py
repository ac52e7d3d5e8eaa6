"""Exact LP feasibility, cross-checked against an independent
Fourier-Motzkin decision of the same systems."""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from pbprop import config, linsolve
from pbprop.axioms import priceability_system
from pbprop.linsolve import (
    EQ,
    GEQ,
    LEQ,
    Constraint,
    LinearSystem,
    ResourceLimitError,
    lp_feasible,
)
from pbprop.model import CertificateError
from pbprop.oracle import GeneratorSpec, fm_feasible, random_instance


def system(variables, rows, nonneg=()):
    sys_ = LinearSystem()
    for v in variables:
        sys_.add_variable(v, nonneg=v in nonneg)
    for coeffs, rel, rhs in rows:
        sys_.add(coeffs, rel, rhs)
    return sys_


def test_empty_system_is_feasible():
    res = lp_feasible(system(["x"], []))
    assert res.feasible and res.assignment == {"x": 0}


def test_simple_feasible_with_witness():
    sys_ = system(
        ["x", "y"],
        [
            ({"x": 1, "y": 1}, EQ, 2),
            ({"x": 1, "y": -1}, LEQ, 0),
            ({"x": 1}, GEQ, Fraction(1, 2)),
        ],
    )
    res = lp_feasible(sys_)
    assert res.feasible
    assert sys_.satisfied_by(res.assignment)


def test_simple_infeasible():
    sys_ = system(
        ["x"],
        [({"x": 1}, GEQ, 3), ({"x": 1}, LEQ, 2)],
    )
    assert not lp_feasible(sys_).feasible


def test_nonneg_declaration_is_enforced():
    free = system(["x"], [({"x": 1}, LEQ, -1)])
    assert lp_feasible(free).feasible
    bounded = system(["x"], [({"x": 1}, LEQ, -1)], nonneg={"x"})
    assert not lp_feasible(bounded).feasible


def test_negative_rhs_rows():
    sys_ = system(
        ["x", "y"],
        [({"x": 1, "y": 2}, EQ, -3), ({"x": -1}, LEQ, -5)],
    )
    res = lp_feasible(sys_)
    assert res.feasible
    assert res.assignment["x"] >= 5


def test_satisfied_by_decides_each_relation_exactly():
    # Mixed denominators on both sides; the boundary point holds for every
    # relation, and a point off it by 1/105 fails exactly the relations it
    # crosses.
    sys_ = LinearSystem()
    for v in ("x", "y"):
        sys_.add_variable(v)
    coeffs = {"x": Fraction(2, 3), "y": Fraction(-1, 5)}
    rhs = Fraction(1, 7)  # met at x = 3/7, y = 5/7
    on = {"x": Fraction(3, 7), "y": Fraction(5, 7)}
    above = {"x": Fraction(3, 7), "y": Fraction(5, 7) - Fraction(1, 21)}
    below = {"x": Fraction(3, 7), "y": Fraction(5, 7) + Fraction(1, 21)}
    for relation, holds in (
        (LEQ, (True, False, True)),
        (GEQ, (True, True, False)),
        (EQ, (True, False, False)),
    ):
        one = LinearSystem(["x", "y"])
        one.add(coeffs, relation, rhs)
        assert [one.satisfied_by(p) for p in (on, above, below)] == list(holds), relation
        sys_.add(coeffs, relation, rhs)
    assert sys_.satisfied_by(on) and not sys_.satisfied_by(above)
    assert not sys_.satisfied_by(below)
    # Whole numbers pass as well as Fractions; a missing variable is an error.
    assert system(["x"], [({"x": 2}, EQ, 4)]).satisfied_by({"x": 2})
    with pytest.raises(KeyError):
        system(["x"], [({"x": 2}, EQ, 4)]).satisfied_by({})


def test_duplicate_variable_rejected():
    sys_ = LinearSystem()
    sys_.add_variable("x")
    with pytest.raises(ValueError):
        sys_.add_variable("x")


def test_undeclared_variable_rejected():
    sys_ = LinearSystem()
    sys_.add_variable("x")
    with pytest.raises(ValueError):
        sys_.add({"y": 1}, LEQ, 0)


def test_bad_relation_rejected():
    sys_ = LinearSystem()
    sys_.add_variable("x")
    with pytest.raises(ValueError):
        sys_.add({"x": 1}, "<", 0)


def test_variable_cap(monkeypatch):
    monkeypatch.setattr(config, "LP_MAX_VARS", 2)
    sys_ = system(["a", "b", "c"], [({"a": 1}, LEQ, 0)])
    with pytest.raises(ResourceLimitError):
        lp_feasible(sys_)
    # The constraint cap, lowered below the row count, is checked as well.
    monkeypatch.setattr(config, "LP_MAX_VARS", 3)
    monkeypatch.setattr(config, "LP_MAX_CONSTRAINTS", 1)
    sys_.add({"b": 1}, LEQ, 0)
    with pytest.raises(ResourceLimitError, match="^2 constraints exceeds cap 1$"):
        lp_feasible(sys_)


def test_failed_read_back_raises(monkeypatch):
    """The point read off the tableau is checked against the system with a
    plain ``if``, so a kernel fault is an error, never a verdict."""
    monkeypatch.setattr(linsolve, "_satisfies", lambda rows, assignment: False)
    with pytest.raises(CertificateError, match="^simplex assignment violates the system$"):
        lp_feasible(system(["x"], [({"x": 1}, GEQ, 1)]))


def test_dantzig_cycle_hands_over_to_bland(monkeypatch):
    """Beale's (1955) cycling example, recast as phase I.  Its two
    degenerate rows enter as equalities whose artificials play Beale's
    slacks x1, x2, and a third row 2*y6 - 18*y7 = 1 (artificial x3) makes
    the phase-I objective, the sum of the rows, Beale's costs negated:
    (3/4, -20, 1/2, -6) on y4..y7.  Dantzig's rule with lowest-index ties
    then cycles through degenerate pivots for its whole budget of
    20 * (rows + columns) = 200 iterations, and Bland's rule ends the run."""
    pivots = []
    reduce = linsolve._reduced

    def counted_reduce(row, rhs, den):
        if sys._getframe(1).f_code.co_name == "lp_feasible":
            pivots.append(den)  # the starting objective, then each pivot row
        return reduce(row, rhs, den)

    monkeypatch.setattr(linsolve, "_reduced", counted_reduce)
    variables = ["y4", "y5", "y6", "y7"]
    sys_ = system(
        variables,
        [
            ({"y4": Fraction(1, 4), "y5": -8, "y6": -1, "y7": 9}, EQ, 0),
            ({"y4": Fraction(1, 2), "y5": -12, "y6": Fraction(-1, 2), "y7": 3}, EQ, 0),
            ({"y6": 2, "y7": -18}, EQ, 1),
        ],
        nonneg=variables,
    )
    result = lp_feasible(sys_)
    assert len(pivots) - 1 > 20 * (3 + 4 + 3)
    assert result.feasible and fm_feasible(variables, _as_fm_rows(sys_))
    assert sys_.satisfied_by(result.assignment)


def _as_fm_rows(sys_):
    """Rewrite a LinearSystem as pure <= rows for the independent decider."""
    rows = []
    for con in sys_.constraints:
        if con.relation in (LEQ, EQ):
            rows.append((dict(con.coeffs), con.rhs))
        if con.relation in (GEQ, EQ):
            rows.append(({v: -c for v, c in con.coeffs.items()}, -con.rhs))
    for v in sys_.nonneg:
        rows.append(({v: Fraction(-1)}, Fraction(0)))
    return rows


def _integer_rows(rng, variables):
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = {v: Fraction(rng.randint(-3, 3)) for v in variables}
        rows.append((coeffs, rng.choice([LEQ, EQ, GEQ]), Fraction(rng.randint(-4, 4))))
    return rows


def _mixed_rows(rng, variables):
    """Coefficients over mixed denominators, negative right-hand sides and
    EQ/GEQ mixes, up to 6 rows, sometimes with an all-zero row."""

    def value():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 5, 6, 7]))

    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = {v: value() for v in variables if rng.random() < 0.8}
        rows.append((coeffs, rng.choice([EQ, GEQ, GEQ, LEQ]), value()))
    if rng.random() < 0.25:
        zero = {v: Fraction(0) for v in variables}
        rows[rng.randrange(len(rows))] = (zero, rng.choice([LEQ, EQ, GEQ]), value())
    return rows


# sha256 of the points of the trials below: free variables, EQ/GEQ/LEQ
# rows and negative right-hand sides, so the pivot rules are pinned beyond
# the nonnegative priceability systems of GOLDEN_VERTICES.
GOLDEN_GENERAL_VERTICES = "f88d21102758109212adfab46943a47e8cd7083bd66d28397eca750f431d033d"


def test_cross_check_against_fourier_motzkin():
    lines = []
    for seed, trials, max_vars, draw_rows in [
        (20240817, 250, 3, _integer_rows),
        (20261018, 300, 4, _mixed_rows),
    ]:
        rng = random.Random(seed)
        verdicts = set()
        for trial in range(trials):
            variables = [f"x{i}" for i in range(rng.randint(1, max_vars))]
            nonneg = {v for v in variables if rng.random() < 0.5}
            sys_ = system(variables, draw_rows(rng, variables), nonneg=nonneg)
            got = lp_feasible(sys_)
            want = fm_feasible(variables, _as_fm_rows(sys_))
            assert got.feasible == want, f"{draw_rows.__name__} trial {trial}"
            if got.feasible:
                assert sys_.satisfied_by(got.assignment)
            verdicts.add(want)
            lines.append(f"{draw_rows.__name__} {trial} {_point(got)}")
        assert verdicts == {True, False}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_GENERAL_VERTICES


# sha256 of the vertices below.  The certificates `pbprop check priceable`
# prints are these vertices, so a change to how rows are scaled into the
# tableau, to the pivot rules or to the read-back must keep this digest.
GOLDEN_VERTICES = "5715fb6e643efbfa0390d87a13b6c1891965c23563d191815b54b998fe25b9f8"


def _priceability_draws(rng, trials):
    """(trial, system) for seeded priceability systems: approval and
    cardinal instances of up to 12 voters and 8 projects, random bundles,
    b >= 1 on every third."""
    for trial in range(trials):
        spec = GeneratorSpec(
            max_voters=12,
            max_projects=8,
            approval=trial % 2 == 0,
            utility_denominator=rng.choice((2, 3, 4, 6)),
        )
        inst = random_instance(spec, rng)
        bundle = [c for c in inst.projects if rng.random() < 0.5]
        yield trial, priceability_system(inst, bundle, b_min_one=trial % 3 == 0)


def _point(result):
    if not result.feasible:
        return "infeasible"
    return " ".join(f"{v}={x}" for v, x in sorted(result.assignment.items()))


def test_priceability_vertices_are_pinned():
    rng = random.Random(20261018)
    lines = [
        f"{trial} {_point(lp_feasible(sys_))}"
        for trial, sys_ in _priceability_draws(rng, 300)
    ]
    assert sum(line.endswith("infeasible") for line in lines) == 64
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_VERTICES


def test_rows_off_lowest_terms_give_the_same_vertex(monkeypatch):
    """The kernel leaves rows other than the pivot row off lowest terms
    until their denominator passes ``linsolve._REDUCE_ABOVE``.  That is
    exact only if a tableau row times a positive integer k (its entries,
    right-hand side and denominator alike, so the same real row) leads to
    the same pivots.  Here every constraint's row enters the tableau k
    times over, and neither the verdict nor the point may move.  (Scaling
    a constraint's coefficients and right-hand side instead is a different
    tableau row, whose slack and artificial keep their coefficient, and
    may give another vertex.)"""
    rng = random.Random(20261019)
    draws = [
        system(
            variables,
            _mixed_rows(rng, variables),
            nonneg={v for v in variables if rng.random() < 0.5},
        )
        for variables in ([f"x{i}" for i in range(rng.randint(1, 4))] for _ in range(200))
    ]
    draws += [sys_ for _, sys_ in _priceability_draws(rng, 100)]
    plain = [lp_feasible(sys_) for sys_ in draws]
    assert {result.feasible for result in plain} == {True, False}

    factors = {id(con): rng.randint(2, 10**6) for sys_ in draws for con in sys_.constraints}
    scaled = Constraint.scaled

    def scaled_up(con):
        entries, rhs, den = scaled(con)
        k = factors[id(con)]
        return {v: a * k for v, a in entries.items()}, rhs * k, den * k

    monkeypatch.setattr(Constraint, "scaled", scaled_up)
    for trial, (sys_, want) in enumerate(zip(draws, plain)):
        assert lp_feasible(sys_) == want, trial


def _wide_system():
    """Eight dense rows over eight nonnegative variables, coefficients
    +-99 over denominators 1-9, feasible by construction: rows past the
    reduction bound within a few pivots."""
    rng = random.Random(20261019)
    variables = [f"x{i}" for i in range(8)]
    point = {v: Fraction(rng.randint(0, 9), rng.randint(1, 9)) for v in variables}
    sys_ = system(variables, [], nonneg=variables)
    for _ in range(8):
        coeffs = {v: Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for v in variables}
        value = sum(c * point[v] for v, c in coeffs.items())
        relation = rng.choice([EQ, LEQ, GEQ])
        slack = Fraction(rng.randint(0, 9), rng.randint(1, 9))
        sys_.add(coeffs, relation, {LEQ: value + slack, GEQ: value - slack, EQ: value}[relation])
    return sys_


# sha256 of _point(lp_feasible(_wide_system())), from the kernel that
# reduced every row after every pivot.
GOLDEN_WIDE_VERTEX = "80537e23af5f26eac939323b9ee373a4002daba37e82e690338ec94e79671d69"


def test_rows_past_the_reduction_bound_keep_the_vertex(monkeypatch):
    eliminated, reduced = [], []
    eliminate, reduce = linsolve._eliminate, linsolve._reduced

    def counted_eliminate(row, rhs, den, *pivot):
        eliminated.append(den)
        return eliminate(row, rhs, den, *pivot)

    def counted_reduce(row, rhs, den):
        if sys._getframe(1).f_code.co_name == "_eliminate":
            reduced.append(den)
        return reduce(row, rhs, den)

    monkeypatch.setattr(linsolve, "_eliminate", counted_eliminate)
    monkeypatch.setattr(linsolve, "_reduced", counted_reduce)
    result = lp_feasible(_wide_system())
    assert result.feasible
    # Both branches ran: some eliminations left their row unreduced, and
    # each one that reduced had passed the bound.
    assert 0 < len(reduced) < len(eliminated)
    assert all(den > linsolve._REDUCE_ABOVE for den in reduced)
    digest = hashlib.sha256(_point(result).encode()).hexdigest()
    assert digest == GOLDEN_WIDE_VERTEX
