"""Exact rational linear feasibility.

All coefficients, right-hand sides and solution values are
``fractions.Fraction``; verdicts are exact decisions, never approximate.
The solver is a dense two-phase simplex (phase I only, since we only need
feasibility plus one witness point) with Bland's pivoting rule, which
terminates on every input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .model import CertificateError

LEQ = "<="
EQ = "=="
GEQ = ">="

_RELATIONS = (LEQ, EQ, GEQ)

MAX_VARIABLES = int(os.environ.get("PBPROP_LP_MAX_VARS", "4096"))
MAX_CONSTRAINTS = int(os.environ.get("PBPROP_LP_MAX_CONSTRAINTS", "8192"))


class ResourceLimitError(Exception):
    """Variable or constraint count exceeds the configured cap."""


@dataclass(frozen=True)
class Constraint:
    coeffs: dict  # variable name -> Fraction
    relation: str  # one of LEQ, EQ, GEQ
    rhs: Fraction

    def holds(self, assignment) -> bool:
        lhs = sum((c * assignment[v] for v, c in self.coeffs.items()), Fraction(0))
        if self.relation == LEQ:
            return lhs <= self.rhs
        if self.relation == GEQ:
            return lhs >= self.rhs
        return lhs == self.rhs


@dataclass
class LinearSystem:
    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    nonneg: set = field(default_factory=set)

    def add_variable(self, name: str, nonneg=False):
        if name in self.variables:
            raise ValueError(f"duplicate variable {name!r}")
        self.variables.append(name)
        if nonneg:
            self.nonneg.add(name)

    def add(self, coeffs, relation, rhs):
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        coeffs = {v: Fraction(c) for v, c in coeffs.items()}
        for v in coeffs:
            if v not in self.variables:
                raise ValueError(f"constraint references undeclared variable {v!r}")
        self.constraints.append(Constraint(coeffs, relation, Fraction(rhs)))

    def satisfied_by(self, assignment) -> bool:
        return all(con.holds(assignment) for con in self.constraints)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    assignment: Optional[dict] = None  # variable name -> Fraction, when feasible


def lp_feasible(system: LinearSystem) -> FeasibilityResult:
    """Decide exactly whether the system has a rational solution.

    Free variables are split into differences of nonnegative parts
    (variables declared nonnegative get a single column), every row is
    brought to equality form with a slack/surplus column, and a phase-I
    simplex minimises the sum of artificial variables.
    """
    nvars = len(system.variables)
    if nvars > MAX_VARIABLES:
        raise ResourceLimitError(f"{nvars} variables exceeds cap {MAX_VARIABLES}")
    if len(system.constraints) > MAX_CONSTRAINTS:
        raise ResourceLimitError(
            f"{len(system.constraints)} constraints exceeds cap {MAX_CONSTRAINTS}"
        )
    if not system.constraints:
        return FeasibilityResult(True, {v: Fraction(0) for v in system.variables})

    # Column layout: one column per variable, an extra negated column per
    # free variable, then one slack per inequality.
    columns = [(v, 1) for v in system.variables]
    columns += [(v, -1) for v in system.variables if v not in system.nonneg]
    col_of = {}
    for j, (v, sign) in enumerate(columns):
        col_of.setdefault(v, []).append((j, sign))
    nslack = sum(1 for c in system.constraints if c.relation != EQ)
    ncols = len(columns) + nslack
    rows = []
    rhs_col = []
    slack_at = 0
    for con in system.constraints:
        row = [Fraction(0)] * ncols
        for v, c in con.coeffs.items():
            for j, sign in col_of[v]:
                row[j] += sign * c
        if con.relation != EQ:
            sign = Fraction(1) if con.relation == LEQ else Fraction(-1)
            row[len(columns) + slack_at] = sign
            slack_at += 1
        b = con.rhs
        if b < 0:
            row = [-a for a in row]
            b = -b
        rows.append(row)
        rhs_col.append(b)

    m = len(rows)
    # Append one artificial column per row; artificials start basic.
    total = ncols + m
    for i, row in enumerate(rows):
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
    basis = [ncols + i for i in range(m)]

    # Phase-I objective: minimise the sum of artificials. Reduced costs are
    # kept in an explicit objective row (negated so we can pivot on positives).
    obj = [Fraction(0)] * total
    obj_val = Fraction(0)
    for i in range(m):
        for j in range(total):
            obj[j] += rows[i][j]
        obj_val += rhs_col[i]
    for i in range(m):
        obj[ncols + i] = Fraction(0)

    # Dantzig's rule is fast but can cycle; switch to Bland's rule (which
    # terminates on every input) once the iteration budget is spent.
    dantzig_budget = 20 * (m + total)
    iterations = 0
    while True:
        iterations += 1
        if iterations <= dantzig_budget:
            enter = max(range(total), key=lambda j: obj[j])
            if obj[enter] <= 0:
                enter = None
        else:
            enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        # Ratio test, ties broken by lowest basis variable index (Bland).
        leave = None
        best = None
        for i in range(m):
            a = rows[i][enter]
            if a > 0:
                ratio = rhs_col[i] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            # Unbounded phase-I column cannot happen (objective bounded
            # below by 0), but guard against malformed input.
            raise RuntimeError("phase-I simplex unbounded")
        piv = rows[leave][enter]
        rows[leave] = [a / piv for a in rows[leave]]
        rhs_col[leave] /= piv
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
                rhs_col[i] -= f * rhs_col[leave]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, rows[leave])]
            obj_val -= f * rhs_col[leave]
        basis[leave] = enter

    if obj_val != 0:
        return FeasibilityResult(False)

    values = [Fraction(0)] * total
    for i, bj in enumerate(basis):
        values[bj] = rhs_col[i]
    assignment = {
        v: sum((sign * values[j] for j, sign in col_of[v]), Fraction(0))
        for v in system.variables
    }
    if not system.satisfied_by(assignment):
        raise CertificateError("simplex assignment violates the system")
    return FeasibilityResult(True, assignment)
