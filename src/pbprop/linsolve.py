"""Exact rational linear feasibility.

All coefficients, right-hand sides and solution values are
``fractions.Fraction``; verdicts are exact decisions, never approximate.
The solver is a phase-I simplex (we only need feasibility plus one witness
point) that never builds a ``Fraction`` while it pivots.

Each tableau row, the phase-I objective row included, is a dense list of
ints indexed by column, over one positive integer denominator, with an
integer right-hand side over the same denominator.  A pivot scales the
pivot row's denominator to the pivot entry, divides the pivot row by the
gcd of its entries, right-hand side and denominator, and lists its
nonzeros once as (column, value) pairs.  Every other row ``r`` with entry
``f`` in the entering column becomes ``r * p - f * pivot_row``
(fraction-free, in the spirit of Bareiss 1968), updated in place over
those pairs only.  Such a row is divided by its gcd only once its
denominator exceeds ``_REDUCE_ABOVE``; below that it may carry a common
factor, which changes no decision (see ``lp_feasible`` for the proof).
The rows with a nonzero in the entering column are found in one pass per
pivot, and the ratio test and the elimination both read that list.  The
ratio test compares ratios by cross-multiplying integers.  Rows are dense
because they are well filled: about 30% of a pivot row's columns are
nonzero on small priceability systems and 46% at 100 voters, and at that
fill a list slot costs less than a dict entry.

Each constraint enters the tableau as its own integer row
(``Constraint.scaled``: the row times the lcm of its denominators, which
is already in lowest terms).  Values become ``Fraction``s only when the
assignment is read off at the end, and that point is checked against the
same integer rows over one common denominator (``_satisfies``, which is
also ``LinearSystem.satisfied_by``), with a plain ``if`` so that the check
runs under ``python -O``.

The pivot rules fix which vertex is returned:

- columns are the variables, then a negated copy of each free variable,
  then one slack per inequality, then one artificial per row; a row whose
  right-hand side is negative is negated first;
- the entering column is Dantzig's (the first column with the largest
  reduced cost) for ``20 * (rows + columns)`` iterations, then Bland's
  (the lowest column with a positive reduced cost), which terminates on
  every input;
- ratio-test ties go to the row whose basic variable has the lowest
  column.

Both choices depend only on the current basis: the reduced costs and the
basic solution are functions of it, whatever the tableau's storage, and a
row's scale factor cancels in every comparison.  So any exact method that
visits the same bases, a denser or a sparser tableau or a revised simplex,
returns the same vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import config
from .model import CapExceeded, CertificateError

LEQ = "<="
EQ = "=="
GEQ = ">="

_RELATIONS = (LEQ, EQ, GEQ)


class ResourceLimitError(CapExceeded):
    """Variable or constraint count exceeds the configured cap."""


@dataclass(frozen=True)
class Constraint:
    coeffs: dict  # variable name -> Fraction
    relation: str  # one of LEQ, EQ, GEQ
    rhs: Fraction

    def scaled(self):
        """(entries, rhs, den): the row times den, the lcm of the
        denominators of its coefficients and right-hand side, as integers
        ({variable: nonzero int}, int, positive int).  It is in lowest
        terms: each prime power in den divides some value's denominator,
        and that value's scaled numerator is coprime to the prime."""
        den = math.lcm(self.rhs.denominator, *[c.denominator for c in self.coeffs.values()])
        entries = {v: c.numerator * (den // c.denominator) for v, c in self.coeffs.items() if c}
        return entries, self.rhs.numerator * (den // self.rhs.denominator), den


@dataclass
class LinearSystem:
    variables: list = field(default_factory=list)
    constraints: list = field(default_factory=list)
    nonneg: set = field(default_factory=set)

    def __post_init__(self):
        self._declared = set(self.variables)

    def add_variable(self, name: str, nonneg=False):
        if name in self._declared:
            raise ValueError(f"duplicate variable {name!r}")
        self._declared.add(name)
        self.variables.append(name)
        if nonneg:
            self.nonneg.add(name)

    def add(self, coeffs, relation, rhs):
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        for v in coeffs:
            if v not in self._declared:
                raise ValueError(f"constraint references undeclared variable {v!r}")
        coeffs = {v: c if type(c) is Fraction else Fraction(c) for v, c in coeffs.items()}
        rhs = rhs if type(rhs) is Fraction else Fraction(rhs)
        self.constraints.append(Constraint(coeffs, relation, rhs))

    def satisfied_by(self, assignment) -> bool:
        """Whether every constraint holds at the point, decided exactly in
        integers: the point over one common denominator, each row over its
        own (``Constraint.scaled``)."""
        return _satisfies(
            [(con.scaled(), con.relation) for con in self.constraints], assignment
        )


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    assignment: Optional[dict] = None  # variable name -> Fraction, when feasible


def _satisfies(rows, assignment):
    """rows: ((entries, rhs, den), relation) pairs as ``Constraint.scaled``
    gives them.  With D the lcm of the point's denominators and X = D * x,
    the row entries . x / den (relation) rhs / den holds iff
    entries . X (relation) rhs * D."""
    common = math.lcm(*[x.denominator for x in assignment.values()])
    point = {v: x.numerator * (common // x.denominator) for v, x in assignment.items()}
    for (entries, rhs, _), relation in rows:
        lhs = sum([a * point[v] for v, a in entries.items()])
        rhs *= common
        if relation == LEQ:
            holds = lhs <= rhs
        elif relation == GEQ:
            holds = lhs >= rhs
        else:
            holds = lhs == rhs
        if not holds:
            return False
    return True


# A row other than the pivot row is brought to lowest terms only above
# this denominator: below it the gcds cost more than the longer integers.
_REDUCE_ABOVE = 1 << 60


def _reduced(row, rhs, den):
    # One gcd at a time over the nonzero entries (gcd(g, 0) is g), stopping
    # once it is 1; math.gcd(*row...) costs as much and leaves a spare tuple
    # on CPython's free lists per call.
    g = math.gcd(rhs, den)
    for a in row:
        if a:
            if g == 1:
                break
            g = math.gcd(g, a)
    if g == 1:
        return row, rhs, den
    return [a // g for a in row], rhs // g, den // g


def _eliminate(row, rhs, den, f, pivot, prhs, pden):
    """Real row - (f / den) * pivot row, where the pivot row is 1 in the
    entering column (its entry there equals pden) and ``pivot`` lists its
    nonzeros as (column, value) pairs.  The result is 0 in the entering
    column; the row list is updated in place unless it is scaled first.
    It is divided by its gcd only when its denominator exceeds
    ``_REDUCE_ABOVE``, so it may be k times its lowest terms, with k
    dividing that denominator; ``lp_feasible`` says why that is exact and
    why no integer gets more than 60 bits longer than in lowest terms."""
    g = math.gcd(f, pden)
    p, f = pden // g, f // g
    if p != 1:
        row = [a * p for a in row]
    for j, c in pivot:
        row[j] -= f * c
    rhs, den = rhs * p - f * prhs, den * p
    if den > _REDUCE_ABOVE:
        return _reduced(row, rhs, den)
    return row, rhs, den


def lp_feasible(system: LinearSystem) -> FeasibilityResult:
    """Decide exactly whether the system has a rational solution.

    Free variables are split into differences of nonnegative parts
    (variables declared nonnegative get a single column), every row is
    brought to equality form with a slack/surplus column, and a phase-I
    simplex minimises the sum of artificial variables.  Each tableau row
    is a dense list of ints over all columns with its own denominator, and
    each pivot updates the rows in place over the pivot row's nonzeros.
    The entering and leaving columns are functions of the current basis
    alone, so this storage returns the vertex any exact method visiting
    the same bases returns.

    Rows other than the pivot row are left out of lowest terms until their
    denominator exceeds ``_REDUCE_ABOVE`` (``_eliminate``).  That returns
    the same vertex as reducing every row after every pivot: a stored row
    (entries, rhs, den) stands for the real row entries / den = rhs / den,
    and an unreduced row is k times the reduced one for a positive integer
    k, which leaves every decision alike:

    - the objective row is scaled as a whole, so Dantzig's argmax and its
      lowest-column tie-break, and Bland's sign test, pick the same column;
    - the ratio test compares rhs_i / a_i, in which a row's k cancels, by
      the cross-multiplied rhs_i * a_l < rhs_l * a_i of positive a's, so
      its order and its ties are the same;
    - the pivot row is brought to lowest terms over its pivot entry when
      chosen, so the row multiplied into the others is the same integers;
    - ``obj_val != 0`` and the ``Fraction(rhs, den)`` read back are the
      same for any k.

    Size: a stored row with den <= 2**60 is k times its lowest terms with
    k dividing den, so k <= 2**60; above the bound it is reduced, k = 1.
    Eliminating from such a row gives k * g / g' times the row the
    always-reduced kernel builds before its gcd (g = gcd(f, pden) there,
    g' = gcd(k * f, pden) here, and g divides g').  So no integer, stored
    or intermediate, is more than 60 bits longer than with a gcd after
    every pivot.
    """
    nvars = len(system.variables)
    max_vars, max_rows = config.LP_MAX_VARS, config.LP_MAX_CONSTRAINTS
    if nvars > max_vars:
        raise ResourceLimitError(f"{nvars} variables exceeds cap {max_vars}")
    if len(system.constraints) > max_rows:
        raise ResourceLimitError(
            f"{len(system.constraints)} constraints exceeds cap {max_rows}"
        )
    if not system.constraints:
        return FeasibilityResult(True, {v: Fraction(0) for v in system.variables})

    # Column layout: one column per variable, an extra negated column per
    # free variable, then one slack per inequality, then one artificial
    # per row.
    col = {v: j for j, v in enumerate(system.variables)}
    free = [v for v in system.variables if v not in system.nonneg]
    free = {v: nvars + k for k, v in enumerate(free)}
    nvarcols = nvars + len(free)
    ncols = nvarcols + sum(1 for c in system.constraints if c.relation != EQ)
    m = len(system.constraints)
    total = ncols + m

    # rows[i] = (entries, rhs, den): row i is entries / den = rhs / den,
    # entries a list over all columns: the constraint's own scaled row laid
    # out on the columns, negated when its right-hand side is negative,
    # with den as its slack and artificial entries.  Such a row is in
    # lowest terms: den is the lcm of the constraint's denominators.
    # Artificials start basic; the phase-I objective (minimise their sum)
    # is kept as reduced costs, negated so we can pivot on positives, with
    # the current objective value as its right-hand side: the sum of the
    # rows without their artificials, here over the lcm of their
    # denominators.
    scaled = [con.scaled() for con in system.constraints]
    obj_den = math.lcm(*[den for _, _, den in scaled])
    rows = []
    obj = [0] * total
    obj_val = 0
    slack = nvarcols
    for i, (con, (entries, rhs, den)) in enumerate(zip(system.constraints, scaled)):
        sign = -1 if rhs < 0 else 1
        rhs *= sign
        row = [0] * total
        for v, a in entries.items():
            row[col[v]] = sign * a
            if v in free:
                row[free[v]] = -sign * a
        if con.relation != EQ:
            row[slack] = sign * den if con.relation == LEQ else -sign * den
            slack += 1
        w = obj_den // den
        obj = [o + a * w for o, a in zip(obj, row)]
        obj_val += rhs * w
        row[ncols + i] = den
        rows.append((row, rhs, den))
    obj, obj_val, obj_den = _reduced(obj, obj_val, obj_den)
    basis = [ncols + i for i in range(m)]

    # Dantzig's rule is fast but can cycle; switch to Bland's rule (which
    # terminates on every input) once the iteration budget is spent.
    dantzig_budget = 20 * (m + total)
    iterations = 0
    while True:
        iterations += 1
        if iterations <= dantzig_budget:
            top = max(obj)
            enter = obj.index(top) if top > 0 else None
        else:
            enter = next((j for j, a in enumerate(obj) if a > 0), None)
        if enter is None:
            break
        # The rows with a nonzero in the entering column, in one pass.
        column = [(i, t) for i, t in enumerate(rows) if t[0][enter]]
        # Ratio test rhs_i / a_i over a_i > 0 (the row denominators cancel),
        # cross-multiplied, ties broken by lowest basis variable index
        # (Bland).
        leave = None
        for i, (row, rhs, _) in column:
            a = row[enter]
            if a > 0 and (
                leave is None
                or (rhs * best_a, basis[i]) < (best_rhs * a, basis[leave])
            ):
                leave, best_rhs, best_a = i, rhs, a
        if leave is None:
            # Unbounded phase-I column cannot happen (objective bounded
            # below by 0), but guard against malformed input.
            raise RuntimeError("phase-I simplex unbounded")
        row, rhs, _ = rows[leave]
        pivot, prhs, pden = rows[leave] = _reduced(row, rhs, row[enter])
        # Its nonzeros, listed once: every elimination reads only these.
        pivot = [(j, c) for j, c in enumerate(pivot) if c]
        for i, (row, rhs, den) in column:
            if i != leave:
                rows[i] = _eliminate(row, rhs, den, row[enter], pivot, prhs, pden)
        obj, obj_val, obj_den = _eliminate(
            obj, obj_val, obj_den, obj[enter], pivot, prhs, pden
        )
        basis[leave] = enter

    if obj_val != 0:
        return FeasibilityResult(False)

    zero = Fraction(0)
    values = {j: Fraction(rhs, den) for j, (_, rhs, den) in zip(basis, rows) if j < nvarcols}
    assignment = {v: values.get(j, zero) for v, j in col.items()}
    for v, j in free.items():
        if j in values:
            assignment[v] -= values[j]
    if not _satisfies(zip(scaled, (con.relation for con in system.constraints)), assignment):
        raise CertificateError("simplex assignment violates the system")
    return FeasibilityResult(True, assignment)
