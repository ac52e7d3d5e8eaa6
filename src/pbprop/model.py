"""Instance and bundle data model.

A budgeting instance holds ordered voter and project ids, exact rational
costs, per-voter utilities in [0, 1] and a total budget.  Ids are opaque
strings; their lexicographic order is the canonical tie-break used
everywhere in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable


ZERO = Fraction(0)  # shared by every omitted utility entry
ONE = Fraction(1)  # shared by every approval of a .pb or binarized ballot


# The four kinds of error, each with one CLI exit status (README, "CLI");
# every module-specific error class subclasses one of them.


class InputError(ValueError):
    """Malformed input: a file, a rational, a cap's value. Exit status 2."""


class PreconditionError(ValueError):
    """The rule or axiom is not defined on this instance. Exit status 2."""


class CapExceeded(Exception):
    """The work would exceed a configured size cap. Exit status 2. Not a
    ValueError, so no caller takes it for an unmet precondition."""


class CertificateError(Exception):
    """A witness or certificate failed its independent re-check. Exit status 3."""


class EnumerationCapError(CapExceeded):
    """An exhaustive search would exceed its configured size cap."""


def as_fraction(value) -> Fraction:
    """Parse a value to an exact Fraction ("7/10" and "0.35" both exact)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to convert a binary float; pass a string")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(str(exc)) from exc


def _distinct(objects):
    """The distinct objects of a sequence, by identity, in order of first
    appearance; nothing is hashed but the ids."""
    return dict(zip(map(id, objects), objects)).values()


def _scaled(values):
    """Integers over the values' least common denominator, and that
    denominator."""
    den = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


@dataclass(frozen=True)
class PBInstance:
    voters: tuple  # ordered voter ids
    projects: tuple  # ordered project ids
    cost: dict  # project id -> Fraction > 0
    utilities: dict  # voter id -> {project id -> Fraction in [0, 1]}
    budget: Fraction
    description: str = ""

    @staticmethod
    def build(voters, projects, cost, utilities, budget, description=""):
        """Normalise raw input (strings, ints) into canonical form.

        Omitted utility entries default to 0 (one shared Fraction); ids are
        sorted canonically.  Each distinct input row object is normalised
        once: voters sharing an input row share one normalised row.
        """
        voters = tuple(sorted(voters))
        projects = tuple(sorted(projects))
        cost = {c: as_fraction(x) for c, x in cost.items()}
        empty = {}
        # Keyed by id, not content: raw cells ("1/2", 1) are not yet comparable.
        done = {}  # id(row) -> (row, held so its id is not reused; normalised row)
        norm = {}
        for v in voters:
            row = utilities.get(v, empty)
            seen = done.get(id(row))
            if seen is None:
                seen = done[id(row)] = (
                    row,
                    {c: as_fraction(row[c]) if c in row else ZERO for c in projects},
                )
            norm[v] = seen[1]
        return PBInstance(voters, projects, cost, norm, as_fraction(budget), description)

    def utility(self, voter, project) -> Fraction:
        return self.utilities[voter][project]

    def approvers(self, project):
        return [v for v in self.voters if self.utilities[v][project] > 0]

    def approval_set(self, voter) -> frozenset:
        return frozenset(c for c in self.projects if self.utilities[voter][c] == 1)

    @cached_property
    def ballot_types(self):
        """The one ballot-type table, built on first read and then kept, so
        utility rows must not change after it: (rows, sizes, type_of,
        members).  rows[k] holds type k's nonzero utilities, sizes[k] its
        voter count, members[k] its (position, voter, k) entries and
        type_of each voter's type, all in voter order.  Types are keyed by
        content, in order of first voter, on (project, numerator,
        denominator) per nonzero cell, one key per distinct row object.
        """
        index = {}  # key -> type index
        rows = []
        known = {}  # id(row) -> type index
        type_of = {}
        members = []
        for i, v in enumerate(self.voters):
            row = self.utilities[v]
            k = known.get(id(row))
            if k is None:
                nonzero = {c: u for c, u in row.items() if u is not ZERO and u}
                key = tuple((c, u.numerator, u.denominator) for c, u in nonzero.items())
                k = known[id(row)] = index.setdefault(key, len(rows))
                if k == len(rows):
                    rows.append(nonzero)
                    members.append([])
            type_of[v] = k
            members[k].append((i, v, k))
        return rows, list(map(len, members)), type_of, members

    @property
    def is_approval(self) -> bool:
        """Every utility is 0 or 1: every nonzero cell of a type row is 1."""
        rows = self.ballot_types[0]
        return all(u is ONE or u == 1 for row in rows for u in row.values())

    @property
    def is_mwv(self) -> bool:
        if not self.is_approval or not self.projects:
            return False
        costs = {self.cost[c] for c in self.projects}
        return len(costs) == 1

    def committee_size(self) -> int:
        """Budget expressed in unit costs; only meaningful on MWV instances."""
        if not self.is_mwv:
            raise PreconditionError("not an MWV instance")
        unit = self.cost[self.projects[0]]
        k = self.budget / unit
        if k.denominator != 1 or k <= 0:
            raise PreconditionError(
                f"budget / unit cost = {k} is not a positive integer"
            )
        return int(k)

    def cost_of(self, bundle: Iterable) -> Fraction:
        return sum((self.cost[c] for c in bundle), Fraction(0))

    def voter_utility(self, voter, bundle) -> Fraction:
        return sum((self.utilities[voter][c] for c in bundle), Fraction(0))


Bundle = frozenset


@dataclass
class ValidationReport:
    problems: list = field(default_factory=list)

    def add(self, message: str):
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(instance: PBInstance) -> ValidationReport:
    """List every violated instance invariant; empty report iff well-formed."""
    report = ValidationReport()
    if not instance.voters:
        report.add("no voters")
    if len(set(instance.voters)) != len(instance.voters):
        report.add("duplicate voter id")
    if len(set(instance.projects)) != len(instance.projects):
        report.add("duplicate project id")
    if set(instance.voters) & set(instance.projects):
        report.add("voter and project ids overlap")
    if instance.budget <= 0:
        report.add(f"nonpositive budget {instance.budget}")
    for c in instance.projects:
        if c not in instance.cost:
            report.add(f"missing cost for project {c}")
        elif instance.cost[c] <= 0:
            report.add(f"nonpositive cost for project {c}")
    # By row object, not ballot type: types drop unknown projects' zero cells.
    faults = {}  # id(row) -> the row's bad cells, each checked once
    for v in instance.voters:
        row = instance.utilities.get(v)
        if row is None:
            report.add(f"missing utilities for voter {v}")
            continue
        bad = faults.get(id(row))
        if bad is None:
            bad = faults[id(row)] = _row_faults(row, instance.cost)
        for unknown, c, u in bad:
            if unknown:
                report.add(f"utility for unknown project {c} (voter {v})")
            else:
                report.add(f"utility out of [0,1]: u_{v}({c}) = {u}")
    return report


def _in_range(u):
    if isinstance(u, Fraction):
        return 0 <= u.numerator <= u.denominator
    return 0 <= u <= 1


def _row_faults(row, cost):
    """(unknown, project, utility) for each bad cell of a utility row, in
    row order: an unknown project, then (or instead) an out-of-range value.

    A row whose projects are all known is checked by its distinct value
    objects, once each: cells share ``ZERO`` and ``ONE``."""
    if row.keys() <= cost.keys() and all(map(_in_range, _distinct(row.values()))):
        return []
    bad = []
    for c, u in row.items():
        if c not in cost:
            bad.append((True, c, u))
        if not _in_range(u):
            bad.append((False, c, u))
    return bad


def binarize(instance: PBInstance, threshold) -> PBInstance:
    """Approval specialization: utility 1 iff input utility >= threshold.
    Each ballot type's row is mapped once and shared by its voters."""
    threshold = as_fraction(threshold)
    if not 0 < threshold <= 1:
        raise InputError(f"threshold {threshold} outside (0, 1]")
    rows, _, type_of, _ = instance.ballot_types
    projects = instance.projects
    new = [{c: ONE if row.get(c, 0) >= threshold else ZERO for c in projects} for row in rows]
    utilities = {v: new[k] for v, k in type_of.items()}
    return PBInstance(
        instance.voters,
        instance.projects,
        instance.cost,
        utilities,
        instance.budget,
        instance.description,
    )


def check_bundle(instance: PBInstance, bundle) -> frozenset:
    bundle = frozenset(bundle)
    unknown = bundle - set(instance.projects)
    if unknown:
        raise KeyError(f"bundle references unknown projects: {sorted(unknown)}")
    return bundle
