"""Data model: parsing, normalization, validation, binarization."""

import ast
import importlib
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pbprop
from pbprop import PBInstance, as_fraction, binarize, validate
from pbprop import model
from pbprop.model import (
    CapExceeded,
    CertificateError,
    InputError,
    PreconditionError,
    check_bundle,
)


def tiny():
    return PBInstance.build(
        voters=["b", "a"],
        projects=["p2", "p1"],
        cost={"p1": "1/2", "p2": 1},
        utilities={"a": {"p1": 1}, "b": {"p2": "3/4"}},
        budget="3/2",
    )


def test_as_fraction_parses_strings_exactly():
    assert as_fraction("7/10") == Fraction(7, 10)
    assert as_fraction("0.35") == Fraction(7, 20)
    assert as_fraction(3) == 3


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.35)


def test_as_fraction_bad_text_is_an_input_error():
    with pytest.raises(InputError, match=r"^Fraction\(1, 0\)$"):
        as_fraction("1/0")
    with pytest.raises(InputError, match="'abc'"):
        as_fraction("abc")


def test_every_error_class_is_one_of_four_kinds():
    from pbprop import config, io, laminar, linsolve, oracle, rules

    kinds = {
        io.FormatError: InputError,
        config.ConfigError: InputError,
        rules.NotApprovalError: PreconditionError,
        laminar.NotLaminarError: PreconditionError,
        model.EnumerationCapError: CapExceeded,
        linsolve.ResourceLimitError: CapExceeded,
        oracle.OracleCapError: CapExceeded,
    }
    for old, kind in kinds.items():
        assert issubclass(old, kind), old
    assert issubclass(InputError, ValueError)
    assert issubclass(PreconditionError, ValueError)
    assert not issubclass(CapExceeded, ValueError)
    assert not issubclass(CertificateError, ValueError)
    assert not issubclass(InputError, PreconditionError)
    modules = [
        importlib.import_module(f"pbprop.{m.name}")
        for m in pkgutil.iter_modules(pbprop.__path__)
        if m.name != "__main__"
    ]
    defined = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == module.__name__
    }
    four = {InputError, PreconditionError, CapExceeded, CertificateError}
    assert defined == four | set(kinds)


def test_build_sorts_ids_and_fills_missing_utilities():
    inst = tiny()
    assert inst.voters == ("a", "b")
    assert inst.projects == ("p1", "p2")
    assert inst.utilities["a"]["p2"] == 0
    assert inst.utilities["b"]["p1"] == 0


def test_cost_and_utility_helpers():
    inst = tiny()
    assert inst.cost_of({"p1", "p2"}) == Fraction(3, 2)
    assert inst.voter_utility("b", {"p1", "p2"}) == Fraction(3, 4)
    assert inst.approvers("p1") == ["a"]
    assert inst.approval_set("a") == frozenset({"p1"})


def test_is_approval_and_mwv():
    inst = tiny()
    assert not inst.is_approval
    mwv = PBInstance.build(
        voters=["a", "b"],
        projects=["p", "q", "r"],
        cost={c: 1 for c in "pqr"},
        utilities={"a": {"p": 1}, "b": {"q": 1}},
        budget=2,
    )
    assert mwv.is_approval and mwv.is_mwv
    assert mwv.committee_size() == 2


def test_committee_size_requires_integer_ratio():
    inst = PBInstance.build(
        voters=["a"],
        projects=["p", "q"],
        cost={"p": 1, "q": 1},
        utilities={"a": {"p": 1}},
        budget="3/2",
    )
    assert inst.is_mwv
    with pytest.raises(ValueError):
        inst.committee_size()


def test_validate_flags_problems():
    inst = PBInstance(
        voters=("a", "a"),
        projects=("p",),
        cost={"p": Fraction(-1)},
        utilities={"a": {"p": Fraction(2)}},
        budget=Fraction(0),
    )
    report = validate(inst)
    assert not report.ok
    text = " ".join(report.problems)
    assert "duplicate voter" in text
    assert "nonpositive budget" in text
    assert "nonpositive cost" in text
    assert "out of [0,1]" in text
    # A project id given twice, one shared with a voter, and one without a cost.
    clash = PBInstance(
        voters=("a",),
        projects=("p", "p", "a", "q"),
        cost={"p": Fraction(1), "a": Fraction(1)},
        utilities={"a": {}},
        budget=Fraction(1),
    )
    assert validate(clash).problems == [
        "duplicate project id",
        "voter and project ids overlap",
        "missing cost for project q",
    ]


def test_validate_accepts_well_formed():
    assert validate(tiny()).ok


def test_binarize_thresholds_inclusively():
    inst = tiny()
    approval = binarize(inst, "3/4")
    assert approval.utilities["b"]["p2"] == 1
    assert approval.utilities["a"]["p1"] == 1
    stricter = binarize(inst, 1)
    assert stricter.utilities["b"]["p2"] == 0


def test_binarize_rejects_bad_threshold():
    with pytest.raises(ValueError):
        binarize(tiny(), 0)
    with pytest.raises(ValueError):
        binarize(tiny(), "3/2")


@given(st.fractions(min_value=0, max_value=1))
def test_binarize_always_approval(threshold):
    if threshold == 0:
        return
    assert binarize(tiny(), threshold).is_approval


def test_check_bundle_rejects_unknown_projects():
    with pytest.raises(KeyError):
        check_bundle(tiny(), {"p1", "nope"})
    assert check_bundle(tiny(), ["p1"]) == frozenset({"p1"})


def test_no_assert_statements_in_package():
    # Self-checks raise CertificateError so that they still run under -O.
    package = Path(pbprop.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
