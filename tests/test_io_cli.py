"""File formats and the command-line front end."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbprop import (
    GeneratorSpec,
    parse_instance,
    parse_pabulib,
    random_instance,
    serialize_instance,
)
import pbprop
from pbprop import axioms, linsolve  # modules whose caps the tests lower
from pbprop.cli import build_parser, main
from pbprop.fixtures import FIXTURES, get_fixture
from pbprop.io import FormatError, load_instance
from pbprop.laminar import generate_laminar

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

MINIMAL = """
{
  "meta": {"budget": "3/2"},
  "projects": [
    {"id": "p", "cost": "1/2"},
    {"id": "q", "cost": "1"}
  ],
  "voters": [
    {"id": "a", "utilities": {"p": "1"}},
    {"id": "b", "utilities": {"q": "0.75"}}
  ]
}
"""


def test_parse_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.budget == Fraction(3, 2)
    assert inst.projects == ("p", "q")
    assert inst.utilities["b"]["q"] == Fraction(3, 4)


def test_parse_rejects_bad_input():
    with pytest.raises(FormatError):
        parse_instance("not json")
    with pytest.raises(FormatError):
        parse_instance("[]")
    with pytest.raises(FormatError):
        parse_instance('{"meta": {}}')
    with pytest.raises(FormatError):
        parse_instance(
            '{"meta": {"budget": "1"}, "projects": [{"id": "p", "cost": "1"},'
            ' {"id": "p", "cost": "1"}], "voters": []}'
        )
    with pytest.raises(FormatError):
        parse_instance(
            '{"meta": {"budget": "1"}, "projects": [{"id": "p", "cost": "1"}],'
            ' "voters": [{"id": "a", "utilities": {"zz": "1"}}]}'
        )
    with pytest.raises(FormatError):  # validation gate: utility out of range
        parse_instance(
            '{"meta": {"budget": "1"}, "projects": [{"id": "p", "cost": "1"}],'
            ' "voters": [{"id": "a", "utilities": {"p": "2"}}]}'
        )
    with pytest.raises(FormatError, match="no voters"):
        parse_instance(
            '{"meta": {"budget": "1"}, "projects": [{"id": "c1", "cost": "1"}],'
            ' "voters": []}'
        )
    with pytest.raises(FormatError):  # .pb: VOTES row without a vote field
        parse_pabulib(PB_FILE.replace("b;q", "b"))
    with pytest.raises(FormatError):  # .pb: PROJECTS row without a cost field
        parse_pabulib(PB_FILE.replace("q;1", "q"))
    with pytest.raises(FormatError):  # .pb: duplicate project id
        parse_pabulib(PB_FILE.replace("q;1", "q;1\np;9"))


def test_fixtures_round_trip():
    for name in FIXTURES:
        inst = get_fixture(name)
        again = parse_instance(serialize_instance(inst))
        assert again == inst, name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_random_instances_round_trip(seed, approval):
    spec = GeneratorSpec(approval=approval)
    inst = random_instance(spec, random.Random(seed))
    assert parse_instance(serialize_instance(inst)) == inst


PB_FILE = """META
key;value
description;tiny election
budget;2
vote_type;approval
PROJECTS
project_id;cost
p;1
q;1
VOTES
voter_id;vote
a;p,q
b;q
"""


def test_parse_pabulib_minimal():
    inst = parse_pabulib(PB_FILE)
    assert inst.budget == 2
    assert inst.approval_set("a") == frozenset({"p", "q"})
    assert inst.approval_set("b") == frozenset({"q"})
    assert inst.is_mwv


def test_parse_pabulib_rejects_other_ballots():
    with pytest.raises(FormatError):
        parse_pabulib(PB_FILE.replace("approval", "ordinal"))


def test_parse_pabulib_needs_budget_and_sections():
    with pytest.raises(FormatError):
        parse_pabulib("PROJECTS\nproject_id;cost\np;1\nVOTES\nvoter_id;vote\na;p\n")
    with pytest.raises(FormatError):
        parse_pabulib("stray line\n")
    with pytest.raises(FormatError):
        parse_pabulib(PB_FILE.replace("a;p,q", "a;p,zz"))


def test_underfunded_election_selects_everything(tmp_path):
    from pbprop import phragmen

    text = PB_FILE.replace("budget;2", "budget;5")
    inst = parse_pabulib(text)
    winners, _ = phragmen(inst)
    assert winners == frozenset({"p", "q"})


def test_load_instance_routes_by_extension(tmp_path):
    json_path = tmp_path / "inst.json"
    json_path.write_text(MINIMAL, encoding="utf-8")
    pb_path = tmp_path / "inst.pb"
    pb_path.write_text(PB_FILE, encoding="utf-8")
    assert load_instance(json_path).projects == ("p", "q")
    assert load_instance(pb_path).is_approval


@pytest.fixture
def quartet_file(tmp_path):
    path = tmp_path / "quartet.json"
    path.write_text(serialize_instance(get_fixture("cardinal_quartet")), "utf-8")
    return str(path)


def test_cli_run_phragmen(quartet_file, capsys):
    rc = main(["run", "phragmen", quartet_file, "--threshold", "3/10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bundle {c2,c4}" in out
    assert "t=1/10" in out and "t=11/40" in out


def test_cli_run_pav_and_rulex(quartet_file, capsys):
    assert main(["run", "pav", quartet_file, "--threshold", "3/10"]) == 0
    out = capsys.readouterr().out
    assert "bundle {c2,c3}" in out and "score 9/2" in out
    assert main(["run", "rulex", quartet_file]) == 0
    out = capsys.readouterr().out
    assert "bundle {c1,c4}" in out and "rho=7/32" in out


def test_cli_check_exit_codes(quartet_file, capsys):
    assert main(["check", "pjr", quartet_file, "--bundle", "c2,c3"]) == 1
    out = capsys.readouterr().out
    assert "Violated" in out
    assert "witness group  {v1,v2}" in out
    assert main(["check", "core", quartet_file, "--bundle", "c1,c4"]) in (0, 1)


def test_cli_check_satisfied(tmp_path, capsys):
    path = tmp_path / "camps.json"
    path.write_text(serialize_instance(get_fixture("two_camps")), "utf-8")
    rc = main(["check", "priceable", str(path), "--bundle", "t2,c1,c2,c3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Satisfied" in out
    assert "price system: initial budget" in out


def _report_tail(capsys):
    return capsys.readouterr().out.splitlines()[1:]


def test_cli_priceable_certificate_lines_are_pinned(capsys):
    """The LP returns one particular vertex; these certificates pin it."""
    split_ten = str(INSTANCES / "split_ten.json")
    assert main(["check", "priceable", split_ten, "--bundle", "c1,c6"]) == 0
    assert _report_tail(capsys) == [
        f"check priceable on {split_ten} bundle {{c1,c6}}",
        "Satisfied",
        "  price system: initial budget b = 8",
        "    v2 pays c1:2 c6:1/3",
        "    v3 pays c6:2/3",
    ]
    tall_stack = str(INSTANCES / "tall_stack.json")
    bundle = "t1,t2,t3,t4,t5,t6,t7,t8,x1,x2,x3"
    assert main(["check", "priceable", tall_stack, "--bundle", bundle,
                 "--b-min", "1"]) == 0
    assert _report_tail(capsys) == [
        f"check priceable on {tall_stack} bundle {{{bundle}}}",
        "Satisfied",
        "  price system: initial budget b = 14/3",
        "    v1 pays t8:1/3",
        "    v2 pays t4:1/6 t5:1/3 t6:1/3 t7:1/3",
        "    v3 pays t1:1/3 t2:1/3 t3:1/3 t4:1/6",
        "    v4 pays x1:1/3 x2:1/3 x3:1/3",
    ]


def test_cli_lp_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(linsolve, "MAX_VARIABLES", 2)
    two_camps = str(INSTANCES / "two_camps.json")
    assert main(["check", "priceable", two_camps, "--bundle", "c1,c2,c3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 4 variables exceeds cap 2\n"


def test_cli_enumeration_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(axioms, "ENUM_MAX_BITS", 2)
    two_camps = str(INSTANCES / "two_camps.json")
    assert main(["check", "ejr", two_camps, "--bundle", "c1,c2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert "exceeds subset-search cap 2" in err


def test_cli_rule_on_non_approval_instance_exits_2(capsys):
    quartet = str(INSTANCES / "cardinal_quartet.json")
    for rule in ("pav", "phragmen"):
        assert main(["run", rule, quartet]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "approval instances" in err


def test_cli_run_error_leaves_stdout_empty(capsys):
    assert main(["run", "pav", str(INSTANCES / "cardinal_quartet.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


def test_cli_main_leaves_no_cyclic_garbage(capsys):
    import gc

    unit_split = str(INSTANCES / "unit_split.json")
    argv = ["check", "ejr", unit_split, "--bundle", "c1,c2,c3,c4"]
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert build_parser().parse_args(argv).axiom == "ejr"


def test_python_m_pbprop_runs_the_cli():
    import os
    import subprocess
    import sys

    src = str(Path(pbprop.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "pbprop", "paper-verify"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "8/8 fixtures pass" in done.stdout


def test_cli_laminar_cap_is_not_a_verdict(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(serialize_instance(generate_laminar(3, max_depth=4)), "utf-8")
    assert main(["laminar", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance exceeds laminar-search caps\n"


def test_cli_laminar(tmp_path, capsys):
    path = tmp_path / "split.json"
    path.write_text(serialize_instance(get_fixture("split_ten")), "utf-8")
    assert main(["laminar", str(path)]) == 0
    out = capsys.readouterr().out
    assert "unanimous project c6" in out
    assert "split" in out


def test_cli_laminar_rejects_non_laminar(capsys):
    assert main(["laminar", str(INSTANCES / "common_tail.json")]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "not laminar: instance is not laminar"


def test_cli_gen_round_trips(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    assert main(["gen", "laminar", "--seed", "5", "--out", str(out_path)]) == 0
    inst = load_instance(out_path)
    assert inst.is_approval
    assert main(["gen", "random", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert parse_instance(text).budget > 0


def test_cli_search(capsys):
    assert main(["search", "--assume", "ejr", "--conclude", "pjr",
                 "--trials", "40", "--seed", "0"]) == 0
    assert "NoneFound" in capsys.readouterr().out


def test_cli_search_skips_non_laminar_draws(capsys):
    assert main(["search", "--assume", "laminarprop", "--conclude", "priceable",
                 "--trials", "20", "--seed", "0"]) == 0


def test_cli_usage_errors(capsys, tmp_path):
    assert main(["run", "nope", "x.json"]) == 2
    assert main([]) == 2
    assert main(["check", "pjr", str(tmp_path / "missing.json"),
                 "--bundle", "c1"]) == 2


def test_cli_reports_are_deterministic(quartet_file, capsys):
    main(["check", "pjr", quartet_file, "--bundle", "c2,c3"])
    first = capsys.readouterr().out
    main(["check", "pjr", quartet_file, "--bundle", "c2,c3"])
    assert capsys.readouterr().out == first


def test_cli_paper_verify(capsys):
    assert main(["paper-verify"]) == 0
    out = capsys.readouterr().out
    assert "8/8 fixtures pass" in out
