"""File formats and the command-line front end."""

import dataclasses
import hashlib
import random
import shutil
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbprop import (
    GeneratorSpec,
    parse_instance,
    parse_pabulib,
    phragmen,
    random_instance,
    rule_x,
    serialize_instance,
)
import pbprop
from pbprop import config  # the caps module the tests lower
from pbprop import verify
from pbprop.axioms import SATISFIED, VIOLATED, PriceSystem
from pbprop.cli import build_parser, main
from pbprop.fixtures import FIXTURES, get_fixture, tall_stack_bundle
from pbprop.io import FormatError, load_instance
from pbprop.laminar import generate_laminar
from pbprop.registry import MAIN_CHECKERS
from pbprop.rules import NotApprovalError

INSTANCES = Path(pbprop.__file__).resolve().parent / "instances"

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
    for key, value, message in [
        ("meta", '{"budget": "1"}', "meta must be an object"),
        ("projects", '[{"id": "p", "cost": "1"}]', "projects must be a list"),
        ("voters", '[{"id": "a"}]', "voters must be a list"),
    ]:
        good = '{"meta": {"budget": "1"}, "projects": [{"id": "p", "cost": "1"}],'
        good += ' "voters": [{"id": "a"}]}'
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_instance(good.replace(f'"{key}": {value}', f'"{key}": 5'))
    with pytest.raises(FormatError, match=r"^bad budget '1/0'$"):
        parse_pabulib(PB_FILE.replace("budget;2", "budget;1/0"))
    with pytest.raises(FormatError, match=r"^line 9: bad cost '1/0'$"):
        parse_pabulib(PB_FILE.replace("q;1", "q;1/0"))
    with pytest.raises(FormatError, match=r"^line 9: bad cost 'abc'$"):
        parse_pabulib(PB_FILE.replace("q;1", "q;abc"))
    with pytest.raises(
        FormatError, match=r"^meta: bad rational '1/0' \(Fraction\(1, 0\)\)$"
    ):
        parse_instance('{"meta": {"budget": "1/0"}}')
    head = '{"meta": {"budget": "1"}, "projects": [{"id": "p", "cost": "1"}], '
    for parse, text, message in [
        (parse_instance, '{"meta": {"budget": "1"}, "projects": ["p"]}',
         r"projects\[0\]: expected an object with an id"),
        (parse_instance, head + '"voters": [["a"]]}',
         r"voters\[0\]: expected an object with an id"),
        (parse_instance, head + '"voters": [{"id": "a"}, {"id": "a"}]}',
         r"voters\[1\]: duplicate voter id 'a'"),
        (parse_instance, head + '"voters": [{"id": "a", "utilities": ["p"]}]}',
         r"voters\[0\]: utilities must be an object"),
        (parse_pabulib, PB_FILE.replace("budget;2", "budget"),
         "line 4: META rows need key;value"),
        (parse_pabulib, PB_FILE.replace("project_id;cost", "project_id;price"),
         "line 7: PROJECTS header needs project_id and cost"),
        (parse_pabulib, PB_FILE.replace("voter_id;vote", "voter;vote"),
         "line 11: VOTES header needs voter_id and vote"),
        (parse_pabulib, PB_FILE.replace("q;1", "q;0"), "nonpositive cost for project q"),
    ]:
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse(text)


def test_fixtures_round_trip():
    for name in FIXTURES:
        inst = get_fixture(name)
        again = parse_instance(serialize_instance(inst))
        assert again == inst, name
        shipped = (INSTANCES / f"{name}.json").read_text(encoding="utf-8")
        assert serialize_instance(inst) == shipped, name
    assert sorted(p.stem for p in INSTANCES.glob("*.json")) == sorted(FIXTURES)
    with pytest.raises(KeyError, match="unknown fixture"):
        get_fixture("no_such_fixture")


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


def pb_votes(projects_header, project_rows, votes_header, vote_rows):
    """PB_FILE with its PROJECTS and VOTES sections replaced."""
    head = PB_FILE.split("PROJECTS\n")[0]
    return "\n".join(
        [head + "PROJECTS", projects_header, *project_rows, "VOTES", votes_header, *vote_rows]
    ) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        # Extra columns.
        pb_votes("project_id;name;cost", ["p;park;1", "q;quay;1"],
                 "voter_id;age;vote", ["a;30;p,q", "b;41;q"]),
        # Columns in another order.
        pb_votes("cost;project_id", ["1;p", "1;q"], "vote;voter_id", ["p,q;a", "q;b"]),
        # Spaces around fields and around whole lines.
        pb_votes("project_id ; cost", [" p ;1", "q; 1 "], " voter_id;vote", ["a ; p,q", "  b;q  "]),
        # CRLF line ends and blank lines.
        PB_FILE.replace("\n", "\r\n").replace("VOTES", "\r\nVOTES\r\n").replace("b;q", "\r\nb;q"),
        # A header that repeats a column name: a row reads the last column
        # of that name it actually has.
        pb_votes("project_id;cost;cost", ["p;1", "q;7;1"],
                 "voter_id;vote;vote", ["a;p,q", "b;zz;q"]),
    ],
    ids=["extra-columns", "reordered", "spaces", "crlf-blank-lines", "repeated-column"],
)
def test_parse_pabulib_reads_columns_by_header(text):
    assert parse_pabulib(text) == parse_pabulib(PB_FILE)


@pytest.mark.parametrize(
    "text, message",
    [
        (pb_votes("project_id;cost", ["p;1", "q"], "voter_id;vote", ["a;p,q"]),
         "line 9: row has no cost field"),
        (pb_votes("project_id;cost", ["p;1", "q;1"], "voter_id;age;vote", ["a;30;p,q", "b;41"]),
         "line 13: row has no vote field"),
        (pb_votes("cost;project_id", ["1;p", "1"], "voter_id;vote", ["a;p"]),
         "line 9: row has no project_id field"),
        (pb_votes("project_id;cost", ["p;1"], "voter_id;vote;vote", ["a;p", "b"]),
         "line 12: row has no vote field"),
        (PB_FILE.replace("\n", "\r\n\r\n").replace("b;q", "b"),
         "line 25: row has no vote field"),
    ],
    ids=["short-project", "short-vote", "no-project-id", "repeated-column", "crlf"],
)
def test_parse_pabulib_short_row_names_field_and_line(text, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_pabulib(text)


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
    monkeypatch.setattr(config, "LP_MAX_VARS", 2)
    two_camps = str(INSTANCES / "two_camps.json")
    assert main(["check", "priceable", two_camps, "--bundle", "c1,c2,c3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: 4 variables exceeds cap 2\n"


def test_cli_enumeration_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(config, "ENUM_MAX_BITS", 2)
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


def _python_m_pbprop(*argv, **environ):
    import os
    import subprocess
    import sys

    src = str(Path(pbprop.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, "-m", "pbprop", *argv],
        env=env | environ, capture_output=True, text=True, timeout=300,
    )


def test_python_m_pbprop_runs_the_cli():
    done = _python_m_pbprop("paper-verify")
    assert done.returncode == 0, done.stderr
    assert done.stdout == PAPER_VERIFY


@pytest.mark.parametrize("argv, var, value", [
    (["paper-verify"], "PBPROP_ENUM_MAX_BITS", "abc"),
    (["paper-verify"], "PBPROP_PAV_MAX_PROJECTS", "-1"),
    (["search", "--assume", "pjr", "--conclude", "ejr"], "PBPROP_ENUM_MAX_BITS", "1.5"),
])
def test_cli_bad_cap_value_exits_2(argv, var, value):
    done = _python_m_pbprop(*argv, **{var: value})
    assert (done.returncode, done.stdout) == (2, "")
    want = f"error: {var} must be a non-negative integer, not {value!r}\n"
    assert done.stderr == want


def test_cli_malformed_input_exits_2_not_1(tmp_path):
    """Malformed input exits 2, never 1, the status of a Violated verdict.
    All but the zero cost once ended in a traceback with exit status 1."""
    json_text = '{"meta": {"budget": "1"}, "projects": [], "voters": []}'
    runs = {
        "budget.pb": (PB_FILE.replace("budget;2", "budget;1/0"), []),
        "cost.pb": (PB_FILE.replace("q;1", "q;1/0"), []),
        "meta.json": (json_text.replace('{"budget": "1"}', "5"), []),
        "projects.json": (json_text.replace('"projects": []', '"projects": 5'), []),
        "voters.json": (json_text.replace('"voters": []', '"voters": 5'), []),
        "threshold.json": (MINIMAL, ["--threshold", "1/0"]),
        "zero-cost.pb": (PB_FILE.replace("q;1", "q;0"), []),
    }
    for name, (text, flags) in runs.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        done = _python_m_pbprop("run", "rulex", str(path), *flags)
        assert (done.returncode, done.stdout) == (2, ""), (name, done.stderr)
        assert done.stderr.startswith("error: ") and "\n" not in done.stderr[:-1]


def test_cli_unknown_bundle_project_message_is_bare(capsys):
    common_tail = str(INSTANCES / "common_tail.json")
    assert main(["check", "core", common_tail, "--bundle", "c1,zz"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bundle references unknown projects: ['zz']\n"


@pytest.mark.parametrize("value, reason", [
    ("1/0", "Fraction(1, 0)"),
    ("abc", "Invalid literal for Fraction: 'abc'"),
])
def test_cli_bad_threshold_names_flag_and_value(capsys, value, reason):
    common_tail = str(INSTANCES / "common_tail.json")
    assert main(["run", "rulex", common_tail, "--threshold", value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --threshold: bad rational {value!r} ({reason})\n"


def test_cli_failed_self_check_exits_3(monkeypatch, capsys):
    from pbprop import axioms

    monkeypatch.setattr(axioms, "validate_core_witness", lambda *args: False)
    common_tail = str(INSTANCES / "common_tail.json")
    assert main(["check", "core", common_tail, "--bundle", "c1,c2,c3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: core witness fails: CoreWitness(")

    # The LP's read-back check of its own point fails the same way.
    from pbprop import linsolve

    monkeypatch.setattr(linsolve, "_satisfies", lambda rows, assignment: False)
    split_ten = str(INSTANCES / "split_ten.json")
    assert main(["check", "priceable", split_ten, "--bundle", "c1,c6"]) == 3
    assert capsys.readouterr() == ("", "error: simplex assignment violates the system\n")


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
    # A count below its minimum is a usage error that names the flag.
    capsys.readouterr()
    for argv, flag in (
        (["search", "--assume", "pjr", "--conclude", "ejr", "--trials", "-3"], "--trials"),
        (["gen", "random", "--seed", "1", "--max-voters", "0"], "--max-voters"),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument {flag}: " in err and "below the minimum" in err
    # A count that is not an integer names the flag and the text given.
    assert main(["gen", "random", "--seed", "1", "--max-voters", "abc"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --max-voters: invalid int value: 'abc'" in err


def test_cli_reports_are_deterministic(quartet_file, capsys):
    main(["check", "pjr", quartet_file, "--bundle", "c2,c3"])
    first = capsys.readouterr().out
    main(["check", "pjr", quartet_file, "--bundle", "c2,c3"])
    assert capsys.readouterr().out == first


PAPER_VERIFY = f"""\
pbprop report v1 (tool {pbprop.__version__})
rules-walkthrough               pass  phragmen/pav/rule_x all as documented
pjr-violation-witness           pass  3/5 < 7/10
laminar-recognition-split       pass  split 2*3 = 1*6
rules-skip-unanimous-project    pass  both rules fill with cheap projects
representative-but-unpriceable  pass  pjr/ejr/core hold, priceability fails
priceable-but-not-pjr           pass  3/5 < 4/5
core-blocked-by-cheap-stack     pass  blocking pair fails u-affordability
priceable-but-not-ejr           pass  personal projects shadow the shared tail
8/8 fixtures pass
"""


def test_cli_paper_verify(capsys):
    assert main(["paper-verify"]) == 0
    out = capsys.readouterr().out
    assert out == PAPER_VERIFY


def _edit_verdict(axiom, bundle, **changes):
    """Replace fields of one checker's verdict on one bundle only."""
    def patch(monkeypatch):
        real = MAIN_CHECKERS[axiom]

        def edited(inst, w):
            verdict = real(inst, w)
            if frozenset(w) != bundle:
                return verdict
            return dataclasses.replace(verdict, **{
                k: change(verdict) for k, change in changes.items()})

        monkeypatch.setitem(MAIN_CHECKERS, axiom, edited)
    return patch


def _flipped(verdict):
    return VIOLATED if verdict.satisfied else SATISFIED


def _edit_row(name, **changes):
    """Change what one row of the table expects."""
    def patch(monkeypatch):
        table = tuple(
            dataclasses.replace(r, **changes) if r.name == name else r
            for r in verify.TABLE
        )
        monkeypatch.setattr(verify, "TABLE", table)
    return patch


def _recognize_child(monkeypatch):
    real = verify.recognize_laminar
    monkeypatch.setattr(verify, "recognize_laminar", lambda inst: real(inst).child)


MUTATIONS = [
    ("rules-walkthrough", lambda mp: mp.setattr(
        verify, "pav", lambda inst: (frozenset({"c1", "c4"}), Fraction(7, 2)))),
    ("pjr-violation-witness", _edit_verdict(
        "pjr", frozenset({"c2", "c3"}),
        witness=lambda v: dataclasses.replace(v.witness, group=frozenset({"v1"})))),
    ("pjr-violation-witness", _edit_row(
        "pjr-violation-witness",
        cohesive=({"v1", "v2"}, {"c1": Fraction(7, 10)}, Fraction(3, 5),
                  Fraction(3, 4)))),
    ("pjr-violation-witness", _edit_row(  # v2 rates c1 at 7/10, below alpha
        "pjr-violation-witness",
        cohesive=({"v1", "v2"}, {"c1": Fraction(4, 5)}, Fraction(3, 5),
                  Fraction(4, 5)))),
    ("laminar-recognition-split", _recognize_child),
    ("rules-skip-unanimous-project", lambda mp: mp.setitem(
        verify.RULES, "rulex", lambda inst: (frozenset({"c6"}), None))),
    ("representative-but-unpriceable",
     _edit_verdict("ejr", frozenset({"c1", "c2", "c3", "c4"}), status=_flipped)),
    ("priceable-but-not-pjr", _edit_verdict(
        "priceable", frozenset({"t2", "c1", "c2", "c3"}),
        certificate=lambda v: PriceSystem(Fraction(-1), v.certificate.payments))),
    ("priceable-but-not-pjr", _edit_row(
        "priceable-but-not-pjr",
        cohesive=({"s1", "s2"}, {"t1": Fraction(2, 5), "t2": Fraction(2, 5)},
                  Fraction(1, 2), Fraction(4, 5)))),
    ("core-blocked-by-cheap-stack", _edit_verdict(
        "core", tall_stack_bundle(),
        witness=lambda v: dataclasses.replace(v.witness, target=frozenset({"c"})))),
    ("priceable-but-not-ejr",
     _edit_verdict("priceable", frozenset({"c1", "c2", "c3"}), status=_flipped)),
]


@pytest.mark.parametrize(
    "item, mutate", MUTATIONS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(MUTATIONS)]
)
def test_paper_verify_fails_exactly_the_mutated_item(item, mutate, monkeypatch, capsys):
    mutate(monkeypatch)
    assert main(["paper-verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if "  FAIL  " in line] == [item]
    assert [line.split()[0] for line in lines if "  pass  " in line] == [
        line.split()[0] for line in PAPER_VERIFY.splitlines()[1:-1]
        if line.split()[0] != item
    ]
    assert lines[-1] == "7/8 fixtures pass"


def _election_text():
    """A seeded .pb election: 10 projects, 60 voters, ballots drawn from 12
    types (so they repeat) plus 20 drawn one by one."""
    rng = random.Random(14)
    projects = [f"p{j}" for j in range(10)]
    types = [rng.sample(projects, rng.randint(1, 4)) for _ in range(12)]
    ballots = [rng.choice(types) for _ in range(40)]
    ballots += [rng.sample(projects, rng.randint(0, 5)) for _ in range(20)]
    lines = ["META", "key;value", "vote_type;approval", "budget;2500", "PROJECTS", "project_id;cost"]
    lines += [f"{c};{rng.randint(1, 9) * 100}" for c in projects]
    lines += ["VOTES", "voter_id;vote"] + [f"v{i:02d};{','.join(b)}" for i, b in enumerate(ballots)]
    return "\n".join(lines) + "\n"


def _outcomes(instance):
    """The bundles of Phragmen and Rule X, where each is defined, as
    --bundle arguments."""
    found = []
    for rule in (phragmen, rule_x):
        try:
            found.append(",".join(sorted(rule(instance)[0])))
        except NotApprovalError:
            pass
    return found


def _pinned_sweep(gen_out):
    """The argv lists of the pinned CLI sweep: every subcommand on every
    shipped instance and on the seeded election.pb (``_election_text``),
    run by bare file name from a directory that holds them."""
    axioms = sorted(set(MAIN_CHECKERS) - {"priceable1"})
    calls = []
    for path in sorted(INSTANCES.glob("*.json")):
        name = path.name
        for rule in ("phragmen", "pav", "rulex"):
            for extra in ([], ["--all-ties"], ["--threshold", "1/2"]):
                calls.append(["run", rule, name, *extra])
        calls.append(["laminar", name])
        projects = load_instance(path).projects
        full = 2 ** len(projects) - 1
        for mask in sorted({k * full // 5 for k in range(6)}):
            bundle = ",".join(c for i, c in enumerate(projects) if mask >> i & 1)
            for axiom in axioms:
                calls.append(["check", axiom, name, "--bundle", bundle])
            calls.append(["check", "priceable", name, "--bundle", bundle, "--b-min", "1"])
        calls.append(["check", "core", name, "--bundle", "c1,zz"])
    calls += [
        ["paper-verify"],
        ["search", "--assume", "ejr", "--conclude", "core", "--trials", "300"],
        ["search", "--assume", "pjr", "--conclude", "ejr", "--trials", "50"],
        ["gen", "laminar", "--seed", "3"],
        ["gen", "laminar", "--seed", "3", "--out", gen_out],
        ["gen", "random", "--seed", "2", "--cardinal"],
        ["run", "rulex", "two_camps.json", "--threshold", "1/0"],
        ["laminar", "missing.json"],
    ]
    # Reports whose witnesses, payments or LP rows pass through sets and
    # dicts, so that running the sweep under two hash seeds compares them:
    # ties and a threshold together, more bundles (the first project, the
    # first two, all of them and the rule outcomes) with both --b-min
    # values, a longer search, and the election's rules and price systems.
    more = [["search", "--assume", "pjr", "--conclude", "ejr", "--trials", "1500"]]
    for path in sorted(INSTANCES.glob("*.json")):
        name = path.name
        for rule in ("phragmen", "pav", "rulex"):
            more.append(["run", rule, name, "--all-ties", "--threshold", "1/2"])
        instance = load_instance(path)
        ids = sorted(instance.projects)
        for bundle in ["", ids[0], ",".join(ids[:2]), ",".join(ids), *_outcomes(instance)]:
            for b_min in ("0", "1"):
                more.append(["check", "priceable", name, "--bundle", bundle, "--b-min", b_min])
            for axiom in ("core", "ejr", "ejr1", "pjr", "pjr1", "bpjr", "mwvpjr"):
                more.append(["check", axiom, name, "--bundle", bundle])
    for rule in ("phragmen", "pav", "rulex"):
        for extra in ([], ["--all-ties"], ["--threshold", "1/2"], ["--all-ties", "--threshold", "1/2"]):
            more.append(["run", rule, "election.pb", *extra])
    for bundle in _outcomes(parse_pabulib(_election_text())):
        for b_min in ("0", "1"):
            more.append(["check", "priceable", "election.pb", "--bundle", bundle, "--b-min", b_min])
    seen = set(map(tuple, calls))
    for argv in more:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            calls.append(argv)
    return calls


# One sha256 per call of _pinned_sweep over its exit status, stdout and
# stderr, cut to 8 hex digits and concatenated in sweep order.
PINNED_REPORTS = (
    "bf7668c3bf7668c3efb63926bf7668c3bf7668c3da0fe87b3287a2a73287a2a70b37b953"
    "b9fc5a426ddc8baecd837e42b9fc5a42570f705cb7c1b43bb9fc5a42bc665eb5706fc86b"
    "7c293a29d4ca706036fb8aba6ddc8bae03b8828bb9fc5a42f5fa841f97d9ededb9fc5a42"
    "bc665eb53693699085c9e97944af919844af91986ddc8baebbf5a408b9fc5a42ad132a9b"
    "e2dae140b9fc5a42bc665eb539e3b4fdb9cad44d1dedcb3c0e8453a46ddc8baef0ef2ed6"
    "b9fc5a42fda155e3395994dfb9fc5a42bc665eb53e30db825df2214500ea656700ea6567"
    "6ddc8bae6108ee90b9fc5a42f733f790488a0c1eb9fc5a42bc665eb52b61ea3dbd62aa21"
    "46fc8409ee09aa576ddc8baecb1785beb9fc5a42cc63146b1ee87293b9fc5a42bc665eb5"
    "3ec831827171aa72e6864cf1e6864cf1d4b5c48caf5fc750ba47e2a5af5fc750e93dd707"
    "fd7d07c3e93dd707ca6c723869f7fc3fca6c72384b7eceee1145dd832b6daa0df084c3fe"
    "e178ffe8c65807b444701a0cbc665eb50adea58fd498a4ceeb0f85d827ba490068e353f4"
    "610fb696dddca62cf04409264bb80dc827d9d841bc665eb5eaa5ba8b9c9b6096b8de6591"
    "6e4eacd1159e7c13774e3c37ae21dcdf6fc74f34aceade593e0038d0bc665eb5d6a732d7"
    "1bf00386e7ce2b59e7ce2b598e6d307057e96164c07f8d70cd045731ab35f5c096d26ebe"
    "bc665eb5a89a034e1b5bfc67e275a8d211ce2ffc6c2aab5123ea28b44f348d2d0f3916f6"
    "8d3672206812a081bc665eb515b033ae49f666eeb374c898ea5fbe4407a787cc2750dd02"
    "4b081aebfc5ec4afd5f1f2a6e7874ababc665eb527897991ac4ad8e7bf7a2257bf7a2257"
    "d4b5c48ca4b57e05dc3db4e8a4b57e05a56f50947c8147eda56f50940fd48b1bf68c0d33"
    "0fd48b1b3d9a78218ed537bc3d80a94731225ae4c7b61c9f859c908231225ae4fe907f3c"
    "2f49e81ccc5afb3b5908fbd25908fbd22bfa2d56a22f8dc731225ae41c395f3e75e8438b"
    "31225ae41010e5a31460aaebd31d1fae1cfe6f481cfe6f48eea27a23347e486631225ae4"
    "698b1b04287e230231225ae4215f4ed9505bb5e464b6004177ab9e4e77ab9e4ea68f1ff2"
    "e99a7df531225ae4b839327a6240a41b31225ae474c5d60803fa049f69a1088ea00a2483"
    "a00a24837d721453c88811ee31225ae4dcce8d5622af129331225ae47037ed331527391b"
    "ea038a49441dd1b7441dd1b72063cc435a93df3931225ae44c88915469f7f36531225ae4"
    "318dcb51a599301f20053c71091838ba091838bad4b5c48c82a0bf12a51eff0682a0bf12"
    "c7fe5d039c4dd2a0c7fe5d0324dcf103d3c6388b24dcf1039c5aac32b764ee553bc7d090"
    "42c85f76318b2d07acf4fcaef95c6867bc665eb5549203334a9a11bf6752c15d6752c15d"
    "5830f408f7299efa2f1413ec1d69a6f704e4c784524bde4fbc665eb56010936eb6994ea5"
    "9c7b69469c7b694689443964aec62503905ddc41667a93a3c14657811711ebfebc665eb5"
    "dd47bd697e16ea7a204a3a7b204a3a7b6f9c2d5765d3be89d002d4ceac6f3bad975bf6f9"
    "3c47b873bc665eb5f0cadc518520bbc9bedaf6cfbedaf6cf162367ff2a2fa3eb6b9df89b"
    "8707d4f3336b66c82ba7a029bc665eb5ea0a524cc34908fa216f427f216f427ffd8535ec"
    "a62fa5040f5873aa79843608f2188dbec25410fcbc665eb51e9a7caf672e4e3e20d9e8d7"
    "20d9e8d7d4b5c48cfbf911b6a40a866efbf911b6eddc21bc78ed8276eddc21bcebbae194"
    "e81dd201ebbae1949d71c5d7e4ce527cf5f5e8e6a649c540b47252f65cf590b34b768b68"
    "bc665eb5974cdb023653474136d0c5a72b6405d9ce4e733ba67a4bce06f0a0ad29368252"
    "caed9e6dbdb80d05bc665eb5f749e0f38b8ac53b8489e1308489e1300d8212d56dc28b23"
    "553fb48d0e7b9d0fe18f312c3f836c05bc665eb5b13478e584e8adc4dda5e3e3dda5e3e3"
    "db9722b1a9708d1307111f7762b3e75fc1b10b0ac311ce53bc665eb54d427bafd1ed55ab"
    "7b49cb367b49cb3617041bac630af67650e578c5f2184c993bc3cedaca36296cbc665eb5"
    "4a6b6dbf42aa27afc76b2b41c76b2b41a9c3ccde95e65b5c483c9b9757b48a1227982df0"
    "bc363763bc665eb52f968536c5781bcc7d0e528c7d0e528c34ed1fe7bf7668c3bf7668c3"
    "1567d60dbf7668c3bf7668c3080eae7f85ff4331d6a10ea5be23d5f5b9fc5a426ddc8bae"
    "63733d1fb9fc5a42feffa00ee05763b3b9fc5a42bc665eb5a213ada389051e222fe8e66e"
    "71fed4846ddc8baec80e8a0fb9fc5a42eeeadf137ee02834b9fc5a42bc665eb5c16db8c9"
    "6e0f528cc0e5cf15c0e5cf156ddc8baed51eedf8b9fc5a42e61f788c631149a8b9fc5a42"
    "bc665eb5b3de45ef6cbc1d63758b2162758b21626ddc8bae0336cbe2b9fc5a4254045bcb"
    "7a4cad90b9fc5a42bc665eb577873ae17377db0fd9ec4848d9ec48486ddc8bae73ee2e45"
    "b9fc5a425d34a3bf5a8cb3b2b9fc5a42bc665eb593a1d521a0374f75b53aacf7b53aacf7"
    "6ddc8baedfb386b0b9fc5a42128c65aa181b9884b9fc5a42bc665eb5a591f2c333ec55a5"
    "881d8c14881d8c14d4b5c48cd9d31b1bfe53a8f3d9d31b1b445855d6283fd63d445855d6"
    "4d5470c7661181364d5470c7ec550e48af886e43547a8a576595c4f94d46a65ce2ae5389"
    "1a1fe73177e4d154ee16f6e4b026d8bab2a8eb50b2a8eb503806668e50c46baaa15f889b"
    "00d0c86c6a1b770fd7e027aa4133675c933ddd67a15aaf8bd52008e3d52008e3cfba128d"
    "3bf1f28ef86e52aa07d6a8b3686a00fa84551ebfb1fe0403f767cde7aa34e38bb313a47b"
    "b313a47b699beb7a3578f5e1b94539e49f1afdef5db0e0d87070009b127b1157b4429ef9"
    "0e3a878a52d2bae852d2bae8513fa27c494d3742b0ab129e54e62e118b8bd9fffa4c8b78"
    "4f5e7b2704dfac74908aedbfb8b2282bb8b2282b31b47ae9459c0d06d03abab22f2d7690"
    "8c1c59968c9ee5f3a3c28b91855ffc0247f70a4215c62cb815c62cb8d4b5c48c7202158c"
    "f476f991fe67ebd2d46a698ab0efbbc4b18e9ba819fc57e7e0530ec16eea423cefb63926"
    "696caa0b0b37b953d4ca706081017e65b93ec92bd1cb27ab53a03e6e059964094cb2f7c0"
    "47db8c316ddc8baebc665eb544af9198e6864cf100ea6567ba47e2a5fd7d07c369f7fc3f"
    "eb0f85d82bc129d8864fa55d0502fa14a26a1f3202c93be01eeb109acad0658edb97f7aa"
    "bc665eb578507d3f6c9600cd24e556df536daf278624782c8f99f91d630f60f33400e41e"
    "bc665eb5bf7a225750db3db5d81af1d27f0ff43549ed2f0b8a49b41cb3a443dff97609c5"
    "ad61d008bc665eb5dc3db4e87c8147edf68c0d335908fbd26b7677a56b7677a52e77795e"
    "90212ec9b5ec2e196e2fd805eceb3a7de14a6b5cb2d3b51a2428dc6a2428dc6a74e42c8a"
    "38732ebdd9ac17e36d91cc64a1c4615769e3f034dcef4f71091838baf412dd63f412dd63"
    "7c5b4d7889cd152a9af502e950d0529b2507417929042a0423732265a51eff069c4dd2a0"
    "d3c6388b6752c15d77e6105b77e6105b346f1f1378098d06b4d2342493df694dbeb6d3cd"
    "314e4a9bbc665eb53b0b7ea13b0b7ea1c970ba7cb761dd782aa346faefcdc3aa4f1360e6"
    "277c191cbc665eb520d9e8d70d8d45320d8d45325993fc84bd52e3cd8febde29e1144996"
    "8b65020fc62d8c74bc665eb5a40a866e78ed8276e81dd20136d0c5a7d7da1e2ed7da1e2e"
    "9de363a2475ba0b71b04e9ea8ec381a96f5b72c945e8b804bc665eb55a2c74075a2c7407"
    "8822d32acc48d0533a0604b7ea483ff1e16c266a3ba04e53bc665eb57d0e528cb019e217"
    "b019e217a8ad7e1e0e106d90f209380cb243efa6fee41b00c3cbc18fbc665eb5a39ed6e8"
    "3649a83ffb6d7544b9d8e87f5f57473abdf107912e3e2690f1bb8a61bc665eb5d97ad75d"
    "6b7a9e6e695fcfaa2fe8e66e826fbeca826fbeca1300bb75864c2e3ada4854bc7f99db62"
    "0d4fb0ee6ddc8baebc665eb5451165bb451165bbf62a660797e5e4582b8574f8d4bbd9f2"
    "784f09946ddc8baebc665eb5881d8c14fe53a8f3283fd63d66118136b2a8eb50cc686200"
    "cc6862009ae5b1ef414836ec21a1e3a0a3991aeaa705b49bd93432b24b6d8aa83e01ad73"
    "3e01ad73afe8bfce0d9cddb9e9ce94922c8f38cbb9b3696150fc0cfb5251fa2715c62cb8"
    "5a51677d5a51677d233cd593837ce8177f6c442a41ba7ad2106ab589876066485ab3cc52"
    "23fb755523fb755523fb755523fb7555c725894ebc0a958dc725894ebc0a958d81e4f78e"
    "81e4f78e81e4f78e81e4f78e3cbcedb93cbcedb9787bb95f787bb95f"
)


def test_cli_reports_are_pinned(monkeypatch, capsys, tmp_path):
    """Every report line, error message and exit status of a fixed sweep
    stays byte for byte the same; a mismatch names the first changed call.
    CI runs it under two hash seeds, which must give the same reports."""
    for path in INSTANCES.glob("*.json"):
        shutil.copy(path, tmp_path)
    (tmp_path / "election.pb").write_text(_election_text(), "utf-8")
    monkeypatch.chdir(tmp_path)
    gen_out = tmp_path / "gen.json"
    sweep = _pinned_sweep(str(gen_out))
    digests, reports = [], []
    for argv in sweep:
        status = main(argv)
        out, err = capsys.readouterr()
        blob = f"{status}\0{out}\0{err}"
        digests.append(hashlib.sha256(blob.encode()).hexdigest()[:8])
        reports.append((status, out, err))
    pinned = [PINNED_REPORTS[i : i + 8] for i in range(0, len(PINNED_REPORTS), 8)]
    changed = next((i for i, (a, b) in enumerate(zip(digests, pinned)) if a != b), None)
    assert changed is None, (
        f"pbprop {' '.join(sweep[changed])} changed: exit {reports[changed][0]}\n"
        f"stdout:\n{reports[changed][1]}stderr:\n{reports[changed][2]}"
    )
    assert len(digests) == len(pinned)
    gen_index = next(i for i, argv in enumerate(sweep) if "--out" in argv)
    assert gen_out.read_text("utf-8") == reports[gen_index - 1][1]
