"""Reading and writing instances.

Native format is JSON with rational numbers encoded as strings ("7/10",
"0.35"); there is also a reader for the semicolon-separated .pb election
format (approval ballots only).
"""

from __future__ import annotations

import json

from .model import ONE, InputError, PBInstance, as_fraction, validate


class FormatError(InputError):
    """Input file does not match the expected schema."""


def _rational(value, what, why=False):
    """Every rational of a JSON or .pb file is read here; a bad one raises
    FormatError("<what> <value!r>"), followed by the reason if ``why``."""
    try:
        return as_fraction(value)
    except (ValueError, TypeError) as exc:
        reason = f" ({exc})" if why else ""
        raise FormatError(f"{what} {value!r}{reason}") from exc


def _fraction_field(container, key, where):
    if key not in container:
        raise FormatError(f"{where}: missing {key!r}")
    return _rational(container[key], f"{where}: bad rational", why=True)


def parse_instance(text: str) -> PBInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    for key, kind in (("meta", dict), ("projects", list), ("voters", list)):
        if not isinstance(data.get(key, kind()), kind):
            raise FormatError(f"{key} must be {'an object' if kind is dict else 'a list'}")
    meta = data.get("meta", {})
    budget = _fraction_field(meta, "budget", "meta")
    description = meta.get("description", "")
    projects = []
    cost = {}
    for idx, entry in enumerate(data.get("projects", [])):
        where = f"projects[{idx}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise FormatError(f"{where}: expected an object with an id")
        pid = str(entry["id"])
        if pid in cost:
            raise FormatError(f"{where}: duplicate project id {pid!r}")
        projects.append(pid)
        cost[pid] = _fraction_field(entry, "cost", where)
    utilities = {}
    voters = []
    for idx, entry in enumerate(data.get("voters", [])):
        where = f"voters[{idx}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise FormatError(f"{where}: expected an object with an id")
        vid = str(entry["id"])
        if vid in utilities:
            raise FormatError(f"{where}: duplicate voter id {vid!r}")
        voters.append(vid)
        row = entry.get("utilities", {})
        if not isinstance(row, dict):
            raise FormatError(f"{where}: utilities must be an object")
        utilities[vid] = {
            str(c): _fraction_field(row, c, f"{where}.utilities") for c in row
        }
    for vid, row in utilities.items():
        for c in row:
            if c not in cost:
                raise FormatError(f"voter {vid} rates unknown project {c!r}")
    instance = PBInstance.build(voters, projects, cost, utilities, budget, description)
    report = validate(instance)
    if not report.ok:
        raise FormatError("; ".join(report.problems))
    return instance


def load_instance(path) -> PBInstance:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".pb"):
        return parse_pabulib(text)
    return parse_instance(text)


def serialize_instance(instance: PBInstance) -> str:
    data = {
        "meta": {
            "budget": str(instance.budget),
            "description": instance.description,
        },
        "projects": [
            {"id": c, "cost": str(instance.cost[c])} for c in instance.projects
        ],
        "voters": [
            {
                "id": v,
                "utilities": {
                    c: str(u) for c, u in instance.utilities[v].items() if u != 0
                },
            }
            for v in instance.voters
        ],
    }
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


# The fields a .pb section's header and each of its rows must have.
_NEEDED = {"PROJECTS": ("project_id", "cost"), "VOTES": ("voter_id", "vote")}


def _pb_columns(header, needed):
    """Per needed field, the header's indexes of that name, last first."""
    return [
        [i for i in reversed(range(len(header))) if header[i] == key] for key in needed
    ]


def _pb_fields(fields, columns, needed, lineno):
    """The needed fields of a row, each read from the last column of its
    name that the row has, as ``dict(zip(header, fields))`` would."""
    values = []
    for key, at in zip(needed, columns):
        i = next((i for i in at if i < len(fields)), None)
        if i is None:
            raise FormatError(f"line {lineno}: row has no {key} field")
        values.append(fields[i].strip())
    return values


def parse_pabulib(text: str) -> PBInstance:
    """Read a .pb participatory-budgeting election (approval ballots only).

    A PROJECTS or VOTES row is read by the column indexes of its section's
    header.  Each distinct vote string is split once, and every voter
    casting it gets the same (read-only) row.
    """
    section = None
    header = None
    meta = {}
    cost = {}
    votes = {}
    order = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.upper() in ("META", "PROJECTS", "VOTES"):
            section = line.upper()
            header = None
            continue
        if section is None:
            raise FormatError(f"line {lineno}: content before any section header")
        if section == "META":
            fields = [f.strip() for f in line.split(";")]
            if header is None and fields[:2] == ["key", "value"]:
                header = fields
                continue
            if len(fields) < 2:
                raise FormatError(f"line {lineno}: META rows need key;value")
            meta[fields[0]] = fields[1]
            continue
        needed = _NEEDED[section]
        if header is None:
            header = [f.strip() for f in line.split(";")]
            if not all(key in header for key in needed):
                raise FormatError(
                    f"line {lineno}: {section} header needs {' and '.join(needed)}"
                )
            columns = _pb_columns(header, needed)
            first, second = (at[0] for at in columns)
            width = max(first, second) + 1  # a row this long has both fields
            continue
        fields = line.split(";")
        if len(fields) >= width:
            key, value = fields[first].strip(), fields[second].strip()
        else:
            key, value = _pb_fields(fields, columns, needed, lineno)
        if section == "PROJECTS":
            if key in cost:
                raise FormatError(f"line {lineno}: duplicate project id {key!r}")
            cost[key] = _rational(value, f"line {lineno}: bad cost")
        else:
            order.append(key)
            votes[key] = value
    vote_type = meta.get("vote_type", "approval")
    if vote_type != "approval":
        raise FormatError(f"only approval ballots are supported, not {vote_type!r}")
    if "budget" not in meta:
        raise FormatError("META has no budget")
    budget = _rational(meta["budget"], "bad budget")
    rows = {}  # vote string -> its row
    utilities = {}
    for vid in order:
        vote = votes[vid]
        row = rows.get(vote)
        if row is None:
            row = rows[vote] = {}
            for pid in filter(None, vote.split(",")):
                if pid not in cost:
                    raise FormatError(f"voter {vid} approves unknown project {pid!r}")
                row[pid] = ONE
        utilities[vid] = row
    instance = PBInstance.build(
        order, list(cost), cost, utilities, budget, meta.get("description", "")
    )
    report = validate(instance)
    if not report.ok:
        raise FormatError("; ".join(report.problems))
    return instance
