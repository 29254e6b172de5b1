"""Every input file kind through ``main``: bad documents exit 2 and never raise."""

import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefdecision import ValidationError, parse_problem
from beliefdecision.cli import main
from beliefdecision.problems import read_json

PROBLEM = {
    "states": ["w1", "w2"],
    "acts": [{"name": "f", "utilities": [1, 2]}, {"name": "g", "utilities": [2, 0]}],
    "mass": [{"focal": ["w1"], "mass": 0.5}, {"focal": ["w1", "w2"], "mass": 0.5}],
}
MAPPED = {
    "states": ["w1", "w2"],
    "consequences": ["c1", "c2"],
    "utilities": {"c1": 0.0, "c2": 1.0},
    "acts": [{"name": "f", "consequences": {"w1": ["c1"], "w2": ["c1", "c2"]}}],
    "mass": [{"focal": ["w1", "w2"], "mass": 1.0}],
}
GOALS = {
    "theta": ["t1", "t2"],
    "goals": [{"elements": ["t1"], "weight": 1.0}, {"elements": ["t1", "t2"]}],
    "acts": [
        {"name": "sure", "certain": ["t1"]},
        {"name": "spread", "mass": [{"focal": ["t1", "t2"], "mass": 1.0}]},
    ],
}
CLASSIFY = {
    "classes": ["k1", "k2", "k3"],
    "mass": [{"focal": ["k1", "k2"], "mass": 0.7}, {"focal": ["k3"], "mass": 0.3}],
    "weights": [1, 1, 2],
}
MASS = {"frame": ["a", "b"], "mass": [{"focal": ["a"], "mass": 0.25},
                                      {"focal": ["a", "b"], "mass": 0.75}]}
INDEX = [{"worst": w, "best": b, "alpha": 0.5} for w in ("c1", "c2") for b in ("c1", "c2")]

# (valid document, argv with {} for its path); a document given as the
# index file runs against the MAPPED problem, written as {mapped}
KINDS = {
    "problem": (PROBLEM, ["rank", "{}", "--criterion", "lower"]),
    "mapped": (MAPPED, ["rank", "{}", "--criterion", "pignistic"]),
    "goals": (GOALS, ["goals", "{}", "--mode", "score"]),
    "audit": (GOALS, ["goals", "{}", "--mode", "audit"]),
    "classify": (CLASSIFY, ["goals", "{}", "--mode", "classify"]),
    "mass": (MASS, ["transform", "{}", "--kind", "pignistic"]),
    "index": (INDEX, ["rank", "{mapped}", "--criterion", "jaffray", "--index-file", "{}"]),
}

KEYS = ("states", "acts", "mass", "name", "utilities", "consequences", "focal", "theta",
        "goals", "elements", "weight", "certain", "classes", "weights", "frame", "worst",
        "best", "alpha")
LABELS = ("w1", "w2", "c1", "c2", "t1", "t2", "k1", "k2", "k3", "a", "b", "f")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(LABELS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one field replaced, deleted, or one unknown field or entry added."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(("replace", "delete", "add")))
    if action == "replace":
        parent[path[-1]] = draw(json_values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(KEYS) | st.text(max_size=4))] = draw(json_values)
    else:
        parent.append(draw(json_values))
    return doc


def run(tmp_path, kind, doc, capsys):
    """Write ``doc`` as a file of ``kind``, run its command; return (code, stderr)."""
    mapped = tmp_path / "mapped.json"
    mapped.write_text(json.dumps(MAPPED))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(str(path), mapped=str(mapped)) for a in KINDS[kind][1]]
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_valid_documents_run(tmp_path, capsys, kind):
    assert run(tmp_path, kind, KINDS[kind][0], capsys) == (0, "")


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("kind", sorted(KINDS))
@FUZZ
@given(data=st.data())
def test_arbitrary_json_exits_0_or_2(tmp_path, capsys, kind, data):
    doc = data.draw(st.one_of(json_values, mutated(KINDS[kind][0])))
    code, err = run(tmp_path, kind, doc, capsys)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("validation error: ")


BAD = [
    ("classify", {"classes": [1, 2, 3], "mass": [{"focal": [1, 2], "mass": 1}],
                  "weights": [1, 1, 1]}),
    ("classify", {"classes": "abc", "mass": [{"focal": ["a", "b"], "mass": 1}],
                  "weights": [1, 1, 1]}),
    ("mass", dict(MASS, frame="ab")),
    ("mass", dict(MASS, frame=0)),
    ("mass", dict(MASS, frame=[["a"]])),
    ("goals", dict(GOALS, theta=[["t1"], "t2"])),
    ("goals", dict(GOALS, acts=5)),
    ("goals", dict(GOALS, goals=[{"elements": "t1t2"}])),
    ("goals", dict(GOALS, goals=[{"elements": 1}])),
    ("goals", dict(GOALS, acts=[{"name": "sure", "certain": 1}])),
    ("goals", dict(GOALS, extra=1)),
    ("goals", dict(GOALS, acts=[{"name": "x", "certain": ["t1"]}] * 2)),
    ("audit", dict(GOALS, acts=[{"name": 5, "certain": ["t1"]}])),
    ("index", [dict(INDEX[0], worst=["c1"])] + INDEX[1:]),
    ("index", [dict(INDEX[0], worst="zz")] + INDEX[1:]),
    ("index", INDEX + INDEX[:1]),
    ("index", [dict(INDEX[0], note="x")] + INDEX[1:]),
    ("problem", dict(PROBLEM, utilities={"c1": 1.0})),
    ("problem", dict(PROBLEM, acts=[{"name": "f", "utilities": [10**400, 1]}])),
    ("mass", dict(MASS, mass=[{"focal": ["a", "b"], "mass": 10**400}])),
]


@pytest.mark.parametrize("kind,doc", BAD)
def test_rejected_with_validation_error(tmp_path, capsys, kind, doc):
    code, err = run(tmp_path, kind, doc, capsys)
    assert code == 2
    assert err.startswith("validation error: ")


def _with(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# one bad subset per place a subset is parsed; the message names where it is
SUBSET_ERRORS = [
    ("mapped", ("acts", 0, "consequences", "w2"), [],
     "act 'f', state 'w2' must be a non-empty list of labels"),
    ("mapped", ("acts", 0, "consequences", "w2"), ["c9"],
     "act 'f', state 'w2': label 'c9' is not in the frame ('c1', 'c2')"),
    ("problem", ("mass", 1, "focal"), ["w3"],
     "mass[1].focal: label 'w3' is not in the frame ('w1', 'w2')"),
    ("goals", ("goals", 1, "elements"), "t1", "goals[1].elements must be a non-empty list of labels"),
    ("goals", ("acts", 0, "certain"), ["t1", 3],
     "act 'sure': 'certain': label 3 is not in the frame ('t1', 't2')"),
]


@pytest.mark.parametrize("kind,path,value,message", SUBSET_ERRORS)
def test_subset_error_messages(tmp_path, capsys, kind, path, value, message):
    code, err = run(tmp_path, kind, _with(KINDS[kind][0], path, value), capsys)
    assert (code, err) == (2, f"validation error: {message}\n")


def test_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["transform", str(path), "--kind", "pignistic"]) == 2
    assert capsys.readouterr().err.startswith("validation error: ")


@pytest.mark.parametrize("argv", [
    ["rank", "{}", "--criterion", "lower", "--tolerance", "1"],
    ["sweep", "{}", "--criterion", "hurwicz", "--format", "json"],
    ["goals", "{}", "--mode", "audit", "--format", "csv"],
    ["transform", "{}", "--kind", "pignistic", "--tolerance", "1"],
])
def test_options_that_do_nothing_are_gone(tmp_path, capsys, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(PROBLEM))
    assert main([a.format(str(path)) for a in argv]) == 1
    assert "usage error" in capsys.readouterr().err


def test_tolerance_stays_on_choice(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(PROBLEM))
    argv = ["choice", str(path), "--rule", "e-admissibility", "--tolerance", "0.01"]
    assert main(argv) == 0


@pytest.mark.parametrize("command", ["rank", "choice", "sweep"])
def test_emit_normalized_on_every_problem_command(tmp_path, capsys, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(PROBLEM))
    # the option exits before the command's own arguments are checked
    extra = {"rank": ["--criterion", "hurwicz"], "choice": ["--rule", "maximality"],
             "sweep": ["--criterion", "owa", "--steps", "1"]}[command]
    assert main([command, str(path), "--emit-normalized", *extra]) == 0
    assert json.loads(capsys.readouterr().out) == PROBLEM


class TestReadJson:
    def test_stdin_and_streams(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PROBLEM)))
        assert parse_problem("-").act_names == ("f", "g")
        assert parse_problem(io.StringIO(json.dumps(PROBLEM))).act_names == ("f", "g")

    def test_unreadable_path_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            parse_problem(str(tmp_path / "missing.json"))
        with pytest.raises(ValidationError, match="cannot read"):
            read_json(str(tmp_path))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ValidationError, match="invalid JSON"):
            parse_problem(str(path))
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ValidationError, match="cannot read"):
            read_json(str(path))
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_json(io.StringIO("1" * 5000))
