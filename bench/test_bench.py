"""Tests of the benchmark's own parts: the generator and the reference checks.

Run from the root of the repository:

    python3 -m pytest bench -q
"""

import json
import os

import numpy as np
import pytest

import checks
import workloads

DEMO_STATES = ["w1", "w2", "w3"]
DEMO_MASS = [
    {"focal": ["w1"], "mass": 0.4},
    {"focal": ["w1", "w2"], "mass": 0.2},
    {"focal": ["w3"], "mass": 0.1},
    {"focal": ["w1", "w2", "w3"], "mass": 0.3},
]
FOUR_ACTS = [[37, 25, 23], [49, 70, 2], [4, 96, 1], [22, 76, 25]]


def demo_problem(rows):
    return checks.Problem({
        "states": DEMO_STATES,
        "acts": [{"name": f"f{i + 1}", "utilities": row} for i, row in enumerate(rows)],
        "mass": DEMO_MASS,
    })


def snapshot(workload, seed, workdir):
    requests, docs = workloads.build(workload, seed, str(workdir))
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    argvs = [[a.replace(str(workdir), "<dir>") for a in r.get("argv", ["roundtrip"])]
             for r in requests]
    return files, argvs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = snapshot(workload, 7, tmp_path / "a")
    assert snapshot(workload, 7, tmp_path / "b") == first
    other = snapshot(workload, 8, tmp_path / "c")
    assert other[0] != first[0]
    # the same slots, so the same files and the same mix of request kinds
    assert sorted(other[0]) == sorted(first[0])
    assert sorted(a[:1] for a in other[1]) == sorted(a[:1] for a in first[1])


def test_money_scale_inputs_do_not_depend_on_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a, _ = snapshot("eadmissibility", 1, tmp_path / "a")
    b, _ = snapshot("eadmissibility", 2, tmp_path / "b")
    money = [name for name in a if name.startswith("money")]
    assert money and all(a[name] == b[name] for name in money)


def test_generated_masses_are_valid(tmp_path):
    _, docs = workloads.build("lottery", 3, str(tmp_path))
    for doc in docs.values():
        if isinstance(doc, dict) and "mass" in doc:
            assert abs(sum(e["mass"] for e in doc["mass"]) - 1.0) < 1e-12
            assert len({tuple(e["focal"]) for e in doc["mass"]}) == len(doc["mass"])


def test_reference_maximin_on_readme_demo():
    p = demo_problem(FOUR_ACTS[:2])
    scores, lower_better = checks.reference_scores(p, {"criterion": "maximin"}, {})
    assert tuple(scores) == (23.0, 2.0) and not lower_better


def test_reference_pignistic_on_readme_demo():
    doc = {"frame": DEMO_STATES, "mass": DEMO_MASS}
    out = json.dumps({"w1": 0.6, "w2": 0.2, "w3": 0.2})
    req = {"check": {"type": "transform", "path": "m", "kind": "pignistic", "format": "json"}}
    checks.check_transform(req, out, {"m": doc})
    with pytest.raises(checks.CheckError):
        checks.check_transform(req, json.dumps({"w1": 0.5, "w2": 0.3, "w3": 0.2}), {"m": doc})


def test_reference_maximality_and_e_admissibility_on_four_act_demo():
    p = demo_problem(FOUR_ACTS)
    sure, maybe = checks.maximal_sets(checks.maximality_matrix(p), 1e-9)
    assert sure == maybe == {0, 1}
    G = (p.U - p.U.min()) / (p.U.max() - p.U.min())
    margins = [checks.best_response_margin(p, G, i) for i in range(4)]
    assert [i for i, m in enumerate(margins) if m >= -1e-9] == [0, 1]


def test_e_admissibility_check_rejects_a_bad_witness():
    p = demo_problem(FOUR_ACTS)
    good = {"f1": [0.6, 0.0, 0.4], "f2": [0.6, 0.3, 0.1]}
    for name, w in good.items():  # each is a best response at its own witness
        g = np.array(FOUR_ACTS, dtype=float) @ np.array(w)
        assert g[int(name[1]) - 1] == g.max()
    checks.check_e_admissibility(p, {0, 1}, {"witnesses": good}, "json")
    bad = dict(good, f1=[0.0, 1.0, 0.0])  # not compatible: Bel({w1}) = 0.4
    with pytest.raises(checks.CheckError):
        checks.check_e_admissibility(p, {0, 1}, {"witnesses": bad}, "json")
    with pytest.raises(checks.CheckError):  # f3 is not e-admissible
        checks.check_e_admissibility(p, {0, 1, 2}, {"witnesses": dict(good, f3=[0, 1, 0])}, "json")


def test_rank_check_catches_a_wrong_score():
    p_doc = {"states": DEMO_STATES,
             "acts": [{"name": "f1", "utilities": FOUR_ACTS[0]},
                      {"name": "f2", "utilities": FOUR_ACTS[1]}],
             "mass": DEMO_MASS}
    req = {"check": {"type": "rank", "path": "p", "criterion": "maximin", "format": "text"}}
    checks.check_rank(req, "f1  23  1\nf2  2  2\n", {"p": p_doc})
    with pytest.raises(checks.CheckError):
        checks.check_rank(req, "f1  23  1\nf2  2.1  2\n", {"p": p_doc})
    with pytest.raises(checks.CheckError):
        checks.check_rank(req, "f2  2  1\nf1  23  2\n", {"p": p_doc})


def test_subset_sums_give_belief_and_plausibility():
    bel, pl = checks.bel_pl(DEMO_STATES, DEMO_MASS)
    assert bel[0b001] == pytest.approx(0.4) and bel[0b011] == pytest.approx(0.6)
    assert pl[0b001] == pytest.approx(0.9) and pl[0b100] == pytest.approx(0.4)
    assert bel[0b111] == pytest.approx(1.0) and pl[0] == pytest.approx(0.0)
