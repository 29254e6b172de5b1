"""Problem files, command dispatch, output determinism and exit codes."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beliefdecision import ValidationError, parse_problem
from beliefdecision.cli import _ranks, main
from beliefdecision.problems import parse_problem_dict
from conftest import MASS_ASSIGNMENT, UTILITY_ROWS

PROBLEM_DOC = {
    "states": ["w1", "w2", "w3"],
    "acts": [
        {"name": "f1", "utilities": [37, 25, 23]},
        {"name": "f2", "utilities": [49, 70, 2]},
        {"name": "f3", "utilities": [4, 96, 1]},
        {"name": "f4", "utilities": [22, 76, 25]},
        {"name": "f5", "utilities": [35, 20, 23]},
    ],
    "mass": [
        {"focal": ["w1"], "mass": 0.4},
        {"focal": ["w1", "w2"], "mass": 0.2},
        {"focal": ["w3"], "mass": 0.1},
        {"focal": ["w1", "w2", "w3"], "mass": 0.3},
    ],
}

MAPPED_DOC = {
    "states": ["w1", "w2", "w3"],
    "consequences": ["c1", "c2", "c3"],
    "utilities": {"c1": 3.0, "c2": 1.0, "c3": 2.0},
    "acts": [
        {
            "name": "f",
            "consequences": {"w1": ["c1"], "w2": ["c1", "c2"], "w3": ["c2", "c3"]},
        }
    ],
    "mass": [
        {"focal": ["w1", "w2"], "mass": 0.3},
        {"focal": ["w2", "w3"], "mass": 0.2},
        {"focal": ["w3"], "mass": 0.4},
        {"focal": ["w1", "w2", "w3"], "mass": 0.1},
    ],
}

GOAL_DOC = {
    "theta": ["t1", "t2", "t3"],
    "goals": [
        {"elements": ["t1"], "weight": 1.0},
        {"elements": ["t1", "t2"], "weight": 1.0},
        {"elements": ["t1", "t2", "t3"], "weight": 2.0},
    ],
    "acts": [
        {"name": "sure", "certain": ["t1"]},
        {
            "name": "spread",
            "mass": [
                {"focal": ["t1", "t2"], "mass": 0.5},
                {"focal": ["t3"], "mass": 0.5},
            ],
        },
    ],
}

CLASSIFY_DOC = {
    "classes": ["w1", "w2", "w3"],
    "mass": [
        {"focal": ["w1", "w2"], "mass": 0.6},
        {"focal": ["w2", "w3"], "mass": 0.2},
        {"focal": ["w1", "w2", "w3"], "mass": 0.2},
    ],
    "weights": [1, 1, 2],
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEM_DOC))
    return str(path)


@pytest.fixture
def mapped_file(tmp_path):
    path = tmp_path / "mapped.json"
    path.write_text(json.dumps(MAPPED_DOC))
    return str(path)


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParsing:
    def test_full_problem(self, problem_file):
        problem = parse_problem(problem_file)
        assert problem.n_acts == 5
        assert problem.states.size == 3
        assert len(problem.mass) == 4
        assert problem.rows[:4] == UTILITY_ROWS
        assert problem.is_point_valued()

    def test_mapped_problem_supports_lotteries(self, mapped_file):
        problem = parse_problem(mapped_file)
        assert not problem.is_point_valued()
        mu, u = problem.lottery(0)
        assert mu.mass(["c1", "c2"]) == pytest.approx(0.3)
        assert mu.mass(["c2", "c3"]) == pytest.approx(0.4)
        assert mu.mass(["c1", "c2", "c3"]) == pytest.approx(0.3)
        assert u("c1") == 3.0

    def test_mass_sum_error_names_the_sum(self):
        doc = dict(PROBLEM_DOC, mass=[{"focal": ["w1"], "mass": 0.9}])
        with pytest.raises(ValidationError, match="0.9"):
            parse_problem_dict(doc)

    def test_duplicate_act_names(self):
        doc = dict(
            PROBLEM_DOC,
            acts=[
                {"name": "f1", "utilities": [1, 2, 3]},
                {"name": "f1", "utilities": [4, 5, 6]},
            ],
        )
        with pytest.raises(ValidationError, match="duplicate act name"):
            parse_problem_dict(doc)

    def test_unknown_state_in_mass(self):
        doc = dict(PROBLEM_DOC, mass=[{"focal": ["zz"], "mass": 1.0}])
        with pytest.raises(ValidationError, match="zz"):
            parse_problem_dict(doc)

    def test_wrong_row_length(self):
        doc = dict(PROBLEM_DOC, acts=[{"name": "f1", "utilities": [1, 2]}])
        with pytest.raises(ValidationError, match="f1"):
            parse_problem_dict(doc)

    def test_map_without_declared_consequences(self):
        doc = {
            "states": ["w1"],
            "acts": [{"name": "f", "consequences": {"w1": ["c1"]}}],
        }
        with pytest.raises(ValidationError, match="declares none"):
            parse_problem_dict(doc)

    def test_empty_consequence_set(self):
        doc = dict(MAPPED_DOC)
        doc["acts"] = [{"name": "f", "consequences": {"w1": [], "w2": ["c1"], "w3": ["c1"]}}]
        with pytest.raises(ValidationError, match="non-empty"):
            parse_problem_dict(doc)

    def test_roundtrip_through_canonical_form(self, problem_file, mapped_file):
        for path in (problem_file, mapped_file):
            problem = parse_problem(path)
            again = parse_problem_dict(problem.to_dict())
            assert again.act_names == problem.act_names
            assert again.rows == problem.rows
            assert (again.mass is None) == (problem.mass is None)
            if problem.mass is not None:
                assert again.mass.isclose(problem.mass, tol=0)


class TestRankCommand:
    def test_pignistic_listing(self, problem_file, capsys):
        assert main(["rank", problem_file, "--criterion", "pignistic"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("f2  43.8")
        assert out[1].startswith("f4  33.4")
        assert out[2].startswith("f1  31.8")
        assert out[3].startswith("f5  29.6")
        assert out[4].startswith("f3  21.8")

    def test_expected_regret_listing(self, problem_file, capsys):
        assert main(["rank", problem_file, "--criterion", "gregret"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("f2  15.3")

    def test_byte_identical_across_runs(self, problem_file, capsys):
        main(["rank", problem_file, "--criterion", "lower"])
        first = capsys.readouterr().out
        main(["rank", problem_file, "--criterion", "lower"])
        assert capsys.readouterr().out == first

    def test_ties_share_rank(self, tmp_path, capsys):
        doc = {
            "states": ["s1"],
            "acts": [
                {"name": "a", "utilities": [1]},
                {"name": "b", "utilities": [1]},
                {"name": "c", "utilities": [0]},
            ],
        }
        path = write_json(tmp_path, "tie.json", doc)
        main(["rank", path, "--criterion", "maximin"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "a  1  1"
        assert out[1] == "b  1  1"
        assert out[2] == "c  0  3"

    def test_missing_alpha_is_usage_error(self, problem_file, capsys):
        assert main(["rank", problem_file, "--criterion", "hurwicz"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_missing_mass_is_validation_error(self, tmp_path, capsys):
        doc = {"states": ["s1"], "acts": [{"name": "a", "utilities": [1]}]}
        path = write_json(tmp_path, "nomass.json", doc)
        assert main(["rank", path, "--criterion", "pignistic"]) == 2

    def test_unknown_criterion_is_usage_error(self, problem_file):
        assert main(["rank", problem_file, "--criterion", "nonsense"]) == 1

    def test_json_format_full_precision(self, problem_file, capsys):
        main(["rank", problem_file, "--criterion", "lower", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        by_name = {r["act"]: r for r in doc["results"]}
        assert by_name["f2"]["score"] == pytest.approx(30.2, abs=1e-9)
        assert by_name["f2"]["rank"] == 1

    def test_jaffray_constant_alpha(self, problem_file, capsys):
        assert main(["rank", problem_file, "--criterion", "jaffray", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("f2")

    def test_jaffray_index_table(self, mapped_file, capsys):
        index_doc = [
            {"worst": lo, "best": hi, "alpha": 0.5}
            for lo in ("c1", "c2", "c3")
            for hi in ("c1", "c2", "c3")
        ]
        import tempfile, os
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, dir=os.path.dirname(mapped_file)
        ) as fh:
            json.dump(index_doc, fh)
            index_path = fh.name
        assert main(
            ["rank", mapped_file, "--criterion", "jaffray", "--index-file", index_path]
        ) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("f  ")

    def test_emit_normalized_roundtrip(self, problem_file, capsys):
        main(["rank", problem_file, "--criterion", "maximin", "--emit-normalized"])
        emitted = capsys.readouterr().out
        again = parse_problem_dict(json.loads(emitted))
        assert again.act_names == parse_problem(problem_file).act_names
        assert again.rows == parse_problem(problem_file).rows


class TestChoiceCommand:
    def test_prune_dominated(self, problem_file, capsys):
        main(["choice", problem_file, "--rule", "prune-dominated"])
        out = capsys.readouterr().out
        assert "choice set: f1 f2 f3 f4" in out
        assert "f5 dominated by f1" in out

    def test_interval_bound(self, problem_file, capsys):
        main(["choice", problem_file, "--rule", "interval-bound"])
        assert capsys.readouterr().out.splitlines()[0] == "choice set: f2"

    def test_interval_dominance_keeps_everything(self, problem_file, capsys):
        main(["choice", problem_file, "--rule", "interval-dominance"])
        assert (
            capsys.readouterr().out.splitlines()[0] == "choice set: f1 f2 f3 f4 f5"
        )

    def test_maximality_prints_difference_matrix(self, problem_file, capsys):
        main(["choice", problem_file, "--rule", "maximality"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "choice set: f1 f2"
        assert "-25.2" in out and "5.1" in out

    def test_maximality_output_byte_identical(self, problem_file, capsys):
        main(["choice", problem_file, "--rule", "maximality"])
        first = capsys.readouterr().out
        main(["choice", problem_file, "--rule", "maximality"])
        assert capsys.readouterr().out == first

    def test_e_admissibility_prints_witnesses(self, problem_file, capsys):
        main(["choice", problem_file, "--rule", "e-admissibility"])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "choice set: f1 f2"
        assert "witness for f1" in out and "witness for f2" in out

    def test_multivalued_acts_cannot_form_gambles(self, mapped_file, capsys):
        assert main(["choice", mapped_file, "--rule", "maximality"]) == 2
        assert "point-valued" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, problem_file, capsys, monkeypatch):
        from beliefdecision.errors import SolverError
        import beliefdecision.cli as cli_module

        def boom(*args, **kwargs):
            raise SolverError("injected failure")

        monkeypatch.setattr(cli_module, "e_admissible_set", boom)
        assert main(["choice", problem_file, "--rule", "e-admissibility"]) == 3
        assert "solver failure" in capsys.readouterr().err


class TestSweepCommand:
    @pytest.mark.parametrize("criterion", ["ghurwicz", "gowa"])
    def test_lotteries_are_built_once_per_command(self, problem_file, monkeypatch, criterion):
        from beliefdecision.problems import DecisionProblem

        calls = []
        original = DecisionProblem.lottery

        def counting(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(DecisionProblem, "lottery", counting)
        assert main(["sweep", problem_file, "--criterion", criterion, "--steps", "11"]) == 0
        assert calls == []

    def test_two_step_grid_is_endpoints(self, problem_file, capsys):
        main(["sweep", problem_file, "--criterion", "ghurwicz", "--steps", "2"])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,f1,f2,f3,f4,f5"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[2].split(",")]
        assert first[0] == 0.0 and last[0] == 1.0
        assert first[1] == pytest.approx(35.6)  # upper bound of f1
        assert last[1] == pytest.approx(29.0)  # lower bound of f1

    def test_blend_columns_are_affine(self, problem_file, capsys):
        main(["sweep", problem_file, "--criterion", "ghurwicz", "--steps", "11"])
        lines = capsys.readouterr().out.splitlines()[1:]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        for col in range(1, 6):
            start, end = rows[0][col], rows[-1][col]
            for row in rows:
                alpha = row[0]
                assert row[col] == pytest.approx(
                    (1 - alpha) * start + alpha * end, abs=1e-9
                )

    def test_owa_midpoint_equals_laplace(self, problem_file, capsys):
        main(["sweep", problem_file, "--criterion", "owa", "--steps", "3"])
        rows = capsys.readouterr().out.splitlines()
        mid = [float(v) for v in rows[2].split(",")]
        assert mid[0] == 0.5
        assert mid[1:5] == pytest.approx((85 / 3, 121 / 3, 101 / 3, 41.0))

    def test_gowa_midpoint_equals_pignistic(self, problem_file, capsys):
        main(["sweep", problem_file, "--criterion", "gowa", "--steps", "3"])
        rows = capsys.readouterr().out.splitlines()
        mid = [float(v) for v in rows[2].split(",")]
        assert mid[1:5] == pytest.approx((31.8, 43.8, 21.8, 33.4), abs=1e-9)

    def test_custom_range_hits_endpoints_exactly(self, problem_file, capsys):
        main(
            [
                "sweep", problem_file, "--criterion", "gowa",
                "--from", "0.1", "--to", "0.7", "--steps", "4",
            ]
        )
        lines = capsys.readouterr().out.splitlines()[1:]
        params = [float(line.split(",")[0]) for line in lines]
        assert params[0] == 0.1
        assert params[-1] == 0.7

    def test_full_grid_byte_identical(self, problem_file, capsys):
        main(["sweep", problem_file, "--criterion", "ghurwicz"])
        first = capsys.readouterr().out
        assert len(first.splitlines()) == 102  # header + default grid
        main(["sweep", problem_file, "--criterion", "ghurwicz"])
        assert capsys.readouterr().out == first

    def test_bad_grid_is_usage_error(self, problem_file):
        assert main(["sweep", problem_file, "--criterion", "ghurwicz", "--steps", "1"]) == 1
        assert (
            main(
                [
                    "sweep", problem_file, "--criterion", "ghurwicz",
                    "--from", "0.8", "--to", "0.2",
                ]
            )
            == 1
        )


class TestGoalsCommand:
    def test_audit(self, tmp_path, capsys):
        path = write_json(tmp_path, "goals.json", GOAL_DOC)
        assert main(["goals", path, "--mode", "audit"]) == 0
        out = capsys.readouterr().out
        assert "consistent: true" in out
        assert "monotonic: true" in out

    def test_score(self, tmp_path, capsys):
        path = write_json(tmp_path, "goals.json", GOAL_DOC)
        main(["goals", path, "--mode", "score"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "sure  4  (certain)"
        assert out[1] == "spread  5.5  (expected)"

    def test_score_with_vacuous_effect_gives_total_weight(self, tmp_path, capsys):
        doc = {
            "theta": ["t1", "t2", "t3"],
            "goals": [
                {"elements": ["t1", "t2"], "weight": 1.0},
                {"elements": ["t2", "t3"], "weight": 3.0},
            ],
            "acts": [
                {
                    "name": "void",
                    "mass": [{"focal": ["t1", "t2", "t3"], "mass": 1.0}],
                }
            ],
        }
        path = write_json(tmp_path, "void.json", doc)
        main(["goals", path, "--mode", "score"])
        assert capsys.readouterr().out.splitlines()[0] == "void  4  (expected)"

    def test_classify_reproduces_reference_table(self, tmp_path, capsys):
        path = write_json(tmp_path, "classify.json", CLASSIFY_DOC)
        main(["goals", path, "--mode", "classify"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "{w1}  3.2  5"
        assert out[1] == "{w2}  4  2"
        assert out[2] == "{w1,w2}  4.8  1"
        assert out[3] == "{w3}  1.6  7"
        assert out[4] == "{w1,w3}  3  6"
        assert out[5] == "{w2,w3}  3.6  4"
        assert out[6] == "{w1,w2,w3}  4  2"
        assert out[7] == (
            "order: {w1,w2} > {w2} ~ {w1,w2,w3} > {w2,w3} > {w1} > {w1,w3} > {w3}"
        )

    def test_classify_missing_weights(self, tmp_path):
        doc = {k: v for k, v in CLASSIFY_DOC.items() if k != "weights"}
        path = write_json(tmp_path, "broken.json", doc)
        assert main(["goals", path, "--mode", "classify"]) == 2


class TestTransformCommand:
    def test_pignistic(self, tmp_path, capsys):
        doc = {
            "frame": ["w1", "w2", "w3"],
            "mass": [{"focal": list(k), "mass": v} for k, v in MASS_ASSIGNMENT.items()],
        }
        path = write_json(tmp_path, "mass.json", doc)
        main(["transform", path, "--kind", "pignistic"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["w1  0.6", "w2  0.2", "w3  0.2"]

    def test_plausibility(self, tmp_path, capsys):
        doc = {
            "frame": ["w1", "w2", "w3"],
            "mass": [{"focal": list(k), "mass": v} for k, v in MASS_ASSIGNMENT.items()],
        }
        path = write_json(tmp_path, "mass.json", doc)
        main(["transform", path, "--kind", "plausibility"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "w1  0.5"

    def test_missing_file_is_validation_error(self, capsys):
        assert main(["transform", "/no/such/file.json", "--kind", "pignistic"]) == 2

    def test_unknown_label_in_mass_file(self, tmp_path, capsys):
        doc = {"frame": ["a", "b"], "mass": [{"focal": ["zz"], "mass": 1.0}]}
        path = write_json(tmp_path, "bad.json", doc)
        assert main(["transform", path, "--kind", "pignistic"]) == 2
        assert "zz" in capsys.readouterr().err

    def test_duplicate_focal_entries_are_summed(self, tmp_path, capsys):
        doc = {
            "frame": ["a", "b"],
            "mass": [
                {"focal": ["a"], "mass": 0.3},
                {"focal": ["a"], "mass": 0.3},
                {"focal": ["b"], "mass": 0.4},
            ],
        }
        path = write_json(tmp_path, "dup.json", doc)
        assert main(["transform", path, "--kind", "pignistic"]) == 0
        assert capsys.readouterr().out.splitlines() == ["a  0.6", "b  0.4"]


def quadratic_ranks(scores, *, lower_better=False):
    """Reference: 1 + the number of strictly better scores, by direct comparison."""
    return [
        1 + sum(1 for t in scores if (t < s if lower_better else t > s)) for s in scores
    ]


class TestRanks:
    @given(
        st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                           st.floats(allow_nan=False)), max_size=40),
        st.booleans(),
    )
    def test_matches_pairwise_counting(self, scores, lower_better):
        assert _ranks(scores, lower_better=lower_better) == quadratic_ranks(
            scores, lower_better=lower_better
        )

    def test_ties_share_the_best_rank(self):
        assert _ranks([3.0, 1.0, 3.0, 2.0]) == [1, 4, 1, 3]
        assert _ranks([3.0, 1.0, 3.0, 2.0], lower_better=True) == [3, 1, 3, 2]


class TestRowActsAndIndexTables:
    # consequence labels equal to the state labels must not let a row act
    # borrow a consequence-pair index: a row act has no consequences
    DOC = {
        "states": ["w1", "w2"],
        "consequences": ["w1", "w2"],
        "utilities": {"w1": 0.0, "w2": 1.0},
        "acts": [{"name": "f", "utilities": [3, 7]}],
        "mass": [{"focal": ["w1", "w2"], "mass": 1.0}],
    }

    def test_index_table_on_a_row_act_is_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "rows.json", self.DOC)
        index = write_json(tmp_path, "index.json", [{"worst": "w1", "best": "w2", "alpha": 0.9}])
        assert main(["rank", path, "--criterion", "jaffray", "--index-file", index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "utility rows" in captured.err

    def test_constant_index_on_a_row_act_still_runs(self, tmp_path, capsys):
        path = write_json(tmp_path, "rows.json", self.DOC)
        assert main(["rank", path, "--criterion", "jaffray", "--alpha", "0.9"]) == 0
        assert capsys.readouterr().out == "f  3.4  1\n"


class TestJsonNumbers:
    def test_problem_file_fields(self):
        mass = [dict(e) for e in PROBLEM_DOC["mass"]]
        mass[0]["mass"] = True
        with pytest.raises(ValidationError, match="mass must be a finite number"):
            parse_problem_dict(dict(PROBLEM_DOC, mass=mass))
        acts = [{"name": "f1", "utilities": [True, 2, 3]}]
        with pytest.raises(ValidationError, match="every utility must be a finite number"):
            parse_problem_dict(dict(PROBLEM_DOC, acts=acts))
        utilities = dict(MAPPED_DOC["utilities"], c2=False)
        with pytest.raises(ValidationError, match="every utility must be a finite number"):
            parse_problem_dict(dict(MAPPED_DOC, utilities=utilities))

    def test_mass_file(self, tmp_path):
        doc = {"frame": ["a", "b"], "mass": [{"focal": ["a"], "mass": True}]}
        path = write_json(tmp_path, "mass.json", doc)
        assert main(["transform", path, "--kind", "pignistic"]) == 2

    def test_index_alpha(self, mapped_file, tmp_path, capsys):
        index = write_json(
            tmp_path, "index.json",
            [{"worst": lo, "best": hi, "alpha": True} for lo in ("c1", "c2", "c3")
             for hi in ("c1", "c2", "c3")],
        )
        assert main(["rank", mapped_file, "--criterion", "jaffray", "--index-file", index]) == 2
        assert "'alpha' must be a finite number" in capsys.readouterr().err

    def test_goal_weight(self, tmp_path, capsys):
        goals = [dict(g) for g in GOAL_DOC["goals"]]
        goals[0]["weight"] = True
        path = write_json(tmp_path, "goals.json", dict(GOAL_DOC, goals=goals))
        assert main(["goals", path, "--mode", "score"]) == 2
        assert "goals[0].weight must be a finite number" in capsys.readouterr().err

    def test_non_finite_literals(self, tmp_path, capsys):
        path = tmp_path / "goals.json"
        path.write_text(json.dumps(GOAL_DOC).replace('"weight": 2.0', '"weight": NaN'))
        assert main(["goals", str(path), "--mode", "score"]) == 2
        assert "goals[2].weight must be a finite number" in capsys.readouterr().err
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(PROBLEM_DOC).replace("[37, 25, 23]", "[37, Infinity, 23]"))
        with pytest.raises(ValidationError, match="every utility must be a finite number"):
            parse_problem(str(path))

    def test_classification_weights(self, tmp_path, capsys):
        path = write_json(tmp_path, "classify.json", dict(CLASSIFY_DOC, weights=[1, True, 2]))
        assert main(["goals", path, "--mode", "classify"]) == 2
        assert "every weight must be a finite number" in capsys.readouterr().err


class TestStdin:
    def test_problem_from_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PROBLEM_DOC)))
        assert main(["rank", "-", "--criterion", "maximin"]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("f1  23")


class TestParserReuse:
    def test_usage_error_between_two_calls_changes_nothing(self, problem_file, capsys):
        argv = ["choice", problem_file, "--rule", "e-admissibility", "--format", "json"]
        first = (main(argv), *capsys.readouterr())
        # parses --tolerance and --format before it fails on the unknown flag
        bad = ["choice", problem_file, "--rule", "maximality", "--tolerance", "0.5",
               "--format", "csv", "--no-such-flag"]
        assert main(bad) == 1
        assert "usage error" in capsys.readouterr().err
        assert (main(argv), *capsys.readouterr()) == first
