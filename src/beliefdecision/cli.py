"""Command-line front end.

Commands: ``rank`` (complete criteria), ``choice`` (choice-set rules),
``sweep`` (parameter grids as CSV), ``goals`` (goal-based scoring) and
``transform`` (probability transforms of a mass file). Output is
deterministic: acts keep file order, ties break by file order, no
timestamps. Exit codes: 0 success, 1 usage error, 2 validation error,
3 solver failure. Input files are read and checked in
:mod:`beliefdecision.problems`; this module parses arguments, dispatches
and formats output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from bisect import bisect_left, bisect_right
from typing import Any, Sequence

from . import __version__
from .core import MassFunction, pignistic, plausibility_transform
from .criteria import (
    LocalPessimismIndex,
    _owa_weights_cached,
    generalized_minimax_regret,
    hurwicz_blend,
)
from .errors import BeliefDecisionError, SolverError, ValidationError
from .goals import classification_scores, deterministic_score, expected_score, goal_audit
from .ignorance import OwaWeights, minimax_regret, owa_aggregate, prune_dominated, score_ignorance
from .previsions import e_admissible_set, maximality_relation
from .problems import (
    DecisionProblem,
    parse_classification_file,
    parse_goal_file,
    parse_index_file,
    parse_mass_file,
    parse_problem_dict,
    read_json,
)
from .relations import (
    interval_bound_dominance,
    interval_dominance_choice,
    maximal_elements,
)

RANK_CRITERIA = (
    "maximin",
    "maximax",
    "hurwicz",
    "laplace",
    "regret",
    "lower",
    "upper",
    "ghurwicz",
    "pignistic",
    "gowa",
    "gregret",
    "jaffray",
)
CHOICE_RULES = (
    "interval-dominance",
    "interval-bound",
    "maximality",
    "e-admissibility",
    "prune-dominated",
)
SWEEP_CRITERIA = ("hurwicz", "ghurwicz", "owa", "gowa")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load_problem(path: str) -> DecisionProblem:
    return parse_problem_dict(read_json(path))


def _ranks(scores: Sequence[float], *, lower_better: bool = False) -> list[int]:
    """1 + the number of strictly better scores, for every score."""
    ordered = sorted(scores)
    if lower_better:
        return [1 + bisect_left(ordered, s) for s in scores]
    return [1 + len(ordered) - bisect_right(ordered, s) for s in scores]


def _rank_scores(problem: DecisionProblem, args) -> tuple[list[float], bool]:
    """Per-act scores in file order plus whether lower is better."""
    criterion = args.criterion

    def need_alpha() -> float:
        if args.alpha is None:
            raise UsageError(f"criterion {criterion!r} needs --alpha")
        return args.alpha

    def need_beta() -> float:
        if args.beta is None:
            raise UsageError(f"criterion {criterion!r} needs --beta")
        return args.beta

    if criterion in ("maximin", "maximax", "laplace"):
        return list(score_ignorance(problem.payoff_matrix(), criterion)), False
    if criterion == "hurwicz":
        return list(score_ignorance(problem.payoff_matrix(), "hurwicz", need_alpha())), False
    if criterion == "regret":
        _, max_regret = minimax_regret(problem.payoff_matrix())
        return list(max_regret), True
    if criterion == "gregret":
        scores = generalized_minimax_regret(problem.payoff_matrix(), problem.require_mass())
        return list(scores), True

    summaries = problem.summaries()
    if criterion == "lower":
        return [s.lower() for s in summaries], False
    if criterion == "upper":
        return [s.upper() for s in summaries], False
    if criterion == "ghurwicz":
        alpha = need_alpha()
        return [hurwicz_blend(s.lower(), s.upper(), alpha) for s in summaries], False
    if criterion == "pignistic":
        return [s.pignistic() for s in summaries], False
    if criterion == "gowa":
        beta = need_beta()
        return [s.owa(beta) for s in summaries], False
    if criterion == "jaffray":
        index = _jaffray_index(problem, args)
        return [s.jaffray(index) for s in summaries], False
    raise UsageError(f"unknown criterion {criterion!r}")


def _jaffray_index(problem: DecisionProblem, args) -> LocalPessimismIndex:
    if args.index_file is not None:
        return parse_index_file(read_json(args.index_file), problem)
    if args.alpha is not None:
        return LocalPessimismIndex.constant(args.alpha)
    raise UsageError("criterion 'jaffray' needs --alpha or --index-file")


def cmd_rank(args) -> int:
    problem = _load_problem(args.problem)
    scores, lower_better = _rank_scores(problem, args)
    ranks = _ranks(scores, lower_better=lower_better)
    order = sorted(range(problem.n_acts), key=lambda i: (ranks[i], i))
    if args.format == "json":
        doc = {
            "criterion": args.criterion,
            "results": [
                {"act": problem.act_names[i], "score": scores[i], "rank": ranks[i]}
                for i in order
            ],
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print("act,score,rank")
        for i in order:
            print(f"{problem.act_names[i]},{scores[i]!r},{ranks[i]}")
    else:
        for i in order:
            print(f"{problem.act_names[i]}  {_fmt(scores[i])}  {ranks[i]}")
    return 0


def _expectation_bounds(problem: DecisionProblem) -> tuple[list[float], list[float]]:
    summaries = problem.summaries()
    return [s.lower() for s in summaries], [s.upper() for s in summaries]


def cmd_choice(args) -> int:
    problem = _load_problem(args.problem)
    names = problem.act_names
    extra_text: list[str] = []
    extra_json: dict[str, Any] = {}

    if args.rule == "prune-dominated":
        surviving, pairs = prune_dominated(problem.payoff_matrix())
        chosen = surviving
        extra_text = [f"{names[i]} dominated by {names[k]}" for i, k in pairs]
        extra_json["dominance"] = [
            {"dominated": names[i], "dominator": names[k]} for i, k in pairs
        ]
    elif args.rule == "interval-dominance":
        lowers, uppers = _expectation_bounds(problem)
        chosen = interval_dominance_choice(lowers, uppers)
    elif args.rule == "interval-bound":
        lowers, uppers = _expectation_bounds(problem)
        chosen = maximal_elements(interval_bound_dominance(lowers, uppers))
    elif args.rule == "maximality":
        delta, _, chosen = maximality_relation(problem.gambles(), problem.require_mass())
        header = "  ".join(names)
        extra_text.append(f"lower previsions of differences (rows minus columns): {header}")
        for i, row in enumerate(delta):
            cells = "  ".join("." if i == j else _fmt(v) for j, v in enumerate(row))
            extra_text.append(f"{names[i]}: {cells}")
        extra_json["delta"] = [
            [None if i == j else row[j] for j in range(len(row))] for i, row in enumerate(delta)
        ]
    elif args.rule == "e-admissibility":
        chosen, witnesses = e_admissible_set(
            problem.gambles(), problem.require_mass(), tol=args.tolerance
        )
        for i in chosen:
            w = "  ".join(
                f"{s}={_fmt(p)}" for s, p in zip(problem.states.labels, witnesses[i])
            )
            extra_text.append(f"witness for {names[i]}: {w}")
        extra_json["witnesses"] = {
            names[i]: list(witnesses[i]) for i in chosen
        }
    else:
        raise UsageError(f"unknown rule {args.rule!r}")

    chosen_names = [names[i] for i in chosen]
    if args.format == "json":
        doc = {"rule": args.rule, "choice_set": chosen_names, **extra_json}
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print("act")
        for name in chosen_names:
            print(name)
    else:
        print("choice set: " + " ".join(chosen_names))
        for line in extra_text:
            print(line)
    return 0


def cmd_sweep(args) -> int:
    problem = _load_problem(args.problem)
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if not (0.0 <= args.start <= args.stop <= 1.0):
        raise UsageError("need 0 <= --from <= --to <= 1")
    param = "alpha" if args.criterion in ("hurwicz", "ghurwicz") else "beta"
    grid = [
        args.stop if k == args.steps - 1
        else args.start + (args.stop - args.start) * k / (args.steps - 1)
        for k in range(args.steps)
    ]

    if args.criterion in ("hurwicz", "owa"):
        matrix = problem.payoff_matrix()
    else:
        summaries = problem.summaries()
        if args.criterion == "ghurwicz":
            bounds = [(s.lower(), s.upper()) for s in summaries]

    def scores_at(value: float) -> list[float]:
        if args.criterion == "hurwicz":
            return list(score_ignorance(matrix, "hurwicz", value))
        if args.criterion == "owa":
            weights = (
                _owa_weights_cached(matrix.n_states, value)
                if matrix.n_states > 1
                else OwaWeights((1.0,))
            )
            return [owa_aggregate(row, weights) for row in matrix.utilities]
        if args.criterion == "ghurwicz":
            return [hurwicz_blend(low, high, value) for low, high in bounds]
        return [s.owa(value) for s in summaries]

    rows = [[value] + scores_at(value) for value in grid]
    print(",".join([param] + list(problem.act_names)))
    for row in rows:
        print(",".join(f"{v!r}" for v in row))
    return 0


def cmd_goals(args) -> int:
    doc = read_json(args.goalfile)
    if args.mode == "classify":
        m, weights = parse_classification_file(doc)
        frame = m.frame
        scores, _, _ = classification_scores(m, weights)
        masks = list(scores)
        ranks = _ranks([scores[c] for c in masks])
        if args.format == "json":
            doc_out = {
                "scores": [
                    {
                        "subset": list(frame.members(c)),
                        "score": scores[c],
                        "rank": ranks[k],
                    }
                    for k, c in enumerate(masks)
                ]
            }
            print(json.dumps(doc_out, indent=2))
        else:
            for k, c in enumerate(masks):
                label = "{" + ",".join(frame.members(c)) + "}"
                print(f"{label}  {_fmt(scores[c])}  {ranks[k]}")
            by_rank = sorted(range(len(masks)), key=lambda k: (ranks[k], k))
            pieces = []
            for pos, k in enumerate(by_rank):
                if pos:
                    pieces.append("~" if ranks[k] == ranks[by_rank[pos - 1]] else ">")
                pieces.append("{" + ",".join(frame.members(masks[k])) + "}")
            print("order: " + " ".join(pieces))
        return 0

    system, effects = parse_goal_file(doc)
    if args.mode == "audit":
        consistent, monotonic = goal_audit(system)
        if args.format == "json":
            print(json.dumps({"consistent": consistent, "monotonic": monotonic}, indent=2))
        else:
            print(f"consistent: {str(consistent).lower()}")
            print(f"monotonic: {str(monotonic).lower()}")
        return 0

    # score mode
    if not effects:
        raise ValidationError("score mode needs an 'acts' list with effects")
    results = []
    for name, effect in effects:
        if isinstance(effect, MassFunction):
            score = expected_score(system, effect).score
            results.append({"act": name, "score": score, "kind": "expected"})
        else:
            parts = deterministic_score(system, effect)
            results.append(
                {
                    "act": name,
                    "score": parts.score,
                    "kind": "certain",
                    "achieved_weight": parts.achieved_weight,
                    "precluded_weight": parts.precluded_weight,
                }
            )
    if args.format == "json":
        print(json.dumps({"results": results}, indent=2))
    else:
        for r in results:
            print(f"{r['act']}  {_fmt(r['score'])}  ({r['kind']})")
    return 0


def cmd_transform(args) -> int:
    m = parse_mass_file(read_json(args.massfile))
    frame = m.frame
    vector = pignistic(m) if args.kind == "pignistic" else plausibility_transform(m)
    if args.format == "json":
        print(json.dumps({label: p for label, p in zip(frame.labels, vector)}, indent=2))
    elif args.format == "csv":
        print("element,probability")
        for label, p in zip(frame.labels, vector):
            print(f"{label},{p!r}")
    else:
        for label, p in zip(frame.labels, vector):
            print(f"{label}  {_fmt(p)}")
    return 0


@functools.cache  # one parser per process; parsing leaves it as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="beliefdec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    problem_common = argparse.ArgumentParser(add_help=False)
    problem_common.add_argument("problem", help="problem file path, or - for stdin")
    problem_common.add_argument(
        "--emit-normalized",
        action="store_true",
        help="print the parsed problem in canonical form and exit",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", parents=[common, problem_common],
                            help="score and rank all acts under one criterion")
    p_rank.add_argument("--criterion", choices=RANK_CRITERIA, required=True)
    p_rank.add_argument("--alpha", type=float, help="pessimism index in [0, 1]")
    p_rank.add_argument("--beta", type=float, help="degree of optimism in [0, 1]")
    p_rank.add_argument("--index-file", help="JSON table of per-pair pessimism indices")
    p_rank.set_defaults(func=cmd_rank)

    p_choice = sub.add_parser("choice", parents=[common, problem_common],
                              help="compute the choice set of a partial-order rule")
    p_choice.add_argument("--rule", choices=CHOICE_RULES, required=True)
    p_choice.add_argument(
        "--tolerance",
        type=float,
        default=1e-8,
        help="e-admissibility tolerance: how much all other acts together may beat an act "
        "by at its witness (often a credal vertex), as a fraction of the utility range",
    )
    p_choice.set_defaults(func=cmd_choice)

    p_sweep = sub.add_parser("sweep", parents=[problem_common],
                             help="CSV of scores over a parameter grid")
    p_sweep.add_argument("--criterion", choices=SWEEP_CRITERIA, required=True)
    p_sweep.add_argument("--from", dest="start", type=float, default=0.0)
    p_sweep.add_argument("--to", dest="stop", type=float, default=1.0)
    p_sweep.add_argument("--steps", type=int, default=101)
    p_sweep.set_defaults(func=cmd_sweep)

    p_goals = sub.add_parser("goals", help="audit, score or classify with a goal file")
    p_goals.add_argument("goalfile", help="goal file path, or - for stdin")
    p_goals.add_argument("--format", choices=("text", "json"), default="text",
                         help="output format")
    p_goals.add_argument("--mode", choices=("audit", "score", "classify"), required=True)
    p_goals.set_defaults(func=cmd_goals)

    p_transform = sub.add_parser("transform", parents=[common],
                                 help="probability transform of a mass file")
    p_transform.add_argument("massfile", help="mass file path, or - for stdin")
    p_transform.add_argument("--kind", choices=("pignistic", "plausibility"), required=True)
    p_transform.set_defaults(func=cmd_transform)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "emit_normalized", False):
            print(json.dumps(_load_problem(args.problem).to_dict(), indent=2))
            return 0
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (BeliefDecisionError, ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
