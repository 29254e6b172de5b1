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
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__
from .core import MassFunction, pignistic, plausibility_transform
from .criteria import FocalTable, LocalPessimismIndex, generalized_minimax_regret, hurwicz_blend
from .errors import BeliefDecisionError, SolverError, ValidationError
from .goals import classification_scores, deterministic_score, expected_score, goal_audit
from .ignorance import prune_dominated
from .previsions import E_ADMISSIBILITY_TOL, e_admissible_set, maximality_relation
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

CHOICE_RULES = (
    "interval-dominance",
    "interval-bound",
    "maximality",
    "e-admissibility",
    "prune-dominated",
)


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


class Criterion(NamedTuple):
    """How ``rank`` and ``sweep`` score a criterion.

    ``inputs`` reads every act once; ``score(inputs, *params)`` scores
    every act at the value of ``param``, or with no parameter.
    """

    inputs: Callable[[DecisionProblem], Any]
    score: Callable[..., list[float]]
    param: str | None = None  # "alpha", "beta" or the Jaffray "index"
    lower_better: bool = False


def _ignorance(problem: DecisionProblem) -> FocalTable:
    return FocalTable.of_rows(MassFunction.vacuous(problem.states), problem._point_payoffs())


def _regret(problem: DecisionProblem, expected: bool = False) -> tuple[float, ...]:
    matrix = problem.payoff_matrix()  # multi-valued acts fail first
    m = problem.require_mass() if expected else MassFunction.vacuous(problem.states)
    return generalized_minimax_regret(matrix, m)


def _bounds(inputs: Callable[[DecisionProblem], FocalTable]):
    """Every act's lower and upper expectation, read once for a whole sweep."""
    def bounds(problem: DecisionProblem) -> tuple[list[float], list[float]]:
        table = inputs(problem)
        return table.lower(), table.upper()
    return bounds


def _blend(bounds: tuple[list[float], list[float]], alpha: float) -> list[float]:
    return [hurwicz_blend(low, up, alpha) for low, up in zip(*bounds)]


# Each criterion under ignorance is its belief-function twin under the
# vacuous mass; the regret criteria are ``generalized_minimax_regret``
# under it or the file's mass. ``owa`` comes last, as only ``sweep`` offers it.
_mass_bounds = _bounds(DecisionProblem.focal_table)
CRITERIA = {
    "maximin": Criterion(_ignorance, FocalTable.lower),
    "maximax": Criterion(_ignorance, FocalTable.upper),
    "hurwicz": Criterion(_bounds(_ignorance), _blend, "alpha"),
    "laplace": Criterion(_ignorance, FocalTable.pignistic),
    "regret": Criterion(_regret, list, lower_better=True),
    "lower": Criterion(DecisionProblem.focal_table, FocalTable.lower),
    "upper": Criterion(DecisionProblem.focal_table, FocalTable.upper),
    "ghurwicz": Criterion(_mass_bounds, _blend, "alpha"),
    "pignistic": Criterion(DecisionProblem.focal_table, FocalTable.pignistic),
    "gowa": Criterion(DecisionProblem.focal_table, FocalTable.owa, "beta"),
    "gregret": Criterion(functools.partial(_regret, expected=True), list, lower_better=True),
    "jaffray": Criterion(DecisionProblem.focal_table, FocalTable.jaffray, "index"),
    "owa": Criterion(_ignorance, FocalTable.owa, "beta"),
}
RANK_CRITERIA = tuple(name for name in CRITERIA if name != "owa")
SWEEP_CRITERIA = ("hurwicz", "ghurwicz", "owa", "gowa")


def _parameter(problem: DecisionProblem, args) -> tuple[Any, ...]:
    """The criterion's parameter, as the extra arguments of its ``score``."""
    name = CRITERIA[args.criterion].param
    if name is None:
        return ()
    if name == "index":
        if args.index_file is not None:
            return (parse_index_file(read_json(args.index_file), problem),)
        if args.alpha is not None:
            return (LocalPessimismIndex.constant(args.alpha),)
        name = "alpha or --index-file"
    elif getattr(args, name) is not None:
        return (getattr(args, name),)
    raise UsageError(f"criterion {args.criterion!r} needs --{name}")


def cmd_rank(args) -> int:
    problem = _load_problem(args.problem)
    criterion = CRITERIA[args.criterion]
    inputs = criterion.inputs(problem)
    scores = criterion.score(inputs, *_parameter(problem, args))
    ranks = _ranks(scores, lower_better=criterion.lower_better)
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
    elif args.rule in ("interval-dominance", "interval-bound"):
        lowers, uppers = _mass_bounds(problem)
        chosen = (interval_dominance_choice(lowers, uppers) if args.rule == "interval-dominance"
                  else maximal_elements(interval_bound_dominance(lowers, uppers)))
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
    grid = [
        args.stop if k == args.steps - 1
        else args.start + (args.stop - args.start) * k / (args.steps - 1)
        for k in range(args.steps)
    ]
    criterion = CRITERIA[args.criterion]
    inputs = criterion.inputs(problem)
    rows = [[value] + criterion.score(inputs, value) for value in grid]
    print(",".join([criterion.param] + list(problem.act_names)))
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
        default=E_ADMISSIBILITY_TOL,
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
