"""Per-layer spans and counts for the traced benchmark run.

The tracer wraps public functions where one module of the package calls
into another, by replacing module attributes (for example
``beliefdecision.cli.maximality_relation`` and
``beliefdecision.previsions.simplex_solve``). The package source is not
touched, and ``uninstall`` puts every original back.

A span records its name, start, end, parent span and the request it
belongs to. Spans are kept in memory and written out when the run ends.
A layer's self time is the duration of its spans minus the part their
child spans cover. Counts are taken in the same wrappers.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name, count key or None)
# The span name's part before ':' is the layer its self time goes to.
WRAPS = (
    ("cli", "parse_problem_dict", "problems.parse:parse_problem_dict", None),
    ("cli", "parse_mass", "problems.parse:parse_mass", None),
    ("cli", "lower_expectation", "criteria:lower_expectation", "criteria.calls"),
    ("cli", "upper_expectation", "criteria:upper_expectation", "criteria.calls"),
    ("cli", "generalized_hurwicz", "criteria:generalized_hurwicz", "criteria.calls"),
    ("cli", "pignistic_expected_utility", "criteria:pignistic_expected_utility", "criteria.calls"),
    ("cli", "generalized_owa_expected_utility", "criteria:generalized_owa_expected_utility",
     "criteria.calls"),
    ("cli", "jaffray_utility", "criteria:jaffray_utility", "criteria.calls"),
    ("cli", "generalized_minimax_regret", "criteria:generalized_minimax_regret", "criteria.calls"),
    ("cli", "score_ignorance", "ignorance:score_ignorance", None),
    ("cli", "minimax_regret", "ignorance:minimax_regret", None),
    ("cli", "prune_dominated", "ignorance:prune_dominated", None),
    ("cli", "owa_aggregate", "ignorance:owa_aggregate", None),
    ("cli", "max_entropy_owa_weights", "ignorance:max_entropy_owa_weights",
     "ignorance.owa_solves"),
    ("criteria", "max_entropy_owa_weights", "ignorance:max_entropy_owa_weights",
     "ignorance.owa_solves"),
    ("criteria", "minimax_regret", "ignorance:minimax_regret", None),
    ("cli", "interval_dominance_choice", "relations:interval_dominance_choice", None),
    ("cli", "interval_bound_dominance", "relations:interval_bound_dominance", None),
    ("cli", "maximal_elements", "relations:maximal_elements", None),
    ("cli", "maximality_relation", "previsions.maximality:maximality_relation", None),
    ("previsions", "maximality_relation", "previsions.maximality:maximality_relation", None),
    ("cli", "e_admissible_set", "previsions.eadm:e_admissible_set", None),
    ("previsions", "build_e_admissibility_lp", "previsions.lp_build:build_e_admissibility_lp",
     None),
    ("previsions", "simplex_solve", "simplex:simplex_solve", None),
    ("cli", "pignistic", "core:pignistic", None),
    ("cli", "plausibility_transform", "core:plausibility_transform", None),
    ("core", "belief_table", "core:belief_table", None),
    ("core", "mass_from_belief", "core:mass_from_belief", None),
    ("goals", "belief", "core:belief", "core.setfn_evals"),
    ("goals", "plausibility", "core:plausibility", "core.setfn_evals"),
    ("cli", "goal_audit", "goals:goal_audit", None),
    ("cli", "deterministic_score", "goals:deterministic_score", None),
    ("cli", "expected_score", "goals:expected_score", None),
    ("cli", "classification_scores", "goals:classification_scores", None),
)

# per-layer metric -> span layer whose self time it reports
TIME_METRICS = {
    "cli.self_ms": "cli",
    "problems.parse_ms": "problems.parse",
    "problems.lottery_ms": "problems.lottery",
    "criteria.ms": "criteria",
    "ignorance.ms": "ignorance",
    "relations.ms": "relations",
    "previsions.maximality_ms": "previsions.maximality",
    "previsions.lp_build_ms": "previsions.lp_build",
    "simplex.solve_ms": "simplex",
    "core.transform_ms": "core",
    "goals.ms": "goals",
}
COUNT_METRICS = (
    "problems.lottery_calls",
    "criteria.calls",
    "ignorance.owa_solves",
    "relations.cells",
    "previsions.lower_previsions",
    "previsions.screened_acts",
    "previsions.lps",
    "previsions.lp_cells",
    "simplex.pivots",
    "simplex.failures",
    "core.setfn_evals",
    "goals.subsets_scored",
)


class Tracer:
    def __init__(self, package, max_kept: int):
        self.package = package
        self.max_kept = max_kept
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.kept = array("q")  # flat (id, name, start, end, parent, request) per span
        self.dropped = 0
        self.self_ns: defaultdict[int, int] = defaultdict(int)
        self.counts: Counter[str] = Counter()
        self.stack: list[list[int]] = []  # [span id, name id, start, child ns]
        self.next_id = 0
        self.request = -1
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> None:
        self.stack.append([self.next_id, nid, time.perf_counter_ns(), 0])
        self.next_id += 1

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, nid, start, child = self.stack.pop()
        duration = end - start
        self.self_ns[nid] += duration - child
        parent = -1
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        if len(self.kept) < 6 * self.max_kept:
            self.kept.extend((span_id, nid, start, end, parent, self.request))
        else:
            self.dropped += 1

    def parent_name(self) -> str | None:
        return self.names[self.stack[-2][1]] if len(self.stack) > 1 else None

    def start_request(self, index: int) -> None:
        self.request = index
        self.open(self.name_id("bench:request"))

    def end_request(self) -> None:
        self.close()

    # wrapping --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count: str | None = None, after=None) -> None:
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                tracer.counts[count] += 1
            tracer.open(nid)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            except Exception:
                if after is not None:
                    after(args, None)
                raise
            finally:
                tracer.close()

        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def count_only(self, owner, attr: str, count: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def install(self) -> None:
        pkg = self.package
        modules = {name: getattr(pkg, name) for name in
                   ("cli", "core", "criteria", "goals", "previsions", "problems", "relations")}
        after = {
            "maximality_relation": self._after_maximality,
            "simplex_solve": self._after_simplex,
            "classification_scores": self._after_classification,
        }
        self.wrap(pkg.cli, "main", "cli:main")
        for module, attr, name, count in WRAPS:
            self.wrap(modules[module], attr, name, count, after.get(attr))
        self.wrap(pkg.problems.DecisionProblem, "lottery", "problems.lottery:lottery",
                  "problems.lottery_calls")
        self.count_only(pkg.previsions, "lower_prevision", "previsions.lower_previsions")

        counts = self.counts
        base = pkg.relations.Relation

        class CountingRelation(base):
            __slots__ = ()

            def __init__(self, table, **kwargs):
                counts["relations.cells"] += len(table) ** 2
                super().__init__(table, **kwargs)

        for module in ("relations", "previsions", "goals"):
            if getattr(modules[module], "Relation", None) is base:
                setattr(modules[module], "Relation", CountingRelation)
                self.patches.append((modules[module], "Relation", base))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # counts taken from results ------------------------------------------

    def _after_maximality(self, args, result) -> None:
        # a maximality run inside e_admissible_set is its screen
        if result is not None and self.parent_name() == "previsions.eadm:e_admissible_set":
            self.counts["previsions.screened_acts"] += len(args[0])
            self.counts["previsions.screen_kept"] += len(result[2])

    def _after_simplex(self, args, result) -> None:
        lp = args[0]
        self.counts["previsions.lps"] += 1
        self.counts["previsions.lp_cells"] += lp.n_rows * lp.n_vars
        if result is None or result.status != "optimal":
            self.counts["simplex.failures"] += 1
        if result is not None:
            self.counts["simplex.pivots"] += result.iterations

    def _after_classification(self, args, result) -> None:
        if result is not None:
            self.counts["goals.subsets_scored"] += len(result[0])

    # output ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, dict]:
        """Every per-layer metric, normalised per pass."""
        by_layer: defaultdict[str, int] = defaultdict(int)
        for nid, ns in self.self_ns.items():
            by_layer[self.names[nid].split(":")[0]] += ns
        out = {}
        for metric, layer in TIME_METRICS.items():
            out[metric] = {"value": by_layer[layer] / passes / 1e6, "unit": "ms"}
        for metric in COUNT_METRICS:
            out[metric] = {"value": self.counts[metric] / passes, "unit": "count"}
        screened = self.counts["previsions.screened_acts"]
        ratio = self.counts["previsions.screen_kept"] / screened if screened else 0.0
        out["previsions.screen_kept_ratio"] = {"value": ratio, "unit": "ratio"}
        return out

    def write(self, path: str, requests: list[dict], figures: dict) -> None:
        doc = {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
            "names": self.names,
            "requests": [req.get("argv") or ["roundtrip"] for req in requests],
            "spans": [self.kept[i:i + 6].tolist() for i in range(0, len(self.kept), 6)],
            "spans_dropped": self.dropped,
            "unwrapped": self.missing,
            "figures": figures,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
