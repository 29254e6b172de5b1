"""Seeded inputs and request lists for the four benchmark workloads.

Every workload is a fixed list of slots. A slot fixes the sizes of one
input file (acts, states, focal sets, frame size); the seed draws its
contents. Two seeds therefore give inputs of the same shape and cost
class, and the request list of a workload has the same make-up and the
same order for every seed.

A request is a dict with an ``id``, a ``kind`` and what the checker
needs to recompute the answer on its own:

- ``kind == "cli"``: ``argv`` is a ``beliefdec`` command line;
- ``kind == "roundtrip"``: belief table of ``mass`` then Möbius
  inversion back to a mass function, through the library.

``may_fail`` marks the money-scale e-admissibility requests, whose
inputs do not depend on the seed (see README.md).
"""

from __future__ import annotations

import json
import os
import random

RANK_POINT = (
    "maximin", "maximax", "hurwicz", "laplace", "regret", "lower",
    "upper", "ghurwicz", "pignistic", "gowa", "gregret", "jaffray",
)
RANK_MULTI = ("lower", "upper", "ghurwicz", "pignistic", "gowa", "jaffray")
CHOICE_POINT = (
    "interval-dominance", "interval-bound", "maximality", "e-admissibility",
    "prune-dominated",
)
CHOICE_MULTI = ("interval-dominance", "interval-bound")
PARAMS = (0.0, 0.2, 0.35, 0.5, 0.8, 1.0)

# The money-scale e-admissibility problems are drawn from this fixed
# seed, never from --seed, so the same requests are made in every run.
MONEY_SEED = 180805322
MONEY_SCALE = 1e6


def _labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _focal_masks(rng: random.Random, size: int, count: int) -> list[int]:
    count = min(count, (1 << size) - 1)
    return sorted(rng.sample(range(1, 1 << size), count))


def mass_doc(rng: random.Random, labels: list[str], n_focal: int) -> list[dict]:
    """A focal/mass list with integer weights normalised to one."""
    masks = _focal_masks(rng, len(labels), n_focal)
    weights = [rng.randint(1, 100) for _ in masks]
    total = sum(weights)
    return [
        {"focal": [labels[i] for i in range(len(labels)) if mask >> i & 1], "mass": w / total}
        for mask, w in zip(masks, weights)
    ]


def point_problem(rng, n_acts, n_states, n_focal, scale=1.0) -> dict:
    states = _labels("w", n_states)
    acts = []
    for name in _labels("a", n_acts):
        row = [rng.randint(0, 100) for _ in states]
        acts.append({"name": name, "utilities": [v * scale for v in row] if scale != 1.0 else row})
    return {"states": states, "acts": acts, "mass": mass_doc(rng, states, n_focal)}


def multi_problem(rng, n_acts, n_states, n_focal, n_cons) -> dict:
    """Consequence-mapped acts; at least one act is multi-valued."""
    states = _labels("w", n_states)
    cons = _labels("c", n_cons)
    utilities = {c: rng.randint(0, 100) for c in cons}
    acts = []
    for k, name in enumerate(_labels("a", n_acts)):
        mapping = {}
        for j, s in enumerate(states):
            width = 1 if rng.random() < 0.6 else rng.randint(2, 3)
            if k == 0 and j == 0:
                width = 2
            mapping[s] = sorted(rng.sample(cons, width), key=cons.index)
        acts.append({"name": name, "consequences": mapping})
    return {
        "states": states,
        "consequences": cons,
        "utilities": utilities,
        "acts": acts,
        "mass": mass_doc(rng, states, n_focal),
    }


def index_doc(rng, cons: list[str]) -> list[dict]:
    """A pessimism index for every ordered (worst, best) consequence pair."""
    return [
        {"worst": w, "best": b, "alpha": rng.randint(0, 100) / 100}
        for w in cons
        for b in cons
    ]


def goal_doc(rng, n_theta, n_goals, n_acts, n_focal) -> dict:
    theta = _labels("t", n_theta)
    goals = []
    for mask in _focal_masks(rng, n_theta, n_goals):
        goals.append(
            {"elements": [theta[i] for i in range(n_theta) if mask >> i & 1],
             "weight": rng.randint(1, 9) / 2}
        )
    acts = []
    for k, name in enumerate(_labels("g", n_acts)):
        if k % 3 == 0:
            (mask,) = _focal_masks(rng, n_theta, 1)
            acts.append({"name": name, "certain": [theta[i] for i in range(n_theta) if mask >> i & 1]})
        else:
            acts.append({"name": name, "mass": mass_doc(rng, theta, n_focal)})
    return {"theta": theta, "goals": goals, "acts": acts}


def classify_doc(rng, n_classes, n_focal) -> dict:
    classes = _labels("k", n_classes)
    return {
        "classes": classes,
        "mass": mass_doc(rng, classes, n_focal),
        "weights": [rng.randint(1, 20) / 10 for _ in classes],
    }


def transform_doc(rng, n_frame, n_focal) -> dict:
    frame = _labels("e", n_frame)
    return {"frame": frame, "mass": mass_doc(rng, frame, n_focal)}


class _Builder:
    """Writes input files and collects requests for one workload."""

    def __init__(self, workdir: str, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.docs: dict[str, object] = {}
        self.requests: list[dict] = []

    def write(self, name: str, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.docs[path] = doc
        return path

    def cli(self, argv: list[str], check: dict, *, may_fail: bool = False) -> None:
        self.requests.append(
            {"id": f"r{len(self.requests)}", "kind": "cli", "argv": argv,
             "check": check, "may_fail": may_fail}
        )

    def fmt(self, k: int, options=("text", "json")) -> str:
        return options[k % len(options)]

    # request families ------------------------------------------------

    def rank(self, path, criteria, k0, *, index_path=None, formats=("text", "json", "csv")):
        for k, crit in enumerate(criteria):
            fmt = self.fmt(k0 + k, formats)
            argv = ["rank", path, "--criterion", crit, "--format", fmt]
            check = {"type": "rank", "path": path, "criterion": crit, "format": fmt}
            if crit in ("hurwicz", "ghurwicz") or (crit == "jaffray" and index_path is None):
                alpha = self.rng.choice(PARAMS)
                argv += ["--alpha", repr(alpha)]
                check["alpha"] = alpha
            if crit == "jaffray" and index_path is not None:
                argv += ["--index-file", index_path]
                check["index"] = index_path
            if crit == "gowa":
                beta = self.rng.choice(PARAMS)
                argv += ["--beta", repr(beta)]
                check["beta"] = beta
            self.cli(argv, check)

    def choice(self, path, rules, k0, *, may_fail=False, formats=("text", "json")):
        for k, rule in enumerate(rules):
            fmt = self.fmt(k0 + k, formats)
            self.cli(
                ["choice", path, "--rule", rule, "--format", fmt],
                {"type": "choice", "path": path, "rule": rule, "format": fmt},
                may_fail=may_fail,
            )

    def sweep(self, path, criteria, steps):
        for crit in criteria:
            self.cli(
                ["sweep", path, "--criterion", crit, "--steps", str(steps)],
                {"type": "sweep", "path": path, "criterion": crit, "steps": steps},
            )

    def goals(self, path, modes, k0):
        for k, mode in enumerate(modes):
            fmt = self.fmt(k0 + k)
            self.cli(
                ["goals", path, "--mode", mode, "--format", fmt],
                {"type": "goals", "path": path, "mode": mode, "format": fmt},
            )

    def transform(self, path, kinds, k0):
        for k, kind in enumerate(kinds):
            fmt = self.fmt(k0 + k, ("text", "json", "csv"))
            self.cli(
                ["transform", path, "--kind", kind, "--format", fmt],
                {"type": "transform", "path": path, "kind": kind, "format": fmt},
            )

    def roundtrip(self, doc) -> None:
        self.requests.append(
            {"id": f"r{len(self.requests)}", "kind": "roundtrip", "doc": doc,
             "check": {"type": "roundtrip", "doc": doc}, "may_fail": False}
        )


def _desk(b: _Builder) -> None:
    for k in range(12):
        n, s, f = 2 + k % 7, 3 + k % 3, 1 + k % 6
        path = b.write(f"point{k}.json", point_problem(b.rng, n, s, f))
        b.rank(path, RANK_POINT, k)
        b.choice(path, CHOICE_POINT, k)
        b.sweep(path, ("hurwicz", "ghurwicz", "owa", "gowa"), 11)
    for k in range(6):
        n, s, f, c = 2 + (k * 3) % 7, 3 + k % 3, 1 + (k * 5) % 6, 3 + k % 4
        doc = multi_problem(b.rng, n, s, f, c)
        path = b.write(f"multi{k}.json", doc)
        index = b.write(f"multi{k}.index.json", index_doc(b.rng, doc["consequences"]))
        b.rank(path, RANK_MULTI, k, index_path=index)
        b.choice(path, CHOICE_MULTI, k)
        b.sweep(path, ("ghurwicz", "gowa"), 11)
    for k in range(4):
        path = b.write(f"goals{k}.json", goal_doc(b.rng, 3 + k, 2 + k, 3 + k % 3, 1 + k))
        b.goals(path, ("audit", "score", "audit", "score"), k)
    for k in range(3):
        path = b.write(f"classify{k}.json", classify_doc(b.rng, 3 + k, 2 + 2 * k))
        b.goals(path, ("classify", "classify", "classify"), k)
    for k in range(4):
        path = b.write(f"mass{k}.json", transform_doc(b.rng, 3 + k, 1 + k))
        b.transform(path, ("pignistic", "plausibility"), k)


# (acts, states, focal sets, extra ranks) per point-valued lottery slot
LOTTERY_POINT = ((120, 6, 10, 5), (180, 8, 14, 8))
# (acts, states, focal sets, consequences) per multi-valued lottery slot
LOTTERY_MULTI = ((100, 7, 8, 10), (160, 8, 16, 12))
EXTRA_RANKS = ("ghurwicz", "gowa", "pignistic", "lower", "upper", "jaffray", "hurwicz", "laplace")


def _lottery(b: _Builder) -> None:
    for k, (n, s, f, extra) in enumerate(LOTTERY_POINT):
        path = b.write(f"point{k}.json", point_problem(b.rng, n, s, f))
        b.rank(path, RANK_POINT + EXTRA_RANKS[:extra], k)
        b.sweep(path, ("ghurwicz", "gowa", "hurwicz", "owa"), 21)
        b.choice(path, ("interval-dominance", "interval-bound", "prune-dominated", "maximality"), k)
    for k, (n, s, f, c) in enumerate(LOTTERY_MULTI):
        doc = multi_problem(b.rng, n, s, f, c)
        path = b.write(f"multi{k}.json", doc)
        index = b.write(f"multi{k}.index.json", index_doc(b.rng, doc["consequences"]))
        b.rank(path, RANK_MULTI + RANK_MULTI, k, index_path=index)
        b.sweep(path, ("ghurwicz", "gowa"), 21)
        b.choice(path, CHOICE_MULTI, k)


# (acts, states, focal sets) per e-admissibility slot
EADM_SLOTS = tuple((10 + k % 4, 5 + k % 2, 6 + k % 3) for k in range(67))
MONEY_SLOTS = ((8, 5, 6), (10, 5, 7), (12, 5, 8), (12, 6, 6),
               (9, 6, 7), (11, 5, 6), (10, 6, 8), (8, 5, 7))


def _eadmissibility(b: _Builder) -> None:
    for k, (n, s, f) in enumerate(EADM_SLOTS):
        path = b.write(f"eadm{k}.json", point_problem(b.rng, n, s, f))
        b.choice(path, ("e-admissibility",), k)
    money = random.Random(MONEY_SEED)
    for k, (n, s, f) in enumerate(MONEY_SLOTS):
        path = b.write(f"money{k}.json", point_problem(money, n, s, f, MONEY_SCALE))
        b.choice(path, ("e-admissibility",), k, may_fail=True)


def _setfunctions(b: _Builder) -> None:
    for k, n_classes in enumerate((9, 10, 11)):
        path = b.write(f"classify{k}.json", classify_doc(b.rng, n_classes, 12 + 4 * k))
        b.goals(path, ("classify",), k)
    for k, n_theta in enumerate((10, 11, 12, 12)):
        path = b.write(f"goals{k}.json", goal_doc(b.rng, n_theta, 20 + 8 * k, 8, 16 + 4 * k))
        b.goals(path, ("score", "audit", "score")[: 3 - k // 3], k)
    for k, n_frame in enumerate((10, 11, 12)):
        path = b.write(f"mass{k}.json", transform_doc(b.rng, n_frame, 120 + 60 * k))
        b.transform(path, ("pignistic", "plausibility"), k)
    for n_frame, n_focal in ((10, 24), (11, 28), (12, 32), (12, 32), (12, 32)):
        b.roundtrip(transform_doc(b.rng, n_frame, n_focal))


def _large(b: _Builder) -> None:
    """The lottery, eadmissibility and setfunctions request lists as one pass."""
    _lottery(b)
    _eadmissibility(b)
    _setfunctions(b)


BUILDERS = {
    "desk": _desk,
    "large": _large,
    "lottery": _lottery,
    "eadmissibility": _eadmissibility,
    "setfunctions": _setfunctions,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, workdir: str) -> tuple[list[dict], dict[str, object]]:
    """Write the workload's input files and return (requests, docs by path).

    The request order is a fixed shuffle that does not depend on the
    seed, so request classes interleave the same way in every run.
    """
    b = _Builder(workdir, random.Random(f"{workload}:{seed}"))
    BUILDERS[workload](b)
    random.Random(f"order:{workload}").shuffle(b.requests)
    return b.requests, b.docs
