"""Reference checks of the benchmark's outputs.

Nothing here imports the package under test. Every answer is recomputed
from the generated input documents with numpy, ``math.fsum`` and, for
e-admissibility rejections, ``scipy.optimize.linprog``; or it is held to
a property the method must have. Text output carries 6 significant
digits, so it is compared with a relative tolerance; JSON and CSV carry
full ``repr`` floats.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, linprog

TEXT_REL = 6e-6  # a value printed with 6 significant digits
FULL_REL = 1e-9
LP_TOL = 1e-7  # margin, in utilities rescaled to [0, 1], that counts as zero


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(got: float, want: float, rel: float, scale: float) -> bool:
    return abs(got - want) <= rel * abs(want) + FULL_REL * scale


# set functions ---------------------------------------------------------


def labels_mask(labels: list[str], members) -> int:
    index = {label: i for i, label in enumerate(labels)}
    mask = 0
    for label in members:
        mask |= 1 << index[label]
    return mask


def mass_vector(labels: list[str], mass_doc: list[dict]) -> np.ndarray:
    """Mass per subset mask, over all 2^n subsets."""
    vec = np.zeros(1 << len(labels))
    for entry in mass_doc:
        vec[labels_mask(labels, entry["focal"])] += entry["mass"]
    return vec


def subset_sums(vec: np.ndarray, n: int) -> np.ndarray:
    """Zeta transform: out[A] = sum of vec[B] over every B included in A."""
    out = vec.copy()
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return out


def bel_pl(labels: list[str], mass_doc: list[dict]) -> tuple[np.ndarray, np.ndarray]:
    n = len(labels)
    bel = subset_sums(mass_vector(labels, mass_doc), n)
    full = (1 << n) - 1
    pl = 1.0 - bel[full ^ np.arange(full + 1)]
    return bel, pl


# lotteries ---------------------------------------------------------------


class Problem:
    """A problem document as arrays: per act, its lottery's focal values."""

    def __init__(self, doc: dict):
        self.states = doc["states"]
        self.names = [a["name"] for a in doc["acts"]]
        self.focal = [(labels_mask(self.states, e["focal"]), e["mass"]) for e in doc["mass"]]
        self.masses = np.array([v for _, v in self.focal])
        s = len(self.states)
        if "consequences" in doc:
            cons = doc["consequences"]
            self.cons = cons
            utils = np.array([float(doc["utilities"][c]) for c in cons])
            self.point = all(len(a["consequences"][w]) == 1 for a in doc["acts"] for w in self.states)
            images = [[labels_mask(cons, a["consequences"][w]) for w in self.states] for a in doc["acts"]]
            self.act_utils = [utils for _ in doc["acts"]]
            self.images = images
            if self.point:
                self.U = np.array([[utils[img.bit_length() - 1] for img in row] for row in images])
        else:
            self.cons = None
            self.point = True
            self.U = np.array([[float(v) for v in a["utilities"]] for a in doc["acts"]])
            self.act_utils = list(self.U)
            self.images = [[1 << j for j in range(s)] for _ in doc["acts"]]
        self.scale = max(1.0, float(np.max(np.abs(self.U)))) if self.point else max(
            1.0, float(np.max(np.abs(self.act_utils[0]))))

    def lottery(self, i: int) -> list[tuple[float, list[int], np.ndarray]]:
        """(mass, consequence indices in frame order, their utilities) per focal set."""
        out = []
        for mask, v in self.focal:
            image = 0
            for j in range(len(self.states)):
                if mask >> j & 1:
                    image |= self.images[i][j]
            idx = [k for k in range(image.bit_length()) if image >> k & 1]
            out.append((v, idx, self.act_utils[i][idx]))
        return out

    def state_masks(self) -> np.ndarray:
        """focal x state incidence matrix."""
        return np.array([[bool(mask >> j & 1) for j in range(len(self.states))]
                         for mask, _ in self.focal])


@lru_cache(maxsize=None)
def owa_weights(arity: int, beta: float) -> tuple[float, ...]:
    """Maximum-entropy OWA weights of optimism ``beta``, found with brentq."""
    if arity == 1:
        return (1.0,)
    if beta == 0.0:
        return (0.0,) * (arity - 1) + (1.0,)
    if beta == 1.0:
        return (1.0,) + (0.0,) * (arity - 1)
    q = np.array([(arity - i) / (arity - 1) for i in range(1, arity + 1)])

    def weights(lam: float) -> np.ndarray:
        z = lam * q
        w = np.exp(z - z.max())
        return w / w.sum()

    lam = brentq(lambda x: float(weights(x) @ q) - beta, -2000.0, 2000.0, xtol=1e-14)
    w = weights(lam)
    expect(abs(float(w @ q) - beta) < 1e-9, f"reference OWA weights miss optimism {beta}")
    return tuple(float(x) for x in w)


def lottery_scores(p: Problem, criterion: str, alpha=None, beta=None, index=None) -> np.ndarray:
    out = []
    for i in range(len(p.names)):
        terms = []
        for v, idx, vals in p.lottery(i):
            if criterion == "lower":
                x = vals.min()
            elif criterion == "upper":
                x = vals.max()
            elif criterion == "pignistic":
                x = vals.mean()
            elif criterion == "ghurwicz":
                x = alpha * vals.min() + (1 - alpha) * vals.max()
            elif criterion == "gowa":
                ordered = np.sort(vals)[::-1]
                x = float(np.dot(owa_weights(len(vals), beta), ordered))
            elif criterion == "jaffray":
                pairs = list(zip(vals, idx))
                worst = min(pairs, key=lambda t: (t[0], t[1]))
                best = max(pairs, key=lambda t: (t[0], -t[1]))
                a = alpha if index is None else index[(p.cons[worst[1]], p.cons[best[1]])]
                x = a * worst[0] + (1 - a) * best[0]
            else:
                raise ValueError(criterion)
            terms.append(v * x)
        out.append(math.fsum(terms))
    return np.array(out)


def reference_scores(p: Problem, check: dict, docs: dict) -> tuple[np.ndarray, bool]:
    """Scores per act and whether lower is better."""
    crit = check["criterion"]
    alpha, beta = check.get("alpha"), check.get("beta")
    if crit in ("maximin", "maximax", "laplace", "hurwicz", "regret", "gregret"):
        U = p.U
        if crit == "maximin":
            return U.min(axis=1), False
        if crit == "maximax":
            return U.max(axis=1), False
        if crit == "laplace":
            return U.mean(axis=1), False
        if crit == "hurwicz":
            return alpha * U.min(axis=1) + (1 - alpha) * U.max(axis=1), False
        regret = U.max(axis=0)[None, :] - U
        if crit == "regret":
            return regret.max(axis=1), True
        inc = p.state_masks()
        per_focal = np.array([[regret[i][row].max() for row in inc] for i in range(len(U))])
        return per_focal @ p.masses, True
    index = None
    if "index" in check:
        index = {(e["worst"], e["best"]): e["alpha"] for e in docs[check["index"]]}
    if crit == "jaffray" and index is None:
        return lottery_scores(p, "ghurwicz", alpha=alpha), False
    return lottery_scores(p, crit, alpha=alpha, beta=beta, index=index), False


def check_ranks(names, ref, lower_better, got: dict, order: list[str] | None, rel, scale) -> None:
    """``got`` maps item -> (score, rank); ranks must fit the reference scores.

    ``order`` is the listed order, which must run by rank then file
    order; None where the output keeps file order.
    """
    expect(sorted(got) == sorted(names), "items missing or repeated")
    x = -ref if lower_better else ref
    tol = rel * np.abs(x) + FULL_REL * scale * 10
    for i, name in enumerate(names):
        score, rank = got[name]
        expect(close(score, ref[i], rel, scale), f"{name}: score {score!r}, reference {ref[i]!r}")
        lo = 1 + int(np.sum(x > x[i] + tol))
        hi = 1 + int(np.sum(x > x[i] - tol))
        expect(lo <= rank <= hi, f"{name}: rank {rank}, reference allows {lo}..{hi}")
    if order is not None:
        expect(len(order) == len(names), "items repeated")
        pos = {n: k for k, n in enumerate(names)}
        keys = [(got[n][1], pos[n]) for n in order]
        expect(keys == sorted(keys), "items not listed by rank then file order")


def check_rank(req, out: str, docs) -> None:
    check = req["check"]
    p = Problem(docs[check["path"]])
    ref, lower_better = reference_scores(p, check, docs)
    if check.get("criterion") == "gowa":
        low = lottery_scores(p, "lower")
        up = lottery_scores(p, "upper")
        expect(bool(np.all(low - 1e-9 * p.scale <= ref) and np.all(ref <= up + 1e-9 * p.scale)),
               "reference gowa outside [lower, upper]")
        if check["beta"] == 0.5:
            ref = lottery_scores(p, "pignistic")
    fmt = check["format"]
    if fmt == "json":
        rows = [(r["act"], r["score"], r["rank"]) for r in json.loads(out)["results"]]
    elif fmt == "csv":
        rows = [(r["act"], float(r["score"]), int(r["rank"]))
                for r in csv.DictReader(io.StringIO(out))]
    else:
        rows = []
        for line in out.splitlines():
            name, score, rank = line.split()
            rows.append((name, float(score), int(rank)))
    rel = TEXT_REL if fmt == "text" else FULL_REL
    got = {name: (score, rank) for name, score, rank in rows}
    check_ranks(p.names, ref, lower_better, got, [r[0] for r in rows], rel, p.scale)


# choice rules ------------------------------------------------------------


def bounds(p: Problem) -> tuple[np.ndarray, np.ndarray]:
    return lottery_scores(p, "lower"), lottery_scores(p, "upper")


def maximality_matrix(p: Problem) -> np.ndarray:
    """[i, j] = lower prevision of act i minus act j, one focal set at a time."""
    diff = p.U[:, None, :] - p.U[None, :, :]
    out = np.zeros((len(p.U), len(p.U)))
    for (mask, v), row in zip(p.focal, p.state_masks()):
        out += v * diff[:, :, row].min(axis=2)
    return out


def parse_choice(out: str, fmt: str) -> tuple[list[str], dict]:
    if fmt == "json":
        doc = json.loads(out)
        return doc["choice_set"], doc
    lines = out.splitlines()
    expect(lines[0].startswith("choice set:"), "no choice set line")
    return lines[0][len("choice set:"):].split(), {"lines": lines[1:]}


def interval_sets(p: Problem, tol: float) -> tuple[set, set]:
    """(surely, possibly) interval-undominated acts."""
    low, up = bounds(p)
    n = len(p.names)
    sure, maybe = set(), set()
    for i in range(n):
        others = [j for j in range(n) if j != i]
        if not any(low[j] > up[i] - tol for j in others):
            sure.add(i)
        if not any(low[j] > up[i] + tol for j in others):
            maybe.add(i)
    return sure, maybe


def maximal_sets(delta: np.ndarray, tol: float) -> tuple[set, set]:
    """(surely, possibly) maximal acts under the lower-prevision matrix."""
    n = len(delta)
    off = delta + np.where(np.eye(n, dtype=bool), -np.inf, 0.0)
    beaten_by = off.max(axis=0) if n > 1 else np.full(n, -np.inf)
    return ({i for i in range(n) if beaten_by[i] <= -tol},
            {i for i in range(n) if beaten_by[i] <= tol})


def check_choice(req, out: str, docs) -> None:
    check = req["check"]
    p = Problem(docs[check["path"]])
    fmt, rule = check["format"], check["rule"]
    names, extra = parse_choice(out, fmt)
    pos = {n: k for k, n in enumerate(p.names)}
    chosen = {pos[n] for n in names}
    expect(len(chosen) == len(names) and chosen, "empty or repeated choice set")
    expect(names == sorted(names, key=pos.get), "choice set not in file order")
    tol = 1e-9 * p.scale
    if rule == "interval-dominance":
        sure, maybe = interval_sets(p, tol)
        expect(sure <= chosen <= maybe, "interval-dominance choice set differs from reference")
    elif rule == "interval-bound":
        low, up = bounds(p)
        n = len(p.names)
        for i in range(n):
            strict_sure = any(low[j] > low[i] + tol and up[j] > up[i] + tol for j in range(n))
            strict_maybe = any(
                low[j] > low[i] - tol and up[j] > up[i] - tol
                and (low[i] < low[j] + tol or up[i] < up[j] + tol)
                for j in range(n) if j != i)
            expect(not (i in chosen and strict_sure), f"{p.names[i]} is surely dominated")
            expect(i in chosen or strict_maybe, f"{p.names[i]} is surely undominated")
    elif rule == "prune-dominated":
        U = p.U
        survivors = {i for i in range(len(U))
                     if not any(np.all(U[k] >= U[i]) and np.any(U[k] > U[i])
                                for k in range(len(U)) if k != i)}
        expect(chosen == survivors, "prune-dominated survivors differ from reference")
    elif rule == "maximality":
        delta = maximality_matrix(p)
        rel = TEXT_REL if fmt == "text" else FULL_REL
        if fmt == "json":
            got = extra["delta"]
        else:
            got = [[None if c == "." else float(c) for c in line.split(": ", 1)[1].split()]
                   for line in extra["lines"][1:]]
        n = len(p.names)
        expect(len(got) == n, "maximality matrix has the wrong size")
        for i in range(n):
            for j in range(n):
                if i != j:
                    expect(close(got[i][j], delta[i, j], rel, p.scale),
                           f"delta[{i}][{j}] = {got[i][j]!r}, reference {delta[i, j]!r}")
        sure, maybe = maximal_sets(delta, tol)
        expect(sure <= chosen <= maybe, "maximal choice set differs from reference")
    elif rule == "e-admissibility":
        check_e_admissibility(p, chosen, extra, fmt)
    else:
        raise CheckError(f"no reference for rule {rule}")


def check_e_admissibility(p: Problem, chosen: set, extra: dict, fmt: str) -> None:
    """Witnesses checked directly, rejections by linprog, and the inclusion chain."""
    lo, hi = p.U.min(), p.U.max()
    G = (p.U - lo) / (hi - lo) if hi > lo else np.zeros_like(p.U)
    s = len(p.states)
    if fmt == "json":
        witnesses = {p.names.index(k): np.array(v) for k, v in extra["witnesses"].items()}
        p_tol, u_tol = 1e-9, 1e-7
    else:
        witnesses = {}
        for line in extra["lines"]:
            head, cells = line.split(": ", 1)
            name = head[len("witness for "):]
            values = dict(c.split("=") for c in cells.split())
            witnesses[p.names.index(name)] = np.array([float(values[w]) for w in p.states])
        p_tol, u_tol = 1e-5 * s, 1e-4
    expect(set(witnesses) == chosen, "witnesses do not match the choice set")
    bel, _ = bel_pl(p.states, [{"focal": [p.states[j] for j in range(s) if m >> j & 1], "mass": v}
                               for m, v in p.focal])
    subsets = np.arange(1 << s)
    member = (subsets[:, None] >> np.arange(s)[None, :]) & 1
    for i, w in witnesses.items():
        expect(bool(np.all(w >= -p_tol)) and abs(w.sum() - 1.0) <= p_tol,
               f"witness for {p.names[i]} is not a probability")
        expect(bool(np.all(bel <= member @ w + p_tol)),
               f"witness for {p.names[i]} violates Bel(A) <= P(A)")
        values = G @ w
        expect(values[i] >= values.max() - u_tol,
               f"{p.names[i]} is not a best response at its witness")
    for i in set(range(len(p.names))) - chosen:
        margin = best_response_margin(p, G, i)
        expect(margin <= LP_TOL, f"{p.names[i]} rejected but linprog finds margin {margin!r}")
    tol = 1e-9 * p.scale
    _, maybe_maximal = maximal_sets(maximality_matrix(p), tol)
    _, maybe_interval = interval_sets(p, tol)
    expect(chosen <= maybe_maximal, "an e-admissible act is not maximal")
    expect(maybe_maximal <= maybe_interval, "a maximal act is interval-dominated")


def best_response_margin(p: Problem, G: np.ndarray, i: int) -> float:
    """max t: some compatible P makes E_P[g_i] - E_P[g_l] >= t for every l != i."""
    n, s = G.shape
    if n == 1:
        return 0.0
    cells = [(f, j) for f, (mask, _) in enumerate(p.focal) for j in range(s) if mask >> j & 1]
    nv = len(cells) + 1
    a_eq = np.zeros((len(p.focal), nv))
    for k, (f, _) in enumerate(cells):
        a_eq[f, k] = 1.0
    b_eq = p.masses
    others = [l for l in range(n) if l != i]
    a_ub = np.zeros((len(others), nv))
    for r, l in enumerate(others):
        for k, (_, j) in enumerate(cells):
            a_ub[r, k] = G[l, j] - G[i, j]
        a_ub[r, -1] = 1.0
    c = np.zeros(nv)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(others)), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * len(cells) + [(None, None)], method="highs")
    expect(res.status == 0, f"reference LP failed: {res.message}")
    return -float(res.fun)


# sweeps, goals, transforms -------------------------------------------------


def check_sweep(req, out: str, docs) -> None:
    check = req["check"]
    p = Problem(docs[check["path"]])
    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    crit, steps = check["criterion"], check["steps"]
    expect(header[1:] == p.names, "sweep header does not list the acts")
    expect(len(body) == steps, f"{len(body)} sweep rows for {steps} steps")
    for k, row in enumerate(body):
        value = float(row[0])
        expect(abs(value - k / (steps - 1)) <= 1e-15, f"grid point {k} is {value!r}")
        got = np.array([float(x) for x in row[1:]])
        if crit == "hurwicz":
            ref = value * p.U.min(axis=1) + (1 - value) * p.U.max(axis=1)
        elif crit == "owa":
            w = np.array(owa_weights(p.U.shape[1], value))
            ref = np.sort(p.U, axis=1)[:, ::-1] @ w
        elif crit == "ghurwicz":
            ref = lottery_scores(p, "ghurwicz", alpha=value)
        else:
            ref = lottery_scores(p, "pignistic" if value == 0.5 else "gowa", beta=value)
        for name, g, r in zip(p.names, got, ref):
            expect(close(g, r, FULL_REL, p.scale), f"{crit} at {value}: {name} {g!r}, reference {r!r}")


def check_goals(req, out: str, docs) -> None:
    check = req["check"]
    doc = docs[check["path"]]
    fmt, mode = check["format"], check["mode"]
    rel = TEXT_REL if fmt == "text" else FULL_REL
    if mode == "classify":
        return check_classify(doc, out, fmt, rel)
    theta = doc["theta"]
    goals = [(labels_mask(theta, g["elements"]), g["weight"]) for g in doc["goals"]]
    if mode == "audit":
        joint = (1 << len(theta)) - 1
        for g, _ in goals:
            joint &= g
        chain = sorted((g for g, _ in goals), key=lambda g: bin(g).count("1"))
        want = {"consistent": joint != 0,
                "monotonic": all(a & ~b == 0 for a, b in zip(chain, chain[1:]))}
        if fmt == "json":
            got = json.loads(out)
        else:
            got = {k: v == "true" for k, v in (line.split(": ") for line in out.splitlines())}
        expect(got == want, f"audit {got}, reference {want}")
        return
    want = []
    for act in doc["acts"]:
        if "certain" in act:
            e = labels_mask(theta, act["certain"])
            achieved = math.fsum(w for g, w in goals if e & ~g == 0)
            precluded = math.fsum(w for g, w in goals if e & g == 0)
            want.append((act["name"], achieved - precluded, "certain"))
        else:
            bel, pl = bel_pl(theta, act["mass"])
            want.append((act["name"], math.fsum(w * (bel[g] + pl[g]) for g, w in goals), "expected"))
    if fmt == "json":
        got = [(r["act"], r["score"], r["kind"]) for r in json.loads(out)["results"]]
    else:
        got = []
        for line in out.splitlines():
            name, score, kind = line.split()
            got.append((name, float(score), kind.strip("()")))
    expect(len(got) == len(want), "score mode lists the wrong number of acts")
    for (gn, gs, gk), (wn, ws, wk) in zip(got, want):
        expect(gn == wn and gk == wk and close(gs, ws, rel, 10.0),
               f"goal score {gn} {gs!r} ({gk}), reference {wn} {ws!r} ({wk})")


def check_classify(doc: dict, out: str, fmt: str, rel: float) -> None:
    classes = doc["classes"]
    k = len(classes)
    bel, pl = bel_pl(classes, doc["mass"])
    w = doc["weights"]
    tail = [math.fsum(w[j:]) for j in range(k)]
    masks = np.arange(1, 1 << k)
    sizes = np.array([bin(int(c)).count("1") for c in masks])
    ref = (bel[masks] + pl[masks]) * np.array(tail)[sizes - 1]
    if fmt == "json":
        rows = [(labels_mask(classes, r["subset"]), r["score"], r["rank"])
                for r in json.loads(out)["scores"]]
    else:
        lines = out.splitlines()
        expect(lines[-1].startswith("order: "), "no order line")
        rows = []
        for line in lines[:-1]:
            label, score, rank = line.split()
            rows.append((labels_mask(classes, label.strip("{}").split(",")), float(score), int(rank)))
    expect([r[0] for r in rows] == list(masks), "subsets not listed in mask order")
    names = [str(c) for c in masks]
    got = {str(c): (score, rank) for c, score, rank in rows}
    check_ranks(names, ref, False, got, None, rel, 10.0)


def check_transform(req, out: str, docs) -> None:
    check = req["check"]
    doc = docs[check["path"]]
    labels = doc["frame"]
    n = len(labels)
    if check["kind"] == "pignistic":
        ref = np.zeros(n)
        for e in doc["mass"]:
            for label in e["focal"]:
                ref[labels.index(label)] += e["mass"] / len(e["focal"])
    else:
        _, pl = bel_pl(labels, doc["mass"])
        single = pl[1 << np.arange(n)]
        ref = single / single.sum()
    fmt = check["format"]
    if fmt == "json":
        got = json.loads(out)
        values = [got[label] for label in labels]
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        expect([r["element"] for r in rows] == labels, "transform rows out of order")
        values = [float(r["probability"]) for r in rows]
    else:
        pairs = [line.split() for line in out.splitlines()]
        expect([a for a, _ in pairs] == labels, "transform rows out of order")
        values = [float(b) for _, b in pairs]
    rel = TEXT_REL if fmt == "text" else FULL_REL
    for label, g, r in zip(labels, values, ref):
        expect(close(g, r, rel, 1.0), f"{check['kind']}({label}) = {g!r}, reference {r!r}")


def check_roundtrip(req, out: str, docs) -> None:
    doc = req["check"]["doc"]
    labels = doc["frame"]
    got = json.loads(out)
    bel, _ = bel_pl(labels, doc["mass"])
    expect(np.allclose(got["belief"], bel, rtol=0, atol=1e-12), "belief table differs from reference")
    want = {labels_mask(labels, e["focal"]): e["mass"] for e in doc["mass"]}
    back = {int(a): v for a, v in got["focal"]}
    expect(set(back) == set(want), "inversion did not recover the focal sets")
    worst = max(abs(back[a] - want[a]) for a in want)
    expect(worst <= 1e-9, f"inversion is off by {worst!r}")


CHECKERS = {
    "rank": check_rank,
    "choice": check_choice,
    "sweep": check_sweep,
    "goals": check_goals,
    "transform": check_transform,
    "roundtrip": check_roundtrip,
}


def check_all(requests: list[dict], docs: dict, first: dict) -> list[str]:
    """Problems found in the first-pass outputs of the requests that succeeded."""
    problems = []
    for req in requests:
        code, out = first[req["id"]]
        if code != 0:
            continue
        try:
            CHECKERS[req["check"]["type"]](req, out, docs)
        except (CheckError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"{req['id']} {req.get('argv', req['kind'])}: {type(exc).__name__}: {exc}")
    return problems
