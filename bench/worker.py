"""One benchmark process: set up a workload, replay it, check the outputs.

Run by ``run.py``; it is not meant to be started by hand, but it can be:

    python3 bench/worker.py --workload desk --seed 1 --seconds 10 [--setup-only] [--trace]

Protocol on standard output: the line ``ready`` once set-up is done
(the parent times set-up up to that line), then, unless
``--setup-only``, one JSON line with the run's figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Enough requests per run that at least ten lie beyond the 90th percentile.
MIN_REQUESTS = 110
# Cap on the spans kept for the trace file; aggregates keep counting past it.
MAX_KEPT_SPANS = 1_000_000


def import_package():
    """Import beliefdecision from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "beliefdecision", "__init__.py")):
        sys.exit(f"bench: no beliefdecision package under {SRC}")
    sys.path.insert(0, SRC)
    import beliefdecision
    import beliefdecision.cli

    if not os.path.abspath(beliefdecision.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: beliefdecision imported from {beliefdecision.__file__}, not {SRC}")
    return beliefdecision


def clear_caches(package) -> None:
    """Empty every functools cache of the package, so each pass does the same work."""
    for name in list(sys.modules):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for value in list(vars(sys.modules[name]).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def serve(package, req: dict) -> int:
    """Serve one request; returns its exit code. The caller captures stdout."""
    if req["kind"] == "cli":
        return package.cli.main(req["argv"])
    return _roundtrip(package, req["doc"])


def _roundtrip(package, doc: dict) -> int:
    core = package.core
    frame = core.Frame(doc["frame"])
    m = core.MassFunction(frame, {tuple(e["focal"]): e["mass"] for e in doc["mass"]})
    table = core.belief_table(m)
    back = core.mass_from_belief(frame, table)
    print(json.dumps({"focal": [[a, v] for a, v in back.items()],
                      "belief": [table[a] for a in range(len(table))]}))
    return 0


def warm_up(package, workdir: str) -> None:
    """Serve the README demo through every subcommand once."""
    demo = {
        "states": ["w1", "w2", "w3"],
        "acts": [{"name": "f1", "utilities": [37, 25, 23]},
                 {"name": "f2", "utilities": [49, 70, 2]}],
        "mass": [{"focal": ["w1"], "mass": 0.4}, {"focal": ["w1", "w2"], "mass": 0.2},
                 {"focal": ["w3"], "mass": 0.1}, {"focal": ["w1", "w2", "w3"], "mass": 0.3}],
    }
    path = os.path.join(workdir, "warmup.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(demo, fh)
    for argv in (["rank", path, "--criterion", "gowa", "--beta", "0.3"],
                 ["choice", path, "--rule", "e-admissibility", "--format", "json"],
                 ["sweep", path, "--criterion", "owa", "--steps", "3"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = serve(package, {"kind": "cli", "argv": argv})
        if code != 0:
            sys.exit(f"bench: warm-up request {argv} exited {code}")


def timed_loop(package, requests: list[dict], seconds: float, tracer=None) -> dict:
    """Replay the request list in whole passes until ``seconds`` have elapsed.

    With a tracer, each request is one root span; spans of the same
    request share its attempt number.
    """
    min_passes = math.ceil(MIN_REQUESTS / len(requests))
    first: dict[str, tuple[int, str]] = {}
    latencies: list[float] = []
    failed = 0
    problems: list[str] = []
    passes = 0
    perf = time.perf_counter
    start = perf()
    while True:
        clear_caches(package)
        for req in requests:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.start_request(len(latencies))
                t0 = perf()
                try:
                    code = serve(package, req)
                except Exception as exc:  # a crash is a failed request, not a dead run
                    code = f"raised {type(exc).__name__}: {exc}"
                latencies.append(perf() - t0)
                if tracer is not None:
                    tracer.end_request()
            result = (code, out.getvalue())
            if code != 0:
                failed += 1
                if not (req["may_fail"] and code == 3):
                    problems.append(f"{req['id']} {req.get('argv')}: exit {code}: {err.getvalue()[:300]}")
            if passes == 0:
                first[req["id"]] = result
            elif result != first[req["id"]]:
                problems.append(f"{req['id']} {req.get('argv')}: output differs from pass 1")
        passes += 1
        if passes >= min_passes and perf() - start >= seconds:
            break
    wall = perf() - start
    return {"wall": wall, "passes": passes, "latencies": latencies, "failed": failed,
            "first": first, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    package = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        requests, docs = workloads.build(args.workload, args.seed, workdir)
        warm_up(package, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(package, MAX_KEPT_SPANS)
            tracer.install()
        loop = timed_loop(package, requests, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()

        import checks  # imports numpy and scipy, after peak RSS was read

        problems = loop["problems"] + checks.check_all(requests, docs, loop["first"])
        lat = loop["latencies"]
        attempted = len(lat)
        # linear interpolation between closest ranks, as numpy's default
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        figures = {
            "correct": not problems,
            "attempted": attempted,
            "failed": loop["failed"],
            "passes": loop["passes"],
            "requests_per_pass": len(requests),
            "beyond_p90": sum(1 for v in lat if v > p90),
            "requests_per_s": attempted / loop["wall"],
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            figures["layers"] = tracer.metrics(loop["passes"])
            out_dir = os.path.join(HERE, "_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
            tracer.write(trace_path, requests, figures)
        for line in problems[:20]:
            print(f"bench: check failed: {line}", file=sys.stderr)
        print(json.dumps(figures), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
