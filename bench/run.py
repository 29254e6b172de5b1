"""Benchmark of the beliefdecision CLI and library on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 45 --trace 0

Workloads: desk and large; lottery, eadmissibility and setfunctions are
the three parts of large, runnable alone (see README.md). With
``--trace 0`` the run measures the end-to-end metrics: set-up time is
the median over nine fresh processes, and the timed loop runs in the
middle one. With ``--trace 1`` one traced process gives the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Fresh processes whose set-up is timed, before and after the one that also
# runs the timed loop. Spreading them over the run makes their median
# cover more than one spell of the host's speed.
SETUP_RUNS_AROUND = 4
CHILD_TIMEOUT_S = 150


def spawn(args: argparse.Namespace, *extra: str) -> tuple[float, dict | None]:
    """Start a worker; return its set-up time and, unless set-up only, its figures."""
    argv = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "ready":
        sys.exit(f"bench: worker {' '.join(extra) or 'run'} exited with code {code}")
    if "--setup-only" in extra:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.trace:
        _, figures = spawn(args, "--trace")
        metrics = figures["layers"]
        print(f"bench: traced requests_per_s {figures['requests_per_s']:.4f}", file=sys.stderr)
    else:
        setups = [spawn(args, "--setup-only")[0] for _ in range(SETUP_RUNS_AROUND)]
        setup, figures = spawn(args)
        setups.append(setup)
        setups += [spawn(args, "--setup-only")[0] for _ in range(SETUP_RUNS_AROUND)]
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name, unit in (("requests_per_s", "1/s"), ("latency_p50_ms", "ms"),
                           ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB")):
            metrics[name] = {"value": figures[name], "unit": unit}
    print(
        f"bench: {args.workload} seed {args.seed}: {figures['attempted']} requests in "
        f"{figures['passes']} passes of {figures['requests_per_pass']}, "
        f"{figures['beyond_p90']} beyond p90",
        file=sys.stderr,
    )
    print(json.dumps({"correct": figures["correct"], "attempted": figures["attempted"],
                      "failed": figures["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
