"""Fast self-test of the benchmark.

Runs each workload at a tiny scale, untraced and traced, through the same
worker processes and checks as run.py, and requires every check to hold.
Then, for each check, damages a copy of the outputs the way CORRUPTIONS in
workloads.py describes and requires that check to fail.

Usage (from the root of a checkout):
    python3 perfbench/selftest.py
Exits 0 when everything behaves, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import copy
import sys

from run import SRC, metrics_of, run_checks, run_workload
from workloads import WORKLOADS

# the layer each workload spends most of its time in, which a traced run
# must see
MAIN_LAYER = {
    "protocol-block": "protocol.cross_database_scores.s",
    "protocol-bloom-report": "scores.write_score_csv.s",
    "compare-csv-kde": "scores.load_score_set.s",
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    problems = []
    for name in WORKLOADS:
        run = run_workload(name, seed=11, seconds=0, trace=False, scale="tiny")
        workload, ctx, art = run["workload"], run["ctx"], run["art"]
        for check, problem in run["checks"].items():
            if problem is not None:
                problems.append(f"{name}: {check} fails on good output: {problem}")
        if run["failed"] or run["attempted"] != 3 * workload.ops_per_call:
            problems.append(f"{name}: {run['failed']} of {run['attempted']} operations failed")
        if set(workload.CORRUPTIONS) != set(workload.CHECKS):
            problems.append(f"{name}: checks without a corruption: {set(workload.CHECKS) ^ set(workload.CORRUPTIONS)}")
        for check, corrupt in workload.CORRUPTIONS.items():
            damaged = copy.deepcopy(art)
            corrupt(damaged)
            if run_checks(workload, ctx, damaged)[check] is None:
                problems.append(f"{name}: {check} passes a corrupted output")
        print(f"{name}: {len(workload.CHECKS)} checks hold, and each fails on its corruption")

        traced = run_workload(name, seed=11, seconds=0, trace=True, scale="tiny")
        layers = metrics_of(traced, trace=True)
        for metric in (MAIN_LAYER[name], "entry.s", "import.s"):
            if not layers[metric]["value"] > 0:
                problems.append(f"{name}: traced run reads {metric} = 0")
        if any(p is not None for p in traced["checks"].values()):
            problems.append(f"{name}: a check fails on the traced run")
        print(f"{name}: traced run sees {MAIN_LAYER[name]}")

    for problem in problems:
        print("FAILED " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
