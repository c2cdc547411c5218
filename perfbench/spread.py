"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):
    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--out perfbench/results/set1.jsonl]

Runs run.py untraced once per seed, one run at a time, for the run_seconds
that BENCHMARK.json gives, appends each result line to --out, and prints per metric the median, the quartiles from
statistics.quantiles(values, n=4), and (Q3 - Q1) / median.  Stops at the
first run that exits non-zero or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=HERE / "results" / "spread.jsonl")
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(RUN_SECONDS), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=HERE.parent,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            ) + f" attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = median
            share = (q3 - q1) / median if median else 0.0
            print(f"{workload} {name}: median {median:.6g} Q1 {q1:.6g} Q3 {q3:.6g} spread {share:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
