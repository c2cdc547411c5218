"""Benchmark of unlinkeval: run_protocol and `unlink-eval compare`, end to end
and per layer.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: protocol-block, protocol-bloom-report, compare-csv-kde (see
README.md).  Inputs come from --seed.  Every entry call runs in a fresh
worker process, one process at a time.  The S seconds count from the start
of the run, input generation and set-up included: rounds repeat until the
next one and the checks would end after S seconds, with at least
MIN_ROUNDS of them.  Medians are reported.

--trace 0 prints wall_s, cpu_s, peak_rss_mb and setup_s.  --trace 1 wraps
the calls between modules in spans (spans.py) and prints the per-layer
metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, hash_dir

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = HERE / "worker.py"

MIN_ROUNDS = 3
SETUP_PROCESSES = 6
# time kept back from --seconds for checking the outputs after the calls
CHECK_MARGIN_S = 2.0
# every run ends within this many seconds, a hung worker included
RUN_DEADLINE_S = 165

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# layer metric -> unit; a layer a workload never calls reads 0
PER_LAYER = {
    "protocol.cross_database_scores.s": "s",
    "protocol.cross_database_scores.pairs": "count",
    "protocol.cross_database_scores.pairs_per_s": "1/s",
    "protocol.cross_database_scores.peak_mb": "MB",
    "protocol.cross_database_scores.reconstruction.s": "s",
    "protocol.same_key_scores.s": "s",
    "synthbtp.generate_corpus.s": "s",
    "synthbtp.generate_databases.s": "s",
    "baselines.det_curve.s": "s",
    "baselines.det_curve.calls": "count",
    "baselines.det_curve.scores_swept": "count",
    "baselines.det_curve.peak_mb": "MB",
    "density.estimate_densities.s": "s",
    "density.estimate_densities.peak_mb": "MB",
    "scores.load_score_set.s": "s",
    "scores.load_score_set.lines": "count",
    "scores.write_score_csv.s": "s",
    "protocol.write_report_artifacts.s": "s",
    "plotting.s": "s",
    "linkability.evaluate_densities.s": "s",
    "import.s": "s",
    "entry.s": "s",
}


class ChildFailed(RuntimeError):
    pass


def run_child(spec_path: Path, mode: str, deadline: float) -> dict:
    """One fresh worker process; its last stdout line is its result.

    subprocess.run kills and reaps the worker if the deadline passes.
    """
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spec_path), mode],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker ({mode}) exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed(f"worker ({mode}) printed no result line") from None


def _write_spec(path: Path, spec: dict) -> Path:
    path.write_text(json.dumps({**spec, "src": str(SRC)}), encoding="utf-8")
    return path


def run_checks(workload, ctx: dict, art: dict) -> dict:
    """{check name: None when it holds, else what is wrong}."""
    return {name: check(workload, ctx, art) for name, check in workload.CHECKS.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Measure one workload and check its outputs.

    `seconds` is the budget of the whole run, from here to the checks' end.
    """
    begin = time.perf_counter()
    deadline = begin + RUN_DEADLINE_S
    workload = WORKLOADS[name](scale)
    work = WORK / f"{name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        ctx = workload.prepare(seed, work)
        phases = {"prepare": time.perf_counter() - begin}
        spec_path = _write_spec(work / "spec.json", workload.spec(ctx, work / "rep0"))

        run_child(spec_path, "import", deadline)  # byte-compiles and warms the file cache
        setup = [run_child(spec_path, "import", deadline)["setup_s"] for _ in range(SETUP_PROCESSES)]
        phases["setup"] = time.perf_counter() - begin - phases["prepare"]

        mode = "spans" if trace else "time"
        children, hashes = [], []
        attempted = failed = 0
        first_ok = None
        start = time.perf_counter()
        while True:
            index = len(hashes)
            rep_dir = work / f"rep{index}"
            spec_path = _write_spec(work / f"spec{index}.json", workload.spec(ctx, rep_dir))
            attempted += workload.ops_per_call
            try:
                child = run_child(spec_path, mode, deadline)
            except (ChildFailed, subprocess.TimeoutExpired) as exc:
                print(f"call {index}: {exc}", file=sys.stderr)
                failed += workload.ops_per_call
                hashes.append({})
            else:
                bad = workload.failed_ops(child)
                failed += bad
                children.append(child)
                # a call with a failed operation may have written nothing
                hashes.append(hash_dir(rep_dir) if rep_dir.is_dir() else {})
                if first_ok is None and not bad:
                    first_ok = rep_dir
                else:
                    shutil.rmtree(rep_dir, ignore_errors=True)
            now = time.perf_counter()
            rounds = len(hashes)
            per_round = (now - start) / rounds
            if rounds >= MIN_ROUNDS and now + per_round + CHECK_MARGIN_S - begin > seconds:
                break
            if time.perf_counter() > deadline:
                break
        phases["calls"] = now - start
        if first_ok is None:
            raise ChildFailed("no worker call finished without a failed operation")

        art = workload.collect(ctx, first_ok)
        art["hashes"] = [h for h in hashes if h]
        setup += [c["setup_s"] for c in children]
        checks = run_checks(workload, ctx, art)
        phases["checks"] = time.perf_counter() - now
        return {
            "workload": workload,
            "ctx": ctx,
            "art": art,
            "checks": checks,
            "attempted": attempted,
            "failed": failed,
            "children": children,
            "setup": setup,
            "phases": phases,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metrics_of(run: dict, trace: bool) -> dict:
    children = run["children"]
    if not trace:
        values = {
            "wall_s": statistics.median(c["wall_s"] for c in children),
            "cpu_s": statistics.median(c["cpu_s"] for c in children),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "setup_s": statistics.median(run["setup"]),
        }
        units = END_TO_END
    else:
        timed = [c["layers"] for c in children]
        for layers in timed:
            busy = layers.get("protocol.cross_database_scores.s", 0.0)
            pairs = layers.get("protocol.cross_database_scores.pairs", 0.0)
            layers["protocol.cross_database_scores.pairs_per_s"] = pairs / busy if busy else 0.0
        values = {}
        for metric in PER_LAYER:
            values[metric] = statistics.median(layers.get(metric, 0.0) for layers in timed)
        units = PER_LAYER
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unlinkeval" / "__init__.py").is_file():
        print(f"no unlinkeval sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    try:
        run = run_workload(args.workload, args.seed, args.seconds, trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    stamp = run["children"][0]["stamp"]
    if trace:
        stamp["span_threads"] = max(c["span_threads"] for c in run["children"])
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print("phases " + " ".join(f"{phase} {secs:.1f} s" for phase, secs in run["phases"].items()))
    print(f"calls {len(run['children'])}; wall_s per call "
          + " ".join(f"{c['wall_s']:.3f}" for c in run["children"])
          + "; setup_s per process " + " ".join(f"{s:.3f}" for s in run["setup"]))
    for check_name, problem in run["checks"].items():
        print(f"check {check_name}: {'ok' if problem is None else 'FAILED: ' + problem}")
    metrics = metrics_of(run, trace)
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": all(problem is None for problem in run["checks"].values()),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
