"""One fresh process: import the package, make one entry call, report.

Usage: python3 perfbench/worker.py SPEC.json MODE

SPEC.json is written by run.py.  MODE is one of
  import  time the package import and stop;
  time    time one untraced entry call;
  spans   the same call with a span, and its memory rise, around each
          cross-module call (see spans.py).
The last line of standard output is one JSON object.

Only the standard library is imported before the package, so setup_s
includes the package's own imports (NumPy among them).
"""

import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = sys.argv[2]
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import unlinkeval
    if spec["entry"] == "protocol":
        from unlinkeval.protocol import ProtocolConfig, run_protocol
    else:
        from unlinkeval.cli import main as cli_main
    setup_s = time.perf_counter() - t0

    if not os.path.realpath(unlinkeval.__file__).startswith(src + os.sep):
        print(f"unlinkeval imported from {unlinkeval.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode == "import":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "spans":
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    if spec["entry"] == "protocol":
        cfg = ProtocolConfig.from_dict(spec["config"])
        c0, w0 = time.process_time(), time.perf_counter()
        report = run_protocol(cfg)
        wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
        result["errors"] = {fn: entry.get("error") for fn, entry in report.per_function.items()}
        if cfg.out_dir is None:
            os.makedirs(spec["rep_dir"], exist_ok=True)
            with open(os.path.join(spec["rep_dir"], "report.json"), "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
    else:
        c0, w0 = time.process_time(), time.perf_counter()
        code = cli_main(spec["argv"])
        wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
        result["exit_code"] = code

    import numpy
    from unlinkeval import kernels, protocol

    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        stamp={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "using_extension": kernels.USING_EXTENSION,
            "cores": len(os.sched_getaffinity(0)),
            "protocol_threads": (
                protocol._max_workers(len(spec["config"]["linkage_functions"]))
                if spec["entry"] == "protocol"
                else None
            ),
        },
    )
    if tracer is not None:
        tracer.close()
        layers = tracer.layer_totals()
        layers["import.s"] = setup_s
        layers["entry.s"] = wall_s
        result["layers"] = layers
        result["span_threads"] = len({span["thread"] for span in tracer.spans})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
