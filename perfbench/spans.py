"""Span recorder for the traced run.

Spans are recorded from the benchmark's side of the boundary: `install`
replaces the module-level names that `run_protocol` and `cli.main` look up
at call time (for example `protocol.det_curve` and `baselines.det_curve`)
with timing wrappers.  No program file changes.

Imports only the standard library, so a worker can load this module before
it times the import of the package.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

MB = 1024.0 * 1024.0


class Tracer:
    """Keeps spans (name, start, end, parent, thread) and counters in memory.

    Each span also records the largest rise of the process's resident size
    above its level when the span opened.  A daemon thread samples the
    resident size every SAMPLE_S seconds and at every span boundary; the
    rise includes memory the other protocol thread took meanwhile, and a
    spike shorter than a sample can be missed.  Sampling is used instead of
    tracemalloc because tracemalloc slowed the CSV parser and the Bloom
    decoder about ninefold.
    """

    SAMPLE_S = 0.002

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: dict[int, list[int]] = {}
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def close(self) -> None:
        self._stop.set()
        self._sampler.join()
        os.close(self._statm)

    def _rss(self) -> int:
        return int(os.pread(self._statm, 128, 0).split()[1]) * self._page

    def _note_rss(self) -> int:
        rss = self._rss()
        for rec in self._open.values():
            rec[1] = max(rec[1], rss)
        return rss

    def _sample(self) -> None:
        while not self._stop.wait(self.SAMPLE_S):
            with self._lock:
                self._note_rss()

    def wrap(self, name: str, fn, count=None, tag=None):
        """Return fn wrapped in a span called name.

        count(args, kwargs, result) returns {counter: increment}; tag(args,
        kwargs) labels the span (the linkage function, for scorers).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = getattr(self._local, "current", None)
            self._local.current = sid
            with self._lock:
                base = self._note_rss()
                self._open[sid] = [base, base]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._local.current = parent
                span = {
                    "name": name,
                    "id": sid,
                    "parent": parent,
                    "thread": threading.get_ident(),
                    "start": start,
                    "end": end,
                    "tag": tag(args, kwargs) if tag else None,
                }
                with self._lock:
                    self._note_rss()
                    base, top = self._open.pop(sid)
                    span["peak_mb"] = (top - base) / MB
                    self.spans.append(span)
            if count is not None:
                increments = count(args, kwargs, result)
                with self._lock:
                    for key, value in increments.items():
                        self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def layer_totals(self) -> dict:
        """Busy seconds and peak MB per layer and per tag, and the counters."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            keys = [span["name"]]
            if span["tag"]:
                keys.append(f'{span["name"]}.{span["tag"]}')
            for key in keys:
                out[f"{key}.s"] += span["end"] - span["start"]
                out[f"{key}.peak_mb"] = max(out[f"{key}.peak_mb"], span["peak_mb"])
        out.update(self.counts)
        return dict(out)


def _calls_and_swept(args, kwargs, result):
    return {"calls": 1, "scores_swept": len(args[0]) + len(args[1])}


def _pairs(args, kwargs, result):
    return {"pairs": result.n_mated + result.n_non_mated}


def _lines(args, kwargs, result):
    return {"lines": result.n_mated + result.n_non_mated}


def _linkage_function(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("function")


def install(tracer: Tracer) -> None:
    """Wrap the cross-module names the two entry points call."""
    from unlinkeval import baselines, cli, plotting, protocol, scores

    det = tracer.wrap("baselines.det_curve", baselines.det_curve, count=_calls_and_swept)
    # cross_key_det and rtmr_curve look det_curve up in baselines; the
    # protocol's own cross-key curve looks it up in protocol
    baselines.det_curve = det
    protocol.det_curve = det
    cli.det_curve = det

    protocol.cross_database_scores = tracer.wrap(
        "protocol.cross_database_scores",
        protocol.cross_database_scores,
        count=_pairs,
        tag=_linkage_function,
    )
    protocol.same_key_scores = tracer.wrap("protocol.same_key_scores", protocol.same_key_scores)
    protocol.generate_corpus = tracer.wrap("synthbtp.generate_corpus", protocol.generate_corpus)
    protocol.generate_databases = tracer.wrap("synthbtp.generate_databases", protocol.generate_databases)
    protocol.write_report_artifacts = tracer.wrap(
        "protocol.write_report_artifacts", protocol.write_report_artifacts
    )
    # write_report_artifacts imports these from their modules at call time
    scores.write_score_csv = tracer.wrap("scores.write_score_csv", scores.write_score_csv)
    plotting.linkability_svg = tracer.wrap("plotting", plotting.linkability_svg)

    for module in (protocol, cli):
        module.estimate_densities = tracer.wrap("density.estimate_densities", module.estimate_densities)
        module.evaluate_densities = tracer.wrap("linkability.evaluate_densities", module.evaluate_densities)
    cli.load_score_set = tracer.wrap("scores.load_score_set", cli.load_score_set, count=_lines)
    cli.det_svg = tracer.wrap("plotting", cli.det_svg)
    cli.linkability_svg = tracer.wrap("plotting", cli.linkability_svg)
    baselines.DetCurve.to_json_dict = tracer.wrap("plotting", baselines.DetCurve.to_json_dict)
