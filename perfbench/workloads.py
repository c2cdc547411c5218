"""The three workloads: inputs from a seed, the worker's spec, and the checks.

Each workload is a class with
  prepare(seed, work)        inputs, made before any timing;
  spec(ctx, rep_dir)         what one worker process runs;
  ops_per_call               operations one entry call attempts;
  failed_ops(child)          how many of them failed;
  collect(ctx, first_dir)    the outputs of the first call that the checks
                             read; the runner adds the file hashes of all;
  CHECKS                     {name: check(ctx, art) -> None or a failure text};
  CORRUPTIONS                {name: corrupt(art)}, used by selftest.py to
                             show that each check catches a bad output.

Checks compare with computations made here, apart from the program, or with
properties the method must have; never with a stored copy of an output.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from math import comb
from pathlib import Path

import numpy as np

FUNCTIONS_BLOCK = ("pic_hd", "hamming_weight", "permuted_xor", "reconstruction")
FUNCTIONS_BLOOM = ("pic_hd", "hamming_weight", "reconstruction")
K = 10
SAMPLES = 4
BITS = 1024
FLIP_RATE = 0.1
BLOCK_SIZE = 64
BLOOM_WIDTH = 16
BLOOM_HEIGHT = 4
D_SYS_TOL = 1e-12
KDE_REL_TOL = 1e-9

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_SVG_META = re.compile(r"<metadata><!\[CDATA\[(.*?)\]\]></metadata>", re.S)


def _seed32(seed: int) -> int:
    return seed % (1 << 32)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def d_sys_from_densities(densities: dict, omega: float) -> float:
    """The paper's global measure, summed bin by bin.

    D(s) = 0 when LR*omega <= 1, else 2*LR*omega/(1+LR*omega) - 1; a bin
    with mated but no non-mated density, or whose LR overflows a float, has
    LR = +inf and D = 1; a bin with neither carries no evidence and D = 0.
    """
    edges = densities["edges"]
    terms = []
    for i, (pm, pnm) in enumerate(zip(densities["p_mated"], densities["p_non_mated"])):
        if pm == 0.0:
            continue
        lr = math.inf if pnm == 0.0 else pm / pnm
        if math.isinf(lr):
            d = 1.0
        else:
            t = lr * omega
            d = 0.0 if t <= 1.0 else 2.0 * t / (1.0 + t) - 1.0
        terms.append(pm * d * (edges[i + 1] - edges[i]))
    return math.fsum(terms)


def whole_counts(density: list, edges: list, n: int) -> np.ndarray | None:
    """Per-bin counts density*width*n, or None when they are not whole."""
    raw = np.asarray(density) * np.diff(np.asarray(edges)) * n
    counts = np.rint(raw)
    if np.max(np.abs(raw - counts)) > 1e-9 * max(1.0, float(raw.max())):
        return None
    return counts.astype(np.int64)


def _check_d_sys(entries: dict, omega: float) -> str | None:
    for fn, entry in entries.items():
        own = d_sys_from_densities(entry["densities"], omega)
        if not abs(own - entry["d_sys"]) <= D_SYS_TOL or entry["profile"]["d_sys"] != entry["d_sys"]:
            return f"{fn}: reported D_sys {entry['d_sys']!r}, recomputed {own!r}"
    return None


def _check_identical(art: dict) -> str | None:
    hashes = art["hashes"]
    if len(hashes) < 2:
        return f"needs two runs of one seed, got {len(hashes)}"
    for i, h in enumerate(hashes[1:], start=1):
        if h != hashes[0]:
            differing = sorted(k for k in set(h) | set(hashes[0]) if h.get(k) != hashes[0].get(k))
            return f"run {i} differs from run 0 in {differing}"
    return None


def _hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit differences between packed uint8 rows, broadcast over leading axes."""
    return _POPCOUNT[a ^ b].sum(axis=-1, dtype=np.int64)


def hash_dir(rep_dir: Path) -> dict:
    return {p.name: _sha(p) for p in sorted(rep_dir.iterdir()) if p.is_file()}


def _svg_metadata(path: Path) -> dict:
    match = _SVG_META.search(path.read_text(encoding="utf-8"))
    return json.loads(match.group(1)) if match else {}


class ProtocolWorkload:
    """run_protocol on a synthetic corpus: 4 samples, K=10, 1024 bits, p=0.1."""

    entry = "protocol"
    scheme: str
    functions: tuple
    SCALES: dict

    def __init__(self, scale: str):
        self.n_subjects = self.SCALES[scale]

    def prepare(self, seed: int, work: Path) -> dict:
        return {"corpus_seed": _seed32(seed), "key_seed": _seed32(seed * 7919 + 1)}

    def config(self, ctx: dict, rep_dir: Path) -> dict:
        return {
            "linkage_functions": list(self.functions),
            "k": K,
            "scheme": self.scheme,
            "key_seed": ctx["key_seed"],
            "block_size": BLOCK_SIZE,
            "bloom_width": BLOOM_WIDTH,
            "bloom_height": BLOOM_HEIGHT,
            "corpus": {
                "n_subjects": self.n_subjects,
                "samples_per_subject": SAMPLES,
                "template_bits": BITS,
                "intra_flip_rate": FLIP_RATE,
                "seed": ctx["corpus_seed"],
            },
        }

    def spec(self, ctx: dict, rep_dir: Path) -> dict:
        return {"entry": self.entry, "config": self.config(ctx, rep_dir), "rep_dir": str(rep_dir)}

    @property
    def ops_per_call(self) -> int:
        return len(self.functions)

    def failed_ops(self, child: dict) -> int:
        """One operation per linkage function; it fails with an error entry."""
        return sum(1 for error in child["errors"].values() if error)

    def expected_pairs(self) -> tuple[int, int]:
        n = self.n_subjects
        return comb(K, 2) * SAMPLES * SAMPLES * n, comb(K, 2) * comb(n, 2)

    def _check_pair_counts(self, ctx, art):
        mated, non_mated = self.expected_pairs()
        for fn in self.functions:
            entry = art["report"]["per_function"].get(fn, {})
            if (entry.get("n_mated"), entry.get("n_non_mated")) != (mated, non_mated):
                return f"{fn}: {entry.get('n_mated')}/{entry.get('n_non_mated')} pairs, expected {mated}/{non_mated}"
        return None

    def _check_whole_counts(self, ctx, art):
        for fn, entry in art["report"]["per_function"].items():
            dens = entry["densities"]
            for side, n in (("p_mated", entry["n_mated"]), ("p_non_mated", entry["n_non_mated"])):
                counts = whole_counts(dens[side], dens["edges"], n)
                if counts is None or int(counts.sum()) != n:
                    return f"{fn} {side}: densities x widths x n are not whole counts summing to {n}"
        return None

    def _check_d_sys(self, ctx, art):
        report = art["report"]
        return _check_d_sys(report["per_function"], report["protocol_metadata"]["omega"])

    def _check_aggregate(self, ctx, art):
        report = art["report"]
        best = max(e["d_sys"] for e in report["per_function"].values())
        if report["aggregated_d_sys"] != best:
            return f"aggregate {report['aggregated_d_sys']!r} is not the maximum {best!r}"
        return None


class ProtocolBlock(ProtocolWorkload):
    name = "protocol-block"
    scheme = "block-remap"
    functions = FUNCTIONS_BLOCK
    SCALES = {"full": 450, "tiny": 40}

    def collect(self, ctx: dict, first: Path) -> dict:
        art = {"report": json.loads((first / "report.json").read_text(encoding="utf-8"))}
        art.update(self._own_hd(ctx))
        return art

    def _own_hd(self, ctx: dict) -> dict:
        """HDs computed here from the program's corpus and keys.

        mated_hd: the mated pic_hd scores, block re-mapped here.
        raw_mated_max, raw_non_mated_min: the extremes of the raw-template
        HDs that permuted_xor and reconstruction see once the re-mapping is
        undone; mated pairs are any two samples of one subject, non-mated
        pairs first samples of two subjects.
        """
        from unlinkeval.synthbtp import CorpusConfig, KeyRing, generate_corpus

        corpus = generate_corpus(CorpusConfig(**self.config(ctx, None)["corpus"]))
        ring = KeyRing.generate(K, BITS, ctx["key_seed"], BLOCK_SIZE, BLOOM_WIDTH, BLOOM_HEIGHT)
        n = self.n_subjects
        blocks = corpus.bits.reshape(n, SAMPLES, BITS // ring.block_size, ring.block_size)
        # output block i of a re-mapped template is input block perm[i]
        packed = [np.packbits(blocks[:, :, perm].reshape(n, SAMPLES, BITS), axis=2) for perm in ring.block_perms]
        mated = []
        for a in range(K):
            for b in range(a + 1, K):
                mated.append(_hamming(packed[a][:, :, None, :], packed[b][:, None, :, :]).reshape(-1))

        raw = np.packbits(corpus.bits, axis=2)
        raw_mated = _hamming(raw[:, :, None, :], raw[:, None, :, :])
        first = raw[:, 0, :]
        raw_nm_min = min(
            int(_hamming(first[i, None, :], first[i + 1 :, :]).min()) for i in range(n - 1)
        )
        return {
            "mated_hd": np.concatenate(mated) / BITS,
            "raw_mated_max": int(raw_mated.max()),
            "raw_non_mated_min": raw_nm_min,
        }

    def _check_disjoint(self, ctx, art):
        if art["raw_mated_max"] >= art["raw_non_mated_min"]:
            return f"raw HD supports overlap: mated up to {art['raw_mated_max']}, non-mated from {art['raw_non_mated_min']}"
        for fn in ("permuted_xor", "reconstruction"):
            entry = art["report"]["per_function"][fn]
            if not abs(entry["d_sys"] - 1.0) <= D_SYS_TOL:
                return f"{fn}: D_sys {entry['d_sys']!r}, expected 1 for disjoint supports"
        return None

    def _check_mated_histogram(self, ctx, art):
        dens = art["report"]["per_function"]["pic_hd"]["densities"]
        own, _ = np.histogram(art["mated_hd"], bins=np.asarray(dens["edges"]))
        reported = whole_counts(dens["p_mated"], dens["edges"], art["mated_hd"].size)
        if reported is None or not np.array_equal(own, reported):
            return "pic_hd mated histogram differs from the one recomputed from corpus and keys"
        return None

    CHECKS = {
        "pair_counts": ProtocolWorkload._check_pair_counts,
        "whole_counts": ProtocolWorkload._check_whole_counts,
        "d_sys_recomputed": ProtocolWorkload._check_d_sys,
        "aggregate_is_max": ProtocolWorkload._check_aggregate,
        "disjoint_supports_give_one": _check_disjoint,
        "mated_hd_histogram": _check_mated_histogram,
        "deterministic": lambda self, ctx, art: _check_identical(art),
    }

    CORRUPTIONS = {
        "pair_counts": lambda art: art["report"]["per_function"]["pic_hd"].update(n_mated=1),
        "whole_counts": lambda art: _scale_first(art["report"]["per_function"]["hamming_weight"]["densities"]["p_mated"], 1.5),
        "d_sys_recomputed": lambda art: art["report"]["per_function"]["pic_hd"].update(d_sys=0.5),
        "aggregate_is_max": lambda art: art["report"].update(aggregated_d_sys=0.25),
        "disjoint_supports_give_one": lambda art: art["report"]["per_function"]["reconstruction"].update(d_sys=0.9),
        "mated_hd_histogram": lambda art: art.update(mated_hd=np.roll(art["mated_hd"], 1) + 1.0 / BITS),
        "deterministic": lambda art: art["hashes"][1].update({"report.json": "0"}),
    }


class ProtocolBloomReport(ProtocolWorkload):
    name = "protocol-bloom-report"
    scheme = "bloom-filter"
    functions = FUNCTIONS_BLOOM
    SCALES = {"full": 100, "tiny": 30}

    def config(self, ctx: dict, rep_dir: Path) -> dict:
        cfg = super().config(ctx, rep_dir)
        cfg.update(allow_approximate_bloom=True, out_dir=str(rep_dir))
        return cfg

    def collect(self, ctx: dict, first: Path) -> dict:
        report = json.loads((first / "report.json").read_text(encoding="utf-8"))
        csv, lines, svg = {}, {}, {}
        for fn in self.functions:
            csv[fn], lines[fn] = read_labeled_csv(first / f"{fn}_scores.csv")
            svg[fn] = _svg_metadata(first / f"{fn}_linkability.svg")
        return {"report": report, "csv": csv, "lines": lines, "svg": svg}

    def _check_csv_lines(self, ctx, art):
        mated, non_mated = self.expected_pairs()
        for fn in self.functions:
            m, nm = art["csv"][fn]
            if art["lines"][fn] != 1 + mated + non_mated or (m.size, nm.size) != (mated, non_mated):
                return f"{fn}_scores.csv: {art['lines'][fn]} lines, expected 1 + {mated} + {non_mated}"
        return None

    def _check_pic_hd_range(self, ctx, art):
        m, nm = art["csv"]["pic_hd"]
        lo, hi = min(m.min(), nm.min()), max(m.max(), nm.max())
        if lo < 0.0 or hi > 1.0:
            return f"pic_hd scores span [{lo!r}, {hi!r}], outside [0, 1]"
        return None

    def _check_csv_histogram(self, ctx, art):
        for fn in self.functions:
            dens = art["report"]["per_function"][fn]["densities"]
            edges = np.asarray(dens["edges"])
            for side, values in zip(("p_mated", "p_non_mated"), art["csv"][fn]):
                counts, _ = np.histogram(values, bins=edges)
                own = counts / (values.size * np.diff(edges))
                if not np.allclose(own, dens[side], rtol=1e-12, atol=0.0):
                    return f"{fn} {side}: histogram of the CSV differs from the report"
        return None

    def _check_svg_metadata(self, ctx, art):
        for fn in self.functions:
            entry = art["report"]["per_function"][fn]
            if art["svg"][fn] != {"densities": entry["densities"], "profile": entry["profile"]}:
                return f"{fn}_linkability.svg metadata differs from its report entry"
        return None

    CHECKS = {
        "pair_counts": ProtocolWorkload._check_pair_counts,
        "csv_line_counts": _check_csv_lines,
        "pic_hd_in_unit_interval": _check_pic_hd_range,
        "csv_histogram": _check_csv_histogram,
        "svg_metadata": _check_svg_metadata,
        "d_sys_recomputed": ProtocolWorkload._check_d_sys,
        "byte_identical": lambda self, ctx, art: _check_identical(art),
    }

    CORRUPTIONS = {
        "pair_counts": lambda art: art["report"]["per_function"]["hamming_weight"].update(n_non_mated=3),
        "csv_line_counts": lambda art: art["lines"].update(pic_hd=art["lines"]["pic_hd"] - 1),
        "pic_hd_in_unit_interval": lambda art: art["csv"]["pic_hd"][1].__setitem__(0, 1.25),
        "csv_histogram": lambda art: _move_scores(art["csv"]["reconstruction"]),
        "svg_metadata": lambda art: art["svg"]["pic_hd"]["profile"].update(d_sys=-1.0),
        "d_sys_recomputed": lambda art: art["report"]["per_function"]["hamming_weight"].update(d_sys=0.0),
        "byte_identical": lambda art: art["hashes"][-1].update({"pic_hd_scores.csv": "0"}),
    }


class CompareCsvKde:
    """unlink-eval compare --kde on four CSVs of distinct continuous scores."""

    name = "compare-csv-kde"
    entry = "cli"
    # lines per file: accuracy mated, accuracy non-mated, cross-key mated,
    # cross-key non-mated; with 'dissimilarity' mated scores sit lower
    SCALES = {
        "full": (320_000, 180_000, 60_000, 90_000),
        "tiny": (20_000, 10_000, 4_000, 6_000),
    }
    # the cross-key mated scores lie within the non-mated support, so no
    # bin's likelihood ratio comes near the float range: where a finite
    # ratio exceeds about 9e307, linkability.local_linkability_curve
    # overflows and `compare` exits 2
    _SHAPES = ((0.20, 0.06), (0.48, 0.03), (0.44, 0.04), (0.48, 0.045))
    # the first two cross-key non-mated scores, set beyond the normal draws
    # (5.5 sd and more) so that the cross-key range, and with it the number
    # of auto bins and the KDE's n x bins matrix, is the same for every seed
    _CROSSKEY_ENDS = (0.22, 0.74)
    FILES = ("accuracy_mated", "accuracy_nonmated", "crosskey_mated", "crosskey_nonmated")

    def __init__(self, scale: str):
        self.sizes = self.SCALES[scale]

    def prepare(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(_seed32(seed))
        scores = [rng.normal(mu, sd, n) for (mu, sd), n in zip(self._SHAPES, self.sizes)]
        scores[3][:2] = self._CROSSKEY_ENDS
        # every score distinct, over all four files
        while True:
            pooled = np.concatenate(scores)
            _, first = np.unique(pooled, return_index=True)
            if first.size == pooled.size:
                break
            dup = np.setdiff1d(np.arange(pooled.size), first)
            offsets = np.cumsum([0] + [s.size for s in scores])
            for i, s in enumerate(scores):
                mine = dup[(dup >= offsets[i]) & (dup < offsets[i + 1])] - offsets[i]
                s[mine] = rng.normal(*self._SHAPES[i], mine.size)
        paths = {}
        labels = ("mated", "nonmated", "mated", "nonmated")
        for name, label, values in zip(self.FILES, labels, scores):
            paths[name] = work / f"{name}.csv"
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("score,label\n")
                for lo in range(0, values.size, 100_000):
                    fh.write("".join(f"{v!r},{label}\n" for v in values[lo : lo + 100_000].tolist()))
        return {"scores": dict(zip(self.FILES, scores)), "paths": paths}

    def spec(self, ctx: dict, rep_dir: Path) -> dict:
        p = ctx["paths"]
        argv = [
            "compare",
            "--accuracy-mated", str(p["accuracy_mated"]),
            "--accuracy-nonmated", str(p["accuracy_nonmated"]),
            "--crosskey-mated", str(p["crosskey_mated"]),
            "--crosskey-nonmated", str(p["crosskey_nonmated"]),
            "--kde",
            "--out", str(rep_dir),
        ]
        return {"entry": self.entry, "argv": argv, "rep_dir": str(rep_dir)}

    ops_per_call = 1

    def failed_ops(self, child: dict) -> int:
        """One operation per CLI command; it fails on a non-zero exit code."""
        return int(child["exit_code"] != 0)

    def collect(self, ctx: dict, first: Path) -> dict:
        return {
            "comparison": json.loads((first / "comparison.json").read_text(encoding="utf-8")),
            "det_svg": _svg_metadata(first / "det_comparison.svg"),
        }

    def _check_eer(self, ctx, art):
        s = ctx["scores"]
        pairs = {
            "eer_accuracy": (s["accuracy_mated"], s["accuracy_nonmated"]),
            "eer_crosskey": (s["crosskey_mated"], s["crosskey_nonmated"]),
            "eer_rtmr": (s["accuracy_mated"], s["crosskey_nonmated"]),
        }
        for key, (mated, non_mated) in pairs.items():
            own = sorted_eer(mated, non_mated)
            step = max(1.0 / mated.size, 1.0 / non_mated.size)
            if not abs(art["comparison"][key] - own) <= step:
                return f"{key} {art['comparison'][key]!r}, recomputed {own!r} (one step is {step!r})"
        return None

    def _check_kde(self, ctx, art):
        dens = art["comparison"]["densities"]
        s = ctx["scores"]
        for side, values in (("p_mated", s["crosskey_mated"]), ("p_non_mated", s["crosskey_nonmated"])):
            own = chunked_kde(values, np.asarray(dens["edges"]))
            reported = np.asarray(dens[side])
            err = float(np.max(np.abs(own - reported)) / np.max(np.abs(own)))
            if not err <= KDE_REL_TOL:
                return f"{side}: KDE differs from the chunked recomputation by {err!r} relative"
        return None

    def _check_d_sys(self, ctx, art):
        c = art["comparison"]
        entry = {"densities": c["densities"], "profile": c["profile"], "d_sys": c["d_sys"]}
        return _check_d_sys({"cross-key": entry}, c["omega"])

    def _check_det_svg(self, ctx, art):
        curves = art["det_svg"].get("curves", [])
        c = art["comparison"]
        if [x.get("eer") for x in curves] != [c["eer_accuracy"], c["eer_crosskey"]]:
            return "det_comparison.svg curves do not carry the reported EERs"
        return None

    CHECKS = {
        "eer_from_sorted_scores": _check_eer,
        "chunked_kde": _check_kde,
        "d_sys_recomputed": _check_d_sys,
        "det_svg_metadata": _check_det_svg,
        "deterministic": lambda self, ctx, art: _check_identical(art),
    }

    CORRUPTIONS = {
        "eer_from_sorted_scores": lambda art: art["comparison"].update(eer_rtmr=art["comparison"]["eer_rtmr"] + 0.01),
        "chunked_kde": lambda art: _scale_first(art["comparison"]["densities"]["p_non_mated"], 1.0 + 1e-6, peak=True),
        "d_sys_recomputed": lambda art: art["comparison"].update(d_sys=art["comparison"]["d_sys"] + 1e-9),
        "det_svg_metadata": lambda art: art["det_svg"]["curves"].reverse(),
        "deterministic": lambda art: art["hashes"][0].update({"comparison.json": "0"}),
    }


def _move_scores(sides: tuple) -> None:
    """Give ten mated scores the largest non-mated value."""
    mated, non_mated = sides
    mated[:10] = non_mated.max()


def _scale_first(values: list, factor: float, peak: bool = False) -> None:
    """Scale one density value in place: the first non-zero one, or the largest."""
    i = int(np.argmax(values)) if peak else next(i for i, v in enumerate(values) if v > 0)
    values[i] *= factor


def read_labeled_csv(path: Path) -> tuple[tuple[np.ndarray, np.ndarray], int]:
    """(mated, non-mated) scores and line count of a 'score,label' CSV."""
    text = path.read_text(encoding="utf-8")
    lines = text.count("\n")
    header, _, body = text.partition("\n")
    if header != "score,label":
        raise ValueError(f"{path}: unexpected header {header!r}")
    body = body.replace(",nonmated", " 1").replace(",mated", " 0")
    table = np.array(body.split(), dtype=np.float64).reshape(-1, 2)
    return (table[table[:, 1] == 0, 0], table[table[:, 1] == 1, 0]), lines


def sorted_eer(mated: np.ndarray, non_mated: np.ndarray) -> float:
    """EER of dissimilarity scores at the first sorted score where the
    false-match rate reaches the false-non-match rate."""
    thresholds = np.sort(np.concatenate([mated, non_mated]))
    fmr = np.searchsorted(np.sort(non_mated), thresholds, side="right") / non_mated.size
    fnmr = 1.0 - np.searchsorted(np.sort(mated), thresholds, side="right") / mated.size
    i = int(np.argmax(fmr >= fnmr))
    return float((fmr[i] + fnmr[i]) / 2.0)


def chunked_kde(values: np.ndarray, edges: np.ndarray, chunk: int = 8192) -> np.ndarray:
    """Gaussian KDE with Silverman's bandwidth at the bin centres, in chunks
    of scores so memory stays at chunk x bins; normalised onto the grid."""
    n = values.size
    q75, q25 = np.percentile(values, [75.0, 25.0])
    std = float(np.std(values))
    spread = min(std, (q75 - q25) / 1.34) if q75 > q25 else std
    bw = 0.9 * spread * n ** (-1.0 / 5.0)
    centers = (edges[:-1] + edges[1:]) / 2.0
    total = np.zeros(centers.size)
    for lo in range(0, n, chunk):
        z = (centers[None, :] - values[lo : lo + chunk, None]) / bw
        total += np.exp(-0.5 * z * z).sum(axis=0)
    dens = total / (n * bw * math.sqrt(2.0 * math.pi))
    return dens / float(np.sum(dens * np.diff(edges)))


WORKLOADS = {cls.name: cls for cls in (ProtocolBlock, ProtocolBloomReport, CompareCsvKde)}
