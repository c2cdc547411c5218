"""End-to-end evaluation protocol over K protected databases.

Steps: protect one synthetic corpus under K distinct keys, compute
cross-database mated and non-mated linkage scores for every configured
linkage function, evaluate the local and global linkability measures per
function, and aggregate with a max: the system is at least as vulnerable as
the most effective linkage function an adversary could field.  Baseline
accuracy metrics (DET/EER families, KL) are computed from the same scores
so their verdicts can be compared directly against the global measure.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .baselines import (
    MODE_ACCURACY,
    MODE_CROSSKEY,
    ORIENT_DISSIMILARITY,
    UNDEFINED,
    DetCurve,
    det_curve,
    kl_divergence,
    rtmr_curve,
)
from .density import DensityConfig, DensityPair, estimate_densities
from .errors import (
    InconsistentDatabasesError,
    InvalidConfigError,
    KeyCountWarning,
)
from .linkability import LinkabilityProfile, evaluate_densities
from .scores import PriorConfig, ScoreSet, load_score_set
from .synthbtp import (
    SCHEME_BLOCK,
    SCHEME_BLOOM,
    SCHEMES,
    CorpusConfig,
    KeyRing,
    generate_corpus,
    generate_databases,
    invert_bits,
)

SCHEMA_VERSION = 1

ADVERSARY_TEMPLATE_ONLY = "template-only"
ADVERSARY_STRUCTURAL = "structural-knowledge"
ADVERSARY_KEY = "key-knowledge"

# each linkage function declares what the adversary is assumed to hold
ADVERSARY_MODELS = {
    "pic_hd": ADVERSARY_TEMPLATE_ONLY,
    "hamming_weight": ADVERSARY_TEMPLATE_ONLY,
    "permuted_xor": ADVERSARY_STRUCTURAL,
    "reconstruction": ADVERSARY_KEY,
}

PAIRING_ALL_CROSS_KEY = "all-cross-key"
PAIRING_DISTINCT_SAMPLES = "distinct-samples"

RECOMMENDED_MIN_KEYS = 6
_CHUNK = 1 << 16


def default_key_seed(corpus_seed: int) -> int:
    """Key seed of a synthetic testbed whose keys are not seeded explicitly."""
    return corpus_seed + 1000003


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a full protocol run needs.

    Exactly one of `corpus` (synthetic generation) and `score_files`
    (externally computed scores per function) must be given.  `key_seed`
    defaults to a value derived from the corpus seed.
    """

    linkage_functions: tuple
    k: int = 10
    scheme: str = "xor-salt"
    prior: PriorConfig = field(default_factory=PriorConfig.default)
    density: DensityConfig = field(default_factory=DensityConfig)
    corpus: CorpusConfig | None = None
    score_files: dict | None = None
    out_dir: str | None = None
    key_seed: int | None = None
    mated_pairing: str = PAIRING_ALL_CROSS_KEY
    non_mated_all_pairs: bool = False
    constant_key: bool = False
    block_size: int = 64
    bloom_width: int = 16
    bloom_height: int = 4
    allow_approximate_bloom: bool = False

    def __post_init__(self):
        object.__setattr__(self, "linkage_functions", tuple(self.linkage_functions))
        if not self.linkage_functions:
            raise InvalidConfigError("linkage_functions must not be empty")
        for fn in self.linkage_functions:
            if fn not in ADVERSARY_MODELS:
                raise InvalidConfigError(
                    f"unknown linkage function {fn!r}; available: {sorted(ADVERSARY_MODELS)}"
                )
        if len(set(self.linkage_functions)) != len(self.linkage_functions):
            raise InvalidConfigError("linkage_functions contains duplicates")
        if not isinstance(self.k, int) or self.k < 2:
            raise InvalidConfigError(f"need at least 2 keys for cross-key comparisons, got {self.k!r}")
        if self.k < RECOMMENDED_MIN_KEYS:
            warnings.warn(
                f"K = {self.k} keys; at least {RECOMMENDED_MIN_KEYS} are recommended "
                "for stable cross-key score distributions",
                KeyCountWarning,
                stacklevel=3,
            )
        if self.scheme not in SCHEMES:
            raise InvalidConfigError(f"unknown scheme {self.scheme!r}")
        if (self.corpus is None) == (self.score_files is None):
            raise InvalidConfigError("exactly one of corpus and score_files must be set")
        if self.score_files is not None:
            missing = [fn for fn in self.linkage_functions if fn not in self.score_files]
            if missing:
                raise InvalidConfigError(f"score_files missing entries for {missing}")
        if self.mated_pairing not in (PAIRING_ALL_CROSS_KEY, PAIRING_DISTINCT_SAMPLES):
            raise InvalidConfigError(f"unknown mated_pairing {self.mated_pairing!r}")

    @property
    def resolved_key_seed(self) -> int:
        if self.key_seed is not None:
            return self.key_seed
        if self.corpus is not None:
            return default_key_seed(self.corpus.seed)
        return 0

    @classmethod
    def from_dict(cls, data: dict, base_dir=None) -> "ProtocolConfig":
        """Build from a parsed config mapping, resolving paths against base_dir."""
        if not isinstance(data, dict):
            raise InvalidConfigError("config root must be a mapping")
        base = Path(base_dir) if base_dir is not None else Path(".")
        known = {
            "linkage_functions", "k", "scheme", "prior", "density", "corpus",
            "score_files", "out_dir", "key_seed", "mated_pairing",
            "non_mated_all_pairs", "constant_key", "block_size", "bloom_width",
            "bloom_height", "allow_approximate_bloom",
        }
        unknown = set(data) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        if "linkage_functions" not in data:
            raise InvalidConfigError("config must list linkage_functions")
        kwargs["linkage_functions"] = tuple(data["linkage_functions"])
        for key in ("k", "scheme", "key_seed", "mated_pairing", "non_mated_all_pairs",
                    "constant_key", "block_size", "bloom_width", "bloom_height",
                    "allow_approximate_bloom"):
            if key in data:
                kwargs[key] = data[key]
        if "prior" in data:
            kwargs["prior"] = _prior_from_config(data["prior"])
        if "density" in data:
            d = dict(data["density"])
            if "grid_range" in d and d["grid_range"] is not None:
                d["grid_range"] = tuple(d["grid_range"])
            kwargs["density"] = DensityConfig(**d)
        if "corpus" in data and data["corpus"] is not None:
            kwargs["corpus"] = CorpusConfig(**data["corpus"])
        if "score_files" in data and data["score_files"] is not None:
            files = {}
            for fn, paths in data["score_files"].items():
                files[fn] = {
                    "mated": str(base / paths["mated"]),
                    "non_mated": str(base / paths["non_mated"]),
                }
            kwargs["score_files"] = files
        if "out_dir" in data and data["out_dir"] is not None:
            kwargs["out_dir"] = str(base / data["out_dir"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidConfigError(str(exc)) from None


def _prior_from_config(value) -> PriorConfig:
    if value == "default" or value is None:
        return PriorConfig.default()
    if isinstance(value, dict):
        if "omega" in value:
            return PriorConfig.explicit(float(value["omega"]))
        if "n_enrolled" in value:
            return PriorConfig.from_enrollment_count(int(value["n_enrolled"]))
    raise InvalidConfigError(f"prior must be 'default', {{'omega': x}} or {{'n_enrolled': n}}, got {value!r}")


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregated protocol outcome, JSON-ready."""

    aggregated_d_sys: float | None
    per_function: dict
    adversary_models: dict
    protocol_metadata: dict
    schema_version: int = SCHEMA_VERSION

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "aggregated_d_sys": self.aggregated_d_sys,
            "adversary_models": self.adversary_models,
            "per_function": self.per_function,
            "protocol_metadata": self.protocol_metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _pair_indices_mated(n_subjects: int, samples: int, k: int, mode: str):
    """Cross-key mated pair index arrays (key_a, row_a, key_b, row_b).

    Rows index the flattened (subject, sample) order.  Key pairs are
    enumerated a < b; sample assignment is canonical (first sample listed
    goes with the lower key), which makes each unordered template pair
    appear exactly once.
    """
    key_a, key_b = np.triu_indices(k, 1)
    if mode == PAIRING_DISTINCT_SAMPLES:
        s_a, s_b = np.triu_indices(samples, 1)
    else:
        grid = np.indices((samples, samples)).reshape(2, -1)
        s_a, s_b = grid[0], grid[1]
    subj = np.arange(n_subjects)
    n_keys, n_samp = key_a.size, s_a.size

    ka = np.repeat(key_a, n_samp * n_subjects)
    kb = np.repeat(key_b, n_samp * n_subjects)
    sa = np.tile(np.repeat(s_a, n_subjects), n_keys)
    sb = np.tile(np.repeat(s_b, n_subjects), n_keys)
    su = np.tile(subj, n_keys * n_samp)
    return ka, su * samples + sa, kb, su * samples + sb


def _pair_indices_non_mated(n_subjects: int, samples: int, k: int, all_pairs: bool):
    """Cross-key non-mated pair index arrays.

    Default pairing compares only first samples of distinct subjects under
    distinct keys (canonical assignment as for mated pairs); all_pairs
    extends to every sample combination.
    """
    subj_a, subj_b = np.triu_indices(n_subjects, 1)
    key_a, key_b = np.triu_indices(k, 1)
    if all_pairs:
        grid = np.indices((samples, samples)).reshape(2, -1)
        s_a, s_b = grid[0], grid[1]
    else:
        s_a = np.zeros(1, dtype=np.int64)
        s_b = np.zeros(1, dtype=np.int64)
    n_subj_pairs, n_keys, n_samp = subj_a.size, key_a.size, s_a.size

    ia = np.repeat(subj_a, n_keys * n_samp)
    ib = np.repeat(subj_b, n_keys * n_samp)
    ka = np.tile(np.repeat(key_a, n_samp), n_subj_pairs)
    kb = np.tile(np.repeat(key_b, n_samp), n_subj_pairs)
    sa = np.tile(s_a, n_subj_pairs * n_keys)
    sb = np.tile(s_b, n_subj_pairs * n_keys)
    return ka, ia * samples + sa, kb, ib * samples + sb


def _pair_indices_same_key(n_subjects: int, samples: int, k: int):
    """Accuracy-scenario pairs: same key throughout.

    Mated: all distinct-sample pairs of each subject under each key.
    Non-mated: first samples of distinct subjects under each key.
    """
    s_a, s_b = np.triu_indices(samples, 1)
    subj = np.arange(n_subjects)
    keys = np.arange(k)
    n_samp = s_a.size

    mk = np.repeat(keys, n_samp * n_subjects)
    msa = np.tile(np.repeat(s_a, n_subjects), k)
    msb = np.tile(np.repeat(s_b, n_subjects), k)
    msu = np.tile(subj, k * n_samp)
    mated = (mk, msu * samples + msa, mk, msu * samples + msb)

    subj_a, subj_b = np.triu_indices(n_subjects, 1)
    nk = np.repeat(keys, subj_a.size)
    nia = np.tile(subj_a, k)
    nib = np.tile(subj_b, k)
    non_mated = (nk, nia * samples, nk, nib * samples)
    return mated, non_mated


class _ScoreEngine:
    """Packed template representations shared by all linkage functions.

    Read-only once built (the inverted view under a lock, on first use), so
    scoring can run on multiple threads without coordination.
    """

    def __init__(self, databases: list, ring: KeyRing | None, allow_approximate_bloom=False):
        if len(databases) < 2:
            raise InconsistentDatabasesError(
                f"cross-key comparison needs at least 2 databases, got {len(databases)}"
            )
        first = databases[0]
        for db in databases[1:]:
            if db.bits.shape != first.bits.shape or db.scheme != first.scheme or db.raw_bits != first.raw_bits:
                raise InconsistentDatabasesError("databases disagree on corpus shape or scheme")
        if len({db.key_id for db in databases}) != len(databases):
            raise InconsistentDatabasesError("databases carry duplicate key ids")
        self.scheme = first.scheme
        self.n_subjects = first.n_subjects
        self.samples = first.samples_per_subject
        self.k = len(databases)
        self.protected_length = first.template_length
        self.raw_length = first.raw_bits
        self.ring = ring

        flat = [db.bits.reshape(-1, self.protected_length) for db in databases]
        self.packed = np.stack([kernels.pack_rows(f) for f in flat])
        self.pops = np.stack([kernels.popcount_rows(p) for p in self.packed])

        # the inverted view is built on first use so that a scheme that
        # cannot be inverted only fails the function that needs it
        self._databases = list(databases)
        self._allow_approximate_bloom = allow_approximate_bloom
        self._lazy_lock = threading.Lock()
        self._packed_inverted = None

    def packed_inverted(self, fn: str) -> np.ndarray:
        """Every template with its protection undone under its own key.

        For block re-mapping this is also the structurally aligned view
        that permuted_xor compares.
        """
        with self._lazy_lock:
            if self._packed_inverted is None:
                if self.ring is None:
                    raise InvalidConfigError(f"{fn} requires the key ring")
                self._packed_inverted = np.stack([
                    kernels.pack_rows(invert_bits(
                        db.bits.reshape(-1, self.protected_length), self.ring, db.key_id,
                        db.scheme, self._allow_approximate_bloom,
                    ))
                    for db in self._databases
                ])
            return self._packed_inverted

    def score(self, function: str, ka, rowa, kb, rowb) -> np.ndarray:
        if function == "hamming_weight":
            diff = np.abs(self.pops[ka, rowa] - self.pops[kb, rowb])
            return diff / self.protected_length
        if function == "pic_hd":
            hd = self._chunked_hamming(self.packed, ka, rowa, kb, rowb)
            if self.scheme == SCHEME_BLOOM:
                return hd / (self.pops[ka, rowa] + self.pops[kb, rowb])
            return hd / self.protected_length
        if function == "permuted_xor":
            if self.scheme != SCHEME_BLOCK:
                raise InconsistentDatabasesError(
                    "permuted_xor needs a block-remapping scheme with known structure"
                )
            hd = self._chunked_hamming(self.packed_inverted(function), ka, rowa, kb, rowb)
            return hd / self.protected_length
        if function == "reconstruction":
            hd = self._chunked_hamming(self.packed_inverted(function), ka, rowa, kb, rowb)
            return hd / self.raw_length
        raise InvalidConfigError(f"unknown linkage function {function!r}")

    @staticmethod
    def _chunked_hamming(packed, ka, rowa, kb, rowb) -> np.ndarray:
        out = np.empty(ka.size, dtype=np.int64)
        for lo in range(0, ka.size, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, ka.size))
            a = packed[ka[sl], rowa[sl]]
            b = packed[kb[sl], rowb[sl]]
            out[sl] = kernels.hamming_rows(a, b)
        return out


def cross_database_scores(
    databases: list,
    function: str,
    ring: KeyRing | None = None,
    mated_pairing: str = PAIRING_ALL_CROSS_KEY,
    non_mated_all_pairs: bool = False,
    allow_approximate_bloom: bool = False,
    _engine: "_ScoreEngine | None" = None,
) -> ScoreSet:
    """Mated and non-mated cross-key linkage scores over K databases.

    Mated pairs conceal the same subject under different keys; with the
    default pairing every (sample, sample) combination counts, while
    'distinct-samples' restricts to distinct sample indices.  Non-mated
    pairs compare first samples of distinct subjects under distinct keys
    unless non_mated_all_pairs extends them.
    """
    engine = _engine or _ScoreEngine(databases, ring, allow_approximate_bloom)
    mated_idx = _pair_indices_mated(engine.n_subjects, engine.samples, engine.k, mated_pairing)
    nm_idx = _pair_indices_non_mated(engine.n_subjects, engine.samples, engine.k, non_mated_all_pairs)
    mated = engine.score(function, *mated_idx)
    non_mated = engine.score(function, *nm_idx)
    return ScoreSet(
        mated=mated,
        non_mated=non_mated,
        source=f"{function}/{engine.scheme}/K={engine.k}/cross-key",
    )


def same_key_scores(
    databases: list,
    function: str = "pic_hd",
    ring: KeyRing | None = None,
    _engine: "_ScoreEngine | None" = None,
) -> ScoreSet:
    """Accuracy-scenario scores: both templates under the same key."""
    engine = _engine or _ScoreEngine(databases, ring)
    mated_idx, nm_idx = _pair_indices_same_key(engine.n_subjects, engine.samples, engine.k)
    mated = engine.score(function, *mated_idx)
    non_mated = engine.score(function, *nm_idx)
    return ScoreSet(
        mated=mated,
        non_mated=non_mated,
        source=f"{function}/{engine.scheme}/K={engine.k}/same-key",
    )


def synthetic_databases(
    corpus_cfg: CorpusConfig,
    k: int,
    scheme: str,
    key_seed: int | None = None,
    constant_key: bool = False,
    block_size: int = 64,
    bloom_width: int = 16,
    bloom_height: int = 4,
) -> tuple[list, KeyRing]:
    """Corpus, then key ring, then one protected database per key.

    Without key_seed the keys follow from the corpus seed, so one seed
    fixes the whole testbed.
    """
    if key_seed is None:
        key_seed = default_key_seed(corpus_cfg.seed)
    corpus = generate_corpus(corpus_cfg)
    make_ring = KeyRing.constant_ring if constant_key else KeyRing.generate
    ring = make_ring(k, corpus_cfg.template_bits, key_seed, block_size, bloom_width, bloom_height)
    return generate_databases(corpus, ring, scheme), ring


@dataclass(frozen=True)
class Assessment:
    """One score set evaluated: densities, linkability profile, KL, DET curve."""

    densities: DensityPair
    profile: LinkabilityProfile
    kl: object
    det: DetCurve

    @property
    def kl_json(self):
        return "undefined" if self.kl is UNDEFINED else self.kl


def assess(
    scores: ScoreSet, density: DensityConfig, omega: float, orientation: str, mode: str
) -> Assessment:
    """Densities -> profile (LR, D(s), D_sys) -> KL over the binned pmfs -> one DET curve."""
    dp = estimate_densities(scores, density)
    profile = evaluate_densities(dp, omega)
    widths = dp.bin_widths
    kl = kl_divergence(dp.p_mated * widths, dp.p_non_mated * widths)
    det = det_curve(scores.mated, scores.non_mated, orientation, mode)
    return Assessment(densities=dp, profile=profile, kl=kl, det=det)


def _max_workers(n_tasks: int) -> int:
    cap = os.environ.get("UNLINK_EVAL_THREADS", "")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            raise InvalidConfigError(f"UNLINK_EVAL_THREADS must be an integer, got {cap!r}") from None
        if limit < 1:
            raise InvalidConfigError(f"UNLINK_EVAL_THREADS must be positive, got {limit}")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(n_tasks, limit))


def run_protocol(cfg: ProtocolConfig) -> EvaluationReport:
    """Execute the whole protocol and assemble the report.

    Linkage functions are evaluated in isolation: one failure is recorded
    in its report entry and does not abort the others.  The aggregate is
    the max of the successful functions' global measures.
    """
    engine = None
    accuracy = None
    accuracy_eer = None
    metadata: dict = {
        "k": cfg.k,
        "scheme": cfg.scheme,
        "mated_pairing": cfg.mated_pairing,
        "non_mated_all_pairs": cfg.non_mated_all_pairs,
        "constant_key": cfg.constant_key,
        "omega": cfg.prior.omega,
        "prior_derivation": cfg.prior.derivation,
        "score_source": "synthetic-corpus" if cfg.corpus else "external-files",
    }
    if cfg.corpus is not None:
        databases, ring = synthetic_databases(
            cfg.corpus, cfg.k, cfg.scheme, cfg.resolved_key_seed, cfg.constant_key,
            cfg.block_size, cfg.bloom_width, cfg.bloom_height,
        )
        engine = _ScoreEngine(databases, ring, cfg.allow_approximate_bloom)
        accuracy = same_key_scores(databases, "pic_hd", ring, _engine=engine)
        # one same-key accuracy curve serves every linkage function
        accuracy_eer = det_curve(
            accuracy.mated, accuracy.non_mated, ORIENT_DISSIMILARITY, MODE_ACCURACY
        ).eer
        metadata.update(
            {
                "n_subjects": cfg.corpus.n_subjects,
                "samples_per_subject": cfg.corpus.samples_per_subject,
                "template_bits": cfg.corpus.template_bits,
                "intra_flip_rate": cfg.corpus.intra_flip_rate,
                "corpus_seed": cfg.corpus.seed,
                "key_seed": cfg.resolved_key_seed,
            }
        )
    # score sets outlive their evaluation only when they are to be written
    keep_scores = cfg.out_dir is not None

    def evaluate_function(fn: str) -> tuple:
        if cfg.score_files is not None:
            paths = cfg.score_files[fn]
            scores = load_score_set(paths["mated"], paths["non_mated"])
        else:
            scores = cross_database_scores(
                None, fn,
                mated_pairing=cfg.mated_pairing,
                non_mated_all_pairs=cfg.non_mated_all_pairs,
                _engine=engine,
            )
        result = assess(scores, cfg.density, cfg.prior.omega, ORIENT_DISSIMILARITY, MODE_CROSSKEY)
        entry = {
            "adversary_model": ADVERSARY_MODELS[fn],
            "d_sys": result.profile.d_sys,
            "n_mated": scores.n_mated,
            "n_non_mated": scores.n_non_mated,
            "kl": result.kl_json,
            "profile": result.profile.to_json_dict(),
            "densities": result.densities.to_json_dict(),
            "eer_crosskey": result.det.eer,
            "eer_accuracy": accuracy_eer,
            "eer_rtmr": None,
        }
        if accuracy is not None:
            entry["eer_rtmr"] = rtmr_curve(accuracy.mated, scores.non_mated, ORIENT_DISSIMILARITY).eer
        return entry, (scores if keep_scores else None)

    per_function: dict = {}
    score_sets: dict = {}
    workers = _max_workers(len(cfg.linkage_functions))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {fn: pool.submit(evaluate_function, fn) for fn in cfg.linkage_functions}
        for fn, future in futures.items():
            try:
                entry, scores = future.result()
                per_function[fn] = entry
                if scores is not None:
                    score_sets[fn] = scores
            except Exception as exc:
                per_function[fn] = {
                    "adversary_model": ADVERSARY_MODELS[fn],
                    "error": f"{type(exc).__name__}: {exc}",
                }

    d_values = [e["d_sys"] for e in per_function.values() if "d_sys" in e]
    aggregated = max(d_values) if d_values else None
    report = EvaluationReport(
        aggregated_d_sys=aggregated,
        per_function=per_function,
        adversary_models={fn: ADVERSARY_MODELS[fn] for fn in cfg.linkage_functions},
        protocol_metadata=metadata,
    )
    if cfg.out_dir is not None:
        write_report_artifacts(report, score_sets, cfg.out_dir)
    return report


def write_report_artifacts(report: EvaluationReport, score_sets: dict, out_dir) -> Path:
    """Write report.json, per-function plots, and per-function score CSVs."""
    from .plotting import linkability_svg
    from .scores import write_score_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    for fn, entry in report.per_function.items():
        if "error" in entry:
            continue
        svg = linkability_svg(entry["densities"], entry["profile"], title_prefix=fn)
        (out / f"{fn}_linkability.svg").write_text(svg, encoding="utf-8")
        if fn in score_sets:
            write_score_csv(score_sets[fn], out / f"{fn}_scores.csv")
    return report_path
