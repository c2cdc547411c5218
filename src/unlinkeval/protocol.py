"""End-to-end evaluation protocol over K protected databases.

Steps: protect one synthetic corpus under K distinct keys, compute
cross-database mated and non-mated linkage scores for every configured
linkage function, evaluate the local and global linkability measures per
function, and aggregate with a max: the system is at least as vulnerable as
the most effective linkage function an adversary could field.  Baseline
accuracy metrics (DET/EER families, KL) are computed from the same scores
so their verdicts can be compared directly against the global measure.

cross_database_scores and same_key_scores take one ScoreEngine, which packs
the K databases once, and tally its scores into count tables as their
distance blocks are computed.  Every statistic of the report, the Gaussian
KDE included, reads only the count tables, and every score file (with
out_dir, and in `unlink-eval synth`) is written from them, each side in
ascending order.  Score files given as input (score_files) are tallied as
they are read.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kernels, scores as score_io
from .baselines import (
    DRAWN_POINTS,
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
    SchemeNotInvertibleError,
    check_bool,
    check_int,
    stacklevel_outside_package,
)
from .linkability import LinkabilityProfile, evaluate_densities
from .scores import (
    CountTable,
    PriorConfig,
    ScoreCounts,
    check_side,
    load_score_set,
    sorted_distinct,
)
from .synthbtp import CorpusConfig, KeyRing, generate_corpus, generate_databases, scheme_named

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
        if isinstance(self.linkage_functions, str) or not hasattr(self.linkage_functions, "__iter__"):
            raise InvalidConfigError(
                f"linkage_functions must be a list of names, got {self.linkage_functions!r}"
            )
        object.__setattr__(self, "linkage_functions", tuple(self.linkage_functions))
        if not self.linkage_functions:
            raise InvalidConfigError("linkage_functions must not be empty")
        for fn in self.linkage_functions:
            if not isinstance(fn, str):
                raise InvalidConfigError(f"linkage_functions must list names, got {fn!r}")
            if fn not in ADVERSARY_MODELS:
                raise InvalidConfigError(
                    f"unknown linkage function {fn!r}; available: {sorted(ADVERSARY_MODELS)}"
                )
        if len(set(self.linkage_functions)) != len(self.linkage_functions):
            raise InvalidConfigError("linkage_functions contains duplicates")
        object.__setattr__(self, "k", check_int("k", self.k, 2))
        if self.k < RECOMMENDED_MIN_KEYS:
            warnings.warn(
                f"K = {self.k} keys; at least {RECOMMENDED_MIN_KEYS} are recommended "
                "for stable cross-key score distributions",
                KeyCountWarning,
                stacklevel=stacklevel_outside_package(),
            )
        scheme = scheme_named(self.scheme)
        if (self.corpus is None) == (self.score_files is None):
            raise InvalidConfigError("exactly one of corpus and score_files must be set")
        if self.score_files is not None:
            missing = [fn for fn in self.linkage_functions if fn not in self.score_files]
            if missing:
                raise InvalidConfigError(f"score_files missing entries for {missing}")
        if self.mated_pairing not in (PAIRING_ALL_CROSS_KEY, PAIRING_DISTINCT_SAMPLES):
            raise InvalidConfigError(f"unknown mated_pairing {self.mated_pairing!r}")
        for name in ("non_mated_all_pairs", "constant_key", "allow_approximate_bloom"):
            check_bool(name, getattr(self, name))
        if self.key_seed is not None:
            object.__setattr__(self, "key_seed", check_int("key_seed", self.key_seed, 0))
        for name in ("block_size", "bloom_width", "bloom_height"):
            object.__setattr__(self, name, check_int(name, getattr(self, name), 1))
        if self.corpus is not None:
            scheme.check(self.corpus.template_bits, self.block_size, self.bloom_width, self.bloom_height)

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
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        if "linkage_functions" not in data:
            raise InvalidConfigError("config must list linkage_functions")
        kwargs = dict(data)
        if "prior" in data:
            kwargs["prior"] = _prior_from_config(data["prior"])
        if "density" in data:
            kwargs["density"] = _nested_config(DensityConfig, data["density"], "density")
        if data.get("corpus") is not None:
            kwargs["corpus"] = _nested_config(CorpusConfig, data["corpus"], "corpus")
        if data.get("score_files") is not None:
            if not isinstance(data["score_files"], dict):
                raise InvalidConfigError(f"score_files must be a mapping, got {data['score_files']!r}")
            kwargs["score_files"] = {}
            for fn, paths in data["score_files"].items():
                if not isinstance(paths, dict) or set(paths) != {"mated", "non_mated"}:
                    raise InvalidConfigError(
                        f"score_files[{fn!r}] must map exactly 'mated' and 'non_mated' to paths, got {paths!r}"
                    )
                kwargs["score_files"][fn] = {
                    side: _config_path(base, paths[side], f"score_files[{fn!r}][{side!r}]")
                    for side in ("mated", "non_mated")
                }
        if data.get("out_dir") is not None:
            kwargs["out_dir"] = _config_path(base, data["out_dir"], "out_dir")
        return _nested_config(cls, kwargs, "config")


def _config_path(base: Path, value, name: str) -> str:
    if not isinstance(value, (str, os.PathLike)):
        raise InvalidConfigError(f"{name} must be a path, got {value!r}")
    return str(base / value)


def _nested_config(kind, values, name: str):
    """kind(**values) from a config mapping; malformed values are config errors."""
    if not isinstance(values, dict):
        raise InvalidConfigError(f"{name} must be a mapping, got {values!r}")
    try:
        return kind(**values)
    except TypeError as exc:
        raise InvalidConfigError(f"{name}: {exc}") from None


def _prior_from_config(value) -> PriorConfig:
    if value == "default" or value is None:
        return PriorConfig.default()
    if isinstance(value, dict) and set(value) == {"omega"}:
        return PriorConfig.explicit(value["omega"])
    if isinstance(value, dict) and set(value) == {"n_enrolled"}:
        return PriorConfig.from_enrollment_count(value["n_enrolled"])
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


def _tile_pairs(rows: int, cols: int, group: int) -> np.ndarray:
    """Where each pair of subjects sits in a flattened (rows * group, cols * group) tile.

    The tile's rows and columns count subjects from the same first one, so
    a pair takes a row subject i and a column subject j > i.
    """
    subject = np.arange(max(rows, cols) * group) // group
    return np.flatnonzero(subject[: cols * group] > subject[: rows * group, None])


class _View:
    """What one linkage function compares, and the lattice its scores fall on.

    packed: each key's packed rows word-major (K, W, S, n), or None to
    compare set-bit counts only (hamming_weight); pops: theirs (K, S, n).  A
    score is the distance over length, or when by_popsum (Bloom pic_hd)
    over the two rows' summed set-bit counts.  A cell is a distance, or
    when by_popsum a (distance, popsum) pair keyed distance * stride +
    popsum - low.  A popsum lies between low, twice the least set-bit
    count, and twice the largest, which also bounds the distance, so every
    cell is below size.
    """

    def __init__(self, packed: np.ndarray | None, pops: np.ndarray, length: int, by_popsum: bool):
        self.packed, self.pops, self.length, self.by_popsum = packed, pops, length, by_popsum
        top, self.stride, self.low = length, 1, 0
        if by_popsum:
            least, most = int(pops.min()), int(pops.max())
            self.low, self.stride = 2 * least, 2 * (most - least) + 1
            top = min(top, 2 * most)
        self.size = (top + 1) * self.stride

    def cells(self, dist: np.ndarray, popsum) -> np.ndarray:
        return dist if popsum is None else dist * self.stride + (popsum - self.low)

    def table(self, counts: np.ndarray) -> CountTable:
        """The count table of counts, pairs per cell: a cell's score is the quotient of its integers."""
        cells = np.flatnonzero(counts)
        dist, rest = np.divmod(cells, self.stride)
        scores = np.divide(dist, rest + self.low if self.by_popsum else self.length)
        # equal quotients of different (distance, popsum) cells merge
        order = np.argsort(scores, kind="stable")
        scores, counts = scores[order], counts[cells][order]
        first = np.flatnonzero(np.concatenate(([True], scores[1:] != scores[:-1])))
        return CountTable(scores[first], np.add.reduceat(counts, first))


class ScoreEngine:
    """The K databases packed once, and what each linkage function compares of them.

    The databases protect one corpus, each under its key of the ring
    (generate_databases); given the ring, the engine checks that it
    fits them.  The engine holds their rows packed, word-major, and their
    set-bit counts (_word_major), never the per-bit databases, so a caller
    that drops those frees them before any pair is scored.  view(function)
    is the _View of a function; same_subject and distinct_subjects yield a view's distances
    block by block for the key pairs that pair_groups leaves.  The ring
    undoes the protection (permuted_xor, reconstruction) and gives the
    relative keys.  Read-only once built, except for the inverted view,
    built on first use, and `scored`, the count tables _tallied has built:
    views of the same bits over the same length (permuted_xor and
    reconstruction on block re-mapping) are tallied once.
    """

    def __init__(self, databases: list, ring: KeyRing | None = None, allow_approximate_bloom: bool = False):
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
        self.scheme = scheme_named(first.scheme)
        self.n_subjects, self.samples, self.protected_length = first.bits.shape
        self.k = len(databases)
        self.raw_length = first.raw_bits
        self.ring = ring

        self.key_ids = [db.key_id for db in databases]
        if ring is not None:
            # the relative keys and the inverted views read the ring, so a
            # ring that does not fit the databases would score them wrongly
            if ring.template_bits != self.raw_length:
                raise InconsistentDatabasesError(
                    f"key ring built for {ring.template_bits}-bit templates, databases hold {self.raw_length}")
            if not all(0 <= key_id < ring.k for key_id in self.key_ids):
                raise InconsistentDatabasesError(f"key ids {self.key_ids} outside a ring of {ring.k} keys")
            if len({self.scheme.invert(db.bits[0, 0], ring, db.key_id).tobytes() for db in databases}) > 1:
                raise InconsistentDatabasesError("the databases do not protect one corpus under the ring's keys")
        packed, pops = zip(*(self._word_major(kernels.pack_rows(db.bits.reshape(-1, self.protected_length)))
                             for db in databases))
        self.packed, self.pops = np.stack(packed), np.stack(pops)

        # the inverted view is built on first use so that a scheme that
        # cannot be inverted only fails the function that needs it
        self._allow_approximate_bloom = allow_approximate_bloom
        self._packed_inverted = None
        self._inverted_pops = None
        self.scored: dict = {}

    def _word_major(self, rows: np.ndarray):
        """Packed rows, subject-major (row i S + s), as (W, S, n), the layout
        hamming_cross reads, and their set-bit counts as (S, n): sample s of
        subject i sits at [..., s, i]."""
        n, samples = self.n_subjects, self.samples
        return (np.ascontiguousarray(rows.reshape(n, samples, -1).transpose(2, 1, 0)),
                np.ascontiguousarray(kernels.popcount_rows(rows).reshape(n, samples).T))

    def packed_inverted(self, fn: str) -> np.ndarray:
        """Every template with its protection undone under its own key.

        For block re-mapping this is also the structurally aligned view
        that permuted_xor compares.  Each scheme's inverse, Bloom's
        approximate decode included, gives a template the same bits under
        every key, so key 0's rows are unpacked, inverted and packed once,
        and broadcast, read-only, to all K keys.
        """
        if self._packed_inverted is None:
            if self.ring is None:
                raise InvalidConfigError(f"{fn} requires the key ring")
            if self.scheme.approximate_inverse and not self._allow_approximate_bloom:
                raise SchemeNotInvertibleError(
                    "Bloom-filter encoding is not invertible; approximate reconstruction is opt-in"
                )
            rows = self.packed[0].transpose(2, 1, 0).reshape(-1, self.packed.shape[1])
            packed, pops = self._word_major(kernels.pack_rows(self.scheme.invert(
                kernels.unpack_rows(rows, self.protected_length), self.ring, self.key_ids[0])))
            self._inverted_pops = np.broadcast_to(pops, (self.k, *pops.shape))
            self._packed_inverted = np.broadcast_to(packed, (self.k, *packed.shape))
        return self._packed_inverted

    def view(self, function: str) -> _View:
        """What `function` compares; raises if the scheme does not support it."""
        if function == "hamming_weight":
            return _View(None, self.pops, self.protected_length, False)
        if function == "pic_hd":
            return _View(self.packed, self.pops, self.protected_length, self.scheme.by_popsum)
        if function == "permuted_xor":
            if not self.scheme.aligned_inverse:
                raise InconsistentDatabasesError(
                    "permuted_xor needs a block-remapping scheme with known structure"
                )
            return _View(self.packed_inverted(function), self._inverted_pops, self.protected_length, False)
        if function == "reconstruction":
            return _View(self.packed_inverted(function), self._inverted_pops, self.raw_length, False)
        raise InvalidConfigError(f"unknown linkage function {function!r}")

    def canonical_keys(self, view: _View) -> np.ndarray:
        """Each key's first key whose database `view` compares as byte-identical.

        Two keys' databases are the same to a view when their set-bit counts
        and, if the view has them, their packed rows are equal arrays: the
        inverted view on every scheme, set-bit counts under block
        re-mapping and Bloom filters, and every view under a constant key.
        Any pair of templates then scores the same under either key.
        """
        first: dict = {}
        return np.array([first.setdefault((view.pops[k].tobytes(), None if view.packed is None
                                           else view.packed[k].tobytes()), k) for k in range(self.k)])

    def pair_groups(self, view: _View, keys_a, keys_b) -> np.ndarray:
        """A label per key pair (keys_a[p], keys_b[p]); pairs of one label score alike.

        Given the key ring, the protected rows label a pair by its relative
        key (the scheme's relative).  Other views label it by its canonical
        keys: the inverted view's rows are the same under every key, and
        set-bit counts under XOR salting are no function of the relative key.
        """
        if view.packed is self.packed and self.ring is not None:
            labels: dict = {}
            return np.array([labels.setdefault(self.scheme.relative(self.ring, self.key_ids[a], self.key_ids[b]),
                                               len(labels)) for a, b in zip(keys_a, keys_b)], dtype=np.intp)
        canon = self.canonical_keys(view)
        return canon[keys_a] * self.k + canon[keys_b]

    def same_subject(self, view: _View, keys_a, keys_b, sample_pairs):
        """Distances of every subject's sample pairs, one key pair at a time.

        Yields (p, dist, popsum): dist[q * n + i] compares sample pair q of
        the P in sample_pairs of subject i under key keys_a[p] with that
        under keys_b[p]; popsum is None unless view.by_popsum.  Packed rows
        compare every sample pair of all n subjects at once
        (kernels.hamming_cross), subjects innermost.
        """
        s_a, s_b = sample_pairs
        for p, (a, b) in enumerate(zip(keys_a, keys_b)):
            wa, wb = view.pops[a][s_a], view.pops[b][s_b]
            if view.packed is None:
                dist = np.abs(wa - wb)
            else:
                dist = kernels.hamming_cross(view.packed[a][:, :, None], view.packed[b][:, None])[s_a, s_b]
            yield p, dist.reshape(-1).astype(np.intp), ((wa + wb).reshape(-1) if view.by_popsum else None)

    def distinct_subjects(self, view: _View, keys_a, keys_b, group: int):
        """Distances of distinct subjects' pairs, one tile of subjects at a time.

        group is the samples compared per subject: 1 (the first) or all.
        Yields (p, dist, popsum) per kernels.triangle_tiles tile (lo, hi),
        for every key pair p of the tile in turn: dist holds the pairs of
        subjects i in lo..hi-1 with subjects j > i, i under key keys_a[p]
        and j under key keys_b[p]; popsum is None unless view.by_popsum.
        dist is a buffer that the next block overwrites.  A view without
        packed rows compares set-bit counts.  One with them takes its pairs
        from the whole tile, by kernels.hamming_cross, into buffers
        allocated once per call.
        """
        n, n_rows = self.n_subjects, self.n_subjects * group
        keys = sorted_distinct(keys_a, keys_b)
        # the rows subject-major, group samples per subject: views when group is 1
        pops = {k: view.pops[k, :group].T.reshape(-1) for k in keys}
        if view.packed is not None:
            bits = {k: view.packed[k][:, :group].swapaxes(1, 2).reshape(view.packed.shape[1], -1) for k in keys}
        buffer = None
        for lo, hi in kernels.triangle_tiles(n, group):
            r, c = slice(lo * group, hi * group), slice(lo * group, n_rows)
            width = n_rows - c.start
            at = _tile_pairs(hi - lo, n - lo, group)
            if buffer is None:
                # the first tile is the largest: its buffers serve every tile
                buffer = np.empty(at.size, dtype=np.intp)
                if view.packed is not None:
                    kind = np.min_scalar_type(64 * view.packed.shape[1])
                    product = np.empty((r.stop - r.start) * width, dtype=kind)
                    entries = np.empty(at.size, dtype=kind)
            dist = buffer[: at.size]
            # the rows of a and of b that each pair compares
            rows_a, rows_b = np.divmod(at, width)
            rows_a += r.start
            rows_b += c.start
            for p, (a, b) in enumerate(zip(keys_a, keys_b)):
                if view.packed is None:
                    np.subtract(pops[a][rows_a], pops[b][rows_b], out=dist)
                    np.abs(dist, out=dist)
                else:
                    tile = kernels.hamming_cross(bits[a][:, r, None], bits[b][:, None, c], product)
                    # at is in range; mode "raise" would take into a fresh buffer
                    np.take(tile.reshape(-1), at, out=entries[: at.size], mode="wrap")
                    np.copyto(dist, entries[: at.size], casting="unsafe")
                yield p, dist, (pops[a][rows_a] + pops[b][rows_b] if view.by_popsum else None)


# A pass of at least this many 64-bit words of XOR-popcount work splits its
# key-pair groups over _max_workers threads; on smaller passes, starting the
# threads and their malloc arenas costs more than the split saves.
THREAD_MIN_WORDS = 1 << 22


def _max_workers(n_tasks: int) -> int:
    """Threads for a pass of n_tasks key-pair groups and THREAD_MIN_WORDS words or more:
    one per CPU of the process, at most n_tasks.  Run stamps (perfbench/worker.py) record it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(n_tasks, cpus))


def _in_threads(task, parts: list) -> None:
    """task(*part) for every part, the first on this thread and each other on one of its own.
    All are joined; then this thread's error, or else the first a thread raised, is raised."""
    errors: list = []

    def run(*part):
        try:
            task(*part)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for part in parts[1:]:
            thread = threading.Thread(target=run, args=part)
            thread.start()
            threads.append(thread)
        task(*parts[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _tallied(engine: ScoreEngine, function: str, keys_a, keys_b, mated_samples, group: int,
             source: str) -> ScoreCounts:
    """One linkage function's count tables, tallied in one pass over the engine's blocks.

    Key pair p compares each template under keys_a[p] with one under
    keys_b[p]: mated_samples names the sample pairs of each subject, and
    group the samples compared per pair of distinct subjects (1, the first,
    or all).  Both sides count pairs per cell of the view, and view.table
    makes the counts count tables.  A pass scores the first key pair of
    each group (engine.pair_groups) once, and counts its scores once per
    key pair of the group: pairs of one relative key, or of the same
    canonical keys, give the same scores.  A pass of THREAD_MIN_WORDS words
    or more deals its groups out to _max_workers threads, each counting
    into its own arrays; the integer sums do not depend on the split.  The
    pair counts are checked before any pair is scored.  The engine
    remembers the tables, so a view already tallied with the same pairs,
    under any function, is not tallied again.
    """
    view = engine.view(function)
    n = engine.n_subjects
    # the lattice scores are finite, so the counts are all there is to check
    check_side(score_io.LABEL_MATED, len(keys_a) * len(mated_samples[0]) * n, np.empty(0))
    check_side(score_io.LABEL_NON_MATED, len(keys_a) * (n * (n - 1) // 2) * group * group, np.empty(0))
    # views of the same engine arrays compare the same bits; the engine owns
    # the arrays, so their ids stay unique while its memo lives
    key = (id(view.packed), id(view.pops), view.length, view.by_popsum, group,
           *(a.tobytes() for a in (keys_a, keys_b, *mated_samples)))
    if key not in engine.scored:
        _, first, times = np.unique(engine.pair_groups(view, keys_a, keys_b),
                                    return_index=True, return_counts=True)
        pairs_a, pairs_b = keys_a[first], keys_b[first]

        def tally(part: slice, counts: np.ndarray):
            a, b, weights = pairs_a[part], pairs_b[part], times[part]
            blocks = (engine.same_subject(view, a, b, mated_samples), engine.distinct_subjects(view, a, b, group))
            for side, block in zip(counts, blocks):
                for p, dist, popsum in block:
                    found = np.bincount(view.cells(dist, popsum))
                    side[: found.size] += found * weights[p]

        # hamming_cross XORs every sample pair of each subject and about half of all row pairs
        words = 0 if view.packed is None else len(first) * view.packed.shape[1] * n * (
            engine.samples**2 + n * group * group // 2)
        workers = _max_workers(len(first)) if words >= THREAD_MIN_WORDS else 1
        parts = [(slice(i, None, workers), np.zeros((2, view.size), dtype=np.int64)) for i in range(workers)]
        _in_threads(tally, parts)
        engine.scored[key] = tuple(view.table(side) for side in sum(counts for _, counts in parts))
    return ScoreCounts(*engine.scored[key], source)


def cross_database_scores(
    engine: ScoreEngine,
    function: str,
    mated_pairing: str = PAIRING_ALL_CROSS_KEY,
    non_mated_all_pairs: bool = False,
) -> ScoreCounts:
    """Mated and non-mated cross-key linkage scores over the engine's K databases, tallied.

    Mated pairs conceal the same subject under different keys; with the
    default pairing every (sample, sample) combination counts, while
    'distinct-samples' restricts to distinct sample indices.  Non-mated
    pairs compare first samples of distinct subjects under distinct keys
    unless non_mated_all_pairs extends them.  Key pairs are a < b and the
    first template of each pair is on key a, so each unordered template
    pair appears once.  The scores come as one count table per side,
    never all held at once; scores.write_score_csv writes them out.
    """
    if mated_pairing not in (PAIRING_ALL_CROSS_KEY, PAIRING_DISTINCT_SAMPLES):
        raise InvalidConfigError(f"unknown mated_pairing {mated_pairing!r}")
    samples = engine.samples
    # every (sample, sample) combination
    grid = np.indices((samples, samples)).reshape(2, -1)
    mated_samples = np.triu_indices(samples, 1) if mated_pairing == PAIRING_DISTINCT_SAMPLES else grid
    return _tallied(
        engine, function, *np.triu_indices(engine.k, 1), mated_samples,
        group=samples if non_mated_all_pairs else 1,
        source=f"{function}/{engine.scheme.name}/K={engine.k}/cross-key",
    )


def same_key_scores(engine: ScoreEngine, function: str = "pic_hd") -> ScoreCounts:
    """Accuracy-scenario scores, both templates under the same key, tallied.

    Mated: every distinct-sample pair of each subject under each key.
    Non-mated: first samples of distinct subjects under each key.  The
    scores come as one count table per side, as in cross_database_scores.
    """
    keys = np.arange(engine.k)
    return _tallied(
        engine, function, keys, keys, np.triu_indices(engine.samples, 1), group=1,
        source=f"{function}/{engine.scheme.name}/K={engine.k}/same-key",
    )


def synthetic_engine(
    corpus_cfg: CorpusConfig,
    k: int,
    scheme: str,
    key_seed: int | None = None,
    constant_key: bool = False,
    block_size: int = 64,
    bloom_width: int = 16,
    bloom_height: int = 4,
    allow_approximate_bloom: bool = False,
) -> ScoreEngine:
    """Key ring, corpus, one protected database per key, packed into an engine.

    Without key_seed the keys follow from the corpus seed, so one seed
    fixes the whole testbed.  The corpus and the databases go on return.
    """
    if key_seed is None:
        key_seed = default_key_seed(corpus_cfg.seed)
    make_ring = KeyRing.constant_ring if constant_key else KeyRing.generate
    ring = make_ring(k, corpus_cfg.template_bits, key_seed, block_size, bloom_width, bloom_height, scheme)
    databases = generate_databases(generate_corpus(corpus_cfg), ring, scheme)
    return ScoreEngine(databases, ring, allow_approximate_bloom)


@dataclass(frozen=True)
class Assessment:
    """One score set evaluated; the accuracy DET and RTMR curve are None without accuracy scores.

    Each curve holds at most baselines.DRAWN_POINTS evenly spaced points of
    its sweep, and the full sweep's EER.
    """

    densities: DensityPair
    profile: LinkabilityProfile
    kl: object
    det: DetCurve
    accuracy: DetCurve | None = None
    rtmr: DetCurve | None = None

    @property
    def kl_json(self):
        return "undefined" if self.kl is UNDEFINED else self.kl

    def to_json_dict(self) -> dict:
        """The framework beside its baselines: the entries every report shares."""
        return {
            "d_sys": self.profile.d_sys,
            "kl": self.kl_json,
            "profile": self.profile.to_json_dict(),
            "densities": self.densities.to_json_dict(),
            "eer_crosskey": self.det.eer,
            "eer_accuracy": None if self.accuracy is None else self.accuracy.eer,
            "eer_rtmr": None if self.rtmr is None else self.rtmr.eer,
        }


def assess(
    scores: ScoreCounts, density: DensityConfig, omega: float, orientation: str, mode: str,
    accuracy: ScoreCounts | None = None,
) -> Assessment:
    """Densities -> profile (LR, D(s), D_sys) -> KL over the binned pmfs -> DET curves.

    With accuracy (same-key scores), the accuracy DET and the RTMR curve
    (accuracy mated against scores' non-mated) are swept too.  Each curve
    holds the DRAWN_POINTS points that plotting.det_svg draws and its exact
    EER (det_curve's points); det_curve without points gives a full sweep.
    Every step reads only the count tables.
    """
    dp = estimate_densities(scores, density)
    profile = evaluate_densities(dp, omega)
    widths = dp.bin_widths
    kl = kl_divergence(dp.p_mated * widths, dp.p_non_mated * widths)
    acc_curve = rtmr = None
    if accuracy is not None:
        acc_curve = det_curve(accuracy.mated, accuracy.non_mated, orientation, MODE_ACCURACY, points=DRAWN_POINTS)
        rtmr = rtmr_curve(accuracy.mated, scores.non_mated, orientation, points=DRAWN_POINTS)
    # swept last, as its temporaries are the smallest when accuracy scores are many
    det = det_curve(scores.mated, scores.non_mated, orientation, mode, points=DRAWN_POINTS)
    return Assessment(densities=dp, profile=profile, kl=kl, det=det, accuracy=acc_curve, rtmr=rtmr)


def run_protocol(cfg: ProtocolConfig) -> EvaluationReport:
    """Execute the whole protocol and assemble the report.

    Linkage functions are evaluated in isolation: one failure is recorded
    in its report entry and does not abort the others.  The aggregate is
    the max of the successful functions' global measures.
    """
    engine = None
    accuracy = None
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
        engine = synthetic_engine(
            cfg.corpus, cfg.k, cfg.scheme, cfg.resolved_key_seed, cfg.constant_key,
            cfg.block_size, cfg.bloom_width, cfg.bloom_height, cfg.allow_approximate_bloom,
        )
        # one tally of the same-key accuracy scores serves every linkage function
        accuracy = same_key_scores(engine, "pic_hd")
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

    def evaluate_function(fn: str) -> dict:
        if cfg.score_files is not None:
            paths = cfg.score_files[fn]
            scores = load_score_set(paths["mated"], paths["non_mated"])
        else:
            scores = cross_database_scores(
                engine, fn, mated_pairing=cfg.mated_pairing, non_mated_all_pairs=cfg.non_mated_all_pairs,
            )
        path = None
        try:
            if cfg.out_dir is not None:
                path = Path(cfg.out_dir) / f"{fn}_scores.csv"
                path.parent.mkdir(parents=True, exist_ok=True)
                score_io.write_score_csv(scores, path)
            result = assess(
                scores, cfg.density, cfg.prior.omega, ORIENT_DISSIMILARITY, MODE_CROSSKEY, accuracy
            )
        except BaseException:
            # a function that fails leaves no score file
            if path is not None:
                path.unlink(missing_ok=True)
            raise
        entry = result.to_json_dict()
        entry.update(adversary_model=ADVERSARY_MODELS[fn], n_mated=scores.n_mated, n_non_mated=scores.n_non_mated)
        return entry

    per_function: dict = {}
    for fn in cfg.linkage_functions:
        try:
            per_function[fn] = evaluate_function(fn)
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
        write_report_artifacts(report, cfg.out_dir)
    return report


def write_report_artifacts(report: EvaluationReport, out_dir) -> Path:
    """Write report.json and the per-function plots."""
    from .plotting import linkability_svg

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "report.json"
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    for fn, entry in report.per_function.items():
        if "error" in entry:
            continue
        svg = linkability_svg(entry["densities"], entry["profile"], title_prefix=fn)
        (out / f"{fn}_linkability.svg").write_text(svg, encoding="utf-8")
    return report_path
