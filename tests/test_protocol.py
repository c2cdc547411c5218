import dataclasses
import json
import os
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval import kernels, protocol, scores
from unlinkeval.errors import (
    InconsistentDatabasesError,
    InvalidConfigError,
    KeyCountWarning,
    NotDivisibleError,
    PriorRangeWarning,
    StatisticalAdequacyWarning,
)
from unlinkeval.protocol import (
    PAIRING_ALL_CROSS_KEY,
    PAIRING_DISTINCT_SAMPLES,
    ScoreEngine,
    _View,
    synthetic_engine,
    write_report_artifacts,
)
from unlinkeval.synthbtp import SCHEME_BLOOM, SCHEME_XOR, SCHEMES

warnings.simplefilter("ignore", StatisticalAdequacyWarning)
warnings.simplefilter("ignore", KeyCountWarning)


def _databases(n_subjects=2, samples=2, bits=128, k=2, seed=1, scheme=SCHEME_XOR,
               constant=False):
    cfg = ue.CorpusConfig(n_subjects=n_subjects, samples_per_subject=samples,
                          template_bits=bits, intra_flip_rate=0.1, seed=seed)
    corpus = ue.generate_corpus(cfg)
    make = ue.KeyRing.constant_ring if constant else ue.KeyRing.generate
    # 16-bit blocks keep the permutation space large enough for k up to 10
    ring = make(k, bits, seed + 1, block_size=16)
    return ue.generate_databases(corpus, ring, scheme), ring


def _engine(**kwargs):
    """A ScoreEngine over _databases(**kwargs)."""
    return ScoreEngine(*_databases(**kwargs))


def _read_rows(path):
    """A labeled score CSV's scores, each side in file order, mated rows first.

    repr round-trips, so the values come back bit for bit.
    """
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "score,label"
    sides = {scores.LABEL_MATED: [], scores.LABEL_NON_MATED: []}
    for row in rows:
        value, label = row.split(",")
        assert not (label == scores.LABEL_MATED and sides[scores.LABEL_NON_MATED])
        sides[label].append(float(value))
    return np.array(sides[scores.LABEL_MATED]), np.array(sides[scores.LABEL_NON_MATED])


def _scores_of(table):
    """A count table's scores, in ascending order."""
    return np.repeat(table.values, table.counts)


class TestPairCounts:
    def test_smallest_corpus_all_cross_key(self):
        s = ue.cross_database_scores(_engine(n_subjects=2, samples=2, k=2), "pic_hd",
                                     mated_pairing=PAIRING_ALL_CROSS_KEY,
                                     non_mated_all_pairs=True)
        # per subject: one key pair x 2x2 sample grid = 4; two subjects = 8
        assert s.n_mated == 8
        assert s.n_non_mated == 4

    def test_smallest_corpus_distinct_samples(self):
        s = ue.cross_database_scores(_engine(n_subjects=2, samples=2, k=2), "pic_hd",
                                     mated_pairing=PAIRING_DISTINCT_SAMPLES,
                                     non_mated_all_pairs=True)
        assert s.n_mated == 2
        assert s.n_non_mated == 4

    def test_reference_corpus_counts(self):
        """210 subjects, 4 samples, 10 keys: the published corpus geometry."""
        # 256 bits so all schemes can draw ten distinct keys
        engine = _engine(n_subjects=210, samples=4, bits=256, k=10, seed=3)
        s = ue.cross_database_scores(engine, "pic_hd", mated_pairing=PAIRING_DISTINCT_SAMPLES)
        assert s.n_mated == 56_700  # 210 * C(4,2) * C(10,2)
        assert s.n_non_mated == 987_525  # C(210,2) * C(10,2)

    def test_all_cross_key_counts(self):
        engine = _engine(n_subjects=5, samples=3, k=4, seed=3)
        s = ue.cross_database_scores(engine, "pic_hd", mated_pairing=PAIRING_ALL_CROSS_KEY)
        assert s.n_mated == 5 * 6 * 9  # subjects * key pairs * sample grid
        assert s.n_non_mated == 10 * 6  # subject pairs * key pairs

    def test_non_mated_all_pairs(self):
        s = ue.cross_database_scores(_engine(n_subjects=3, samples=2, k=3, seed=5), "pic_hd",
                                     non_mated_all_pairs=True)
        # every sample of every distinct-subject pair, over each key pair
        assert s.n_non_mated == 3 * (2 * 2) * 3

    def test_same_key_counts(self):
        s = ue.same_key_scores(_engine(n_subjects=4, samples=3, k=2, seed=7), "pic_hd")
        assert s.n_mated == 2 * 4 * 3  # keys * subjects * C(3,2)
        assert s.n_non_mated == 2 * 6  # keys * C(4,2)


class TestScoreValues:
    def test_mated_xor_scores_match_hand_computation(self):
        dbs, ring = _databases(n_subjects=2, samples=2, k=2, bits=64)
        s = ue.cross_database_scores(ScoreEngine(dbs, ring), "pic_hd", mated_pairing=PAIRING_DISTINCT_SAMPLES,
                                     non_mated_all_pairs=True)
        # template pair (subject, sample 0, key 0) vs (subject, sample 1, key 1)
        expected = []
        for subj in range(2):
            a = dbs[0].bits[subj, 0]
            b = dbs[1].bits[subj, 1]
            expected.append(np.mean(a != b))
        assert _scores_of(s.mated).tolist() == pytest.approx(sorted(expected))

    def test_constant_ring_reduces_to_raw_comparison(self):
        s = ue.cross_database_scores(_engine(n_subjects=3, samples=2, k=3, constant=True, bits=2048), "pic_hd")
        # same mask on both sides cancels in the XOR, scores sit near the
        # raw intra-class distance, far below 0.5
        assert float(np.mean(_scores_of(s.mated))) < 0.3
        assert float(np.mean(_scores_of(s.non_mated))) == pytest.approx(0.5, abs=0.05)

    def test_determinism(self):
        dbs, ring = _databases(n_subjects=4, samples=2, k=3, seed=11)
        # each call gets its own engine, so neither reads the other's tables
        _assert_same_tables(*(ue.cross_database_scores(ScoreEngine(dbs, ring), "pic_hd") for _ in range(2)))


class TestViewLattice:
    """The cells of a hand-built view and the count tables they give."""

    # rows with 2 and 4 set bits: popsums from low = 4 to 2 * most = 8
    POPS = np.array([[2, 4], [3, 4]])

    def _bloom(self, length=16):
        return _View(None, self.POPS, length, True)

    def test_equal_bloom_quotients_merge(self):
        view = self._bloom()
        counts = np.zeros(view.size, dtype=np.int64)
        # (distance 1, popsum 4) three times and (2, 8) four times
        cells = view.cells(np.array([1, 2]), np.array([4, 8]))
        counts[cells] = [3, 4]
        table = view.table(counts)
        assert table.values.tolist() == [0.25]
        assert table.counts.tolist() == [7]

    @pytest.mark.parametrize("length", [16, 6])
    def test_extreme_cells_lie_below_size(self, length):
        view = self._bloom(length)
        most = int(self.POPS.max())
        top = min(length, 2 * most)
        cells = view.cells(np.array([0, 0, top, top]), np.array([view.low, 2 * most] * 2))
        assert cells.min() >= 0
        assert cells.max() < view.size

    def test_distance_scores_are_the_quotients_bit_for_bit(self):
        view = _View(None, self.POPS, 7, False)
        counts = np.zeros(view.size, dtype=np.int64)
        cells = np.array([0, 1, 3, 5, 7])
        counts[cells] = [1, 2, 3, 4, 5]
        table = view.table(counts)
        expected = np.array([c / 7 for c in cells])
        assert np.array_equal(table.values.view(np.uint64), expected.view(np.uint64))
        assert table.counts.tolist() == [1, 2, 3, 4, 5]


# every linkage function each scheme supports
_SUPPORTED = [
    (scheme, fn)
    for scheme in ("xor-salt", "block-remap", "bloom-filter", "none")
    for fn in ("pic_hd", "hamming_weight", "permuted_xor", "reconstruction")
    if fn != "permuted_xor" or scheme == "block-remap"
]


def _oracle_score(fn, scheme, ring, raw1, a, raw2, b):
    """fn's score of raw1 protected under key a against raw2 under key b,
    computed pair by pair from the scheme's protect outputs."""
    t1, t2 = SCHEMES[scheme].protect(raw1, ring, a), SCHEMES[scheme].protect(raw2, ring, b)
    if fn == "pic_hd":
        set_bits = np.count_nonzero(t1) + np.count_nonzero(t2)
        return np.count_nonzero(t1 != t2) / (set_bits if scheme == SCHEME_BLOOM else t1.size)
    if fn == "hamming_weight":
        return abs(np.count_nonzero(t1) - np.count_nonzero(t2)) / t1.size
    if fn == "permuted_xor":
        # block i of key a's layout holds raw block pa[i], which sits at
        # block pb^-1[pa[i]] of key b's layout
        block_of = np.argsort(ring.block_perms[b])[ring.block_perms[a]]
        relation = (block_of[:, None] * ring.block_size + np.arange(ring.block_size)).reshape(-1)
        return np.count_nonzero(t1 != t2[relation]) / t1.size
    r1, r2 = SCHEMES[scheme].invert(t1, ring, a), SCHEMES[scheme].invert(t2, ring, b)
    return np.count_nonzero(r1 != r2) / r1.size


@pytest.fixture(params=[("one-thread", None), ("one-thread", 2), ("threads", None), ("threads", 2)],
                ids=lambda p: f"{p[0]}-tile{p[1] or 'default'}")
def distance_blocks(request, monkeypatch):
    """Every pass on the calling thread, or split over three threads
    however little work it holds, in default tiles or in tiles of two rows
    that split every corpus here."""
    kind, tile_rows = request.param
    monkeypatch.setattr(protocol, "THREAD_MIN_WORDS", 0 if kind == "threads" else 1 << 62)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    if tile_rows is not None:
        monkeypatch.setattr(kernels, "TILE_ROWS", tile_rows)


def _assert_same_tables(got, expected):
    for side in ("mated", "non_mated"):
        a, b = getattr(got, side), getattr(expected, side)
        assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
        assert np.array_equal(a.counts, b.counts)


def _assert_counts_of(tables, mated, non_mated):
    """tables tally exactly the given scores of each side."""
    _assert_same_tables(tables, ue.ScoreCounts.from_scores(mated, non_mated))


def _cross_key_pairs(n, samples, k, mated_pairing=PAIRING_ALL_CROSS_KEY, non_mated_all_pairs=False):
    """Every pair that cross_database_scores scores, mated and non-mated,
    each template a (subject, sample, key)."""
    key_pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    grid = [(sa, sb) for sa in range(samples) for sb in range(samples)]
    distinct = [(sa, sb) for sa, sb in grid if sa < sb]
    mated_samples = distinct if mated_pairing == PAIRING_DISTINCT_SAMPLES else grid
    nm_samples = grid if non_mated_all_pairs else [(0, 0)]
    mated = [((subj, sa, a), (subj, sb, b))
             for a, b in key_pairs for sa, sb in mated_samples for subj in range(n)]
    non_mated = [((i, sa, a), (j, sb, b))
                 for i in range(n) for j in range(i + 1, n) for a, b in key_pairs for sa, sb in nm_samples]
    return mated, non_mated


def _same_key_pairs(n, samples, k):
    """Every pair that same_key_scores scores, as _cross_key_pairs."""
    # mated: distinct sample pairs; non-mated: first samples
    mated = [((subj, sa, key), (subj, sb, key))
             for key in range(k) for sa in range(samples) for sb in range(sa + 1, samples)
             for subj in range(n)]
    non_mated = [((i, 0, key), (j, 0, key)) for key in range(k) for i in range(n) for j in range(i + 1, n)]
    return mated, non_mated


def _oracle(fn, scheme, ring, corpus, pairs):
    """The per-pair oracle's score of each pair of templates."""
    return [_oracle_score(fn, scheme, ring, corpus.bits[i, sa], a, corpus.bits[j, sb], b)
            for (i, sa, a), (j, sb, b) in pairs]


def _testbed(scheme, subjects, samples, k, constant, seed):
    """An engine over the databases of a corpus under scheme, approximate
    Bloom decoding allowed, and the oracle of a list of pairs."""
    cfg = ue.CorpusConfig(n_subjects=subjects, samples_per_subject=samples, template_bits=128,
                          intra_flip_rate=0.1, seed=seed)
    corpus = ue.generate_corpus(cfg)
    make = ue.KeyRing.constant_ring if constant else ue.KeyRing.generate
    ring = make(k, 128, seed + 1, block_size=16)
    return (ScoreEngine(ue.generate_databases(corpus, ring, scheme), ring, allow_approximate_bloom=True),
            lambda fn, pairs: _oracle(fn, scheme, ring, corpus, pairs))


@pytest.mark.usefixtures("distance_blocks")
class TestEngineMatchesPerTemplateFunctions:
    """The engine's count tables tally exactly the per-pair oracle's scores."""

    SUBJECTS, SAMPLES, K = 3, 3, 3
    CONSTANT_KEY = False

    def _testbed(self, scheme):
        return _testbed(scheme, self.SUBJECTS, self.SAMPLES, self.K, self.CONSTANT_KEY, seed=8)

    @pytest.mark.parametrize("non_mated_all_pairs", [False, True])
    @pytest.mark.parametrize("mated_pairing", [PAIRING_ALL_CROSS_KEY, PAIRING_DISTINCT_SAMPLES])
    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_cross_key_scores(self, scheme, fn, mated_pairing, non_mated_all_pairs):
        engine, oracle = self._testbed(scheme)
        tables = ue.cross_database_scores(engine, fn, mated_pairing=mated_pairing,
                                          non_mated_all_pairs=non_mated_all_pairs)
        pairs = _cross_key_pairs(self.SUBJECTS, self.SAMPLES, self.K, mated_pairing, non_mated_all_pairs)
        _assert_counts_of(tables, *(oracle(fn, side) for side in pairs))

    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_same_key_scores(self, scheme, fn):
        engine, oracle = self._testbed(scheme)
        pairs = _same_key_pairs(self.SUBJECTS, self.SAMPLES, self.K)
        _assert_counts_of(ue.same_key_scores(engine, fn), *(oracle(fn, side) for side in pairs))


class TestEngineMatchesPerTemplateFunctionsConstantKey(TestEngineMatchesPerTemplateFunctions):
    """The same checks under a constant key: every view sees K identical
    databases, so each key pair's scores come from one pair of canonical keys."""

    CONSTANT_KEY = True


@pytest.mark.usefixtures("distance_blocks")
class TestEngineHoldsNoPerBitDatabase:
    """The engine keeps packed rows only: the per-bit databases are freed once
    the caller drops them, and the inverted view, built later from the packed
    rows, still scores as the pair-by-pair oracle.  In the 120-bit geometry
    pack_rows pads every row but the 64-bit Bloom filters."""

    SUBJECTS, SAMPLES, K = 4, 2, 3

    @pytest.mark.parametrize("bits,block_size,bloom", [(128, 16, (16, 4)), (120, 8, (5, 3))],
                             ids=["128-bits", "120-bits"])
    @pytest.mark.parametrize("scheme", ["xor-salt", "block-remap", "bloom-filter", "none"])
    def test_inverted_views_after_the_databases_are_freed(self, scheme, bits, block_size, bloom):
        n, S = self.SUBJECTS, self.SAMPLES
        cfg = ue.CorpusConfig(n_subjects=n, samples_per_subject=S, template_bits=bits,
                              intra_flip_rate=0.1, seed=5)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(self.K, bits, 6, block_size, *bloom)
        dbs = ue.generate_databases(corpus, ring, scheme)
        engine = ScoreEngine(dbs, ring, allow_approximate_bloom=True)
        per_bit = [weakref.ref(db.bits) for db in dbs]
        del dbs
        assert [ref() for ref in per_bit] == [None] * self.K

        pairs = _cross_key_pairs(n, S, self.K)
        for fn in ["reconstruction"] + (["permuted_xor"] if scheme == "block-remap" else []):
            # each function tallies its own tables, not those the other left in the memo
            engine.scored.clear()
            _assert_counts_of(ue.cross_database_scores(engine, fn),
                              *(_oracle(fn, scheme, ring, corpus, side) for side in pairs))


class TestSyntheticEngine:
    @pytest.mark.parametrize("scheme", ["xor-salt", "block-remap", "bloom-filter", "none"])
    def test_corpus_and_per_bit_databases_are_freed_when_it_returns(self, monkeypatch, scheme):
        """synthetic_engine keeps neither the corpus nor the per-bit databases
        it protects and packs: only the engine's packed rows outlive it."""
        import unlinkeval.protocol as protocol

        per_bit = []
        for name in ("generate_corpus", "generate_databases"):
            def keep_refs(*args, _real=getattr(protocol, name)):
                made = _real(*args)
                per_bit.extend(weakref.ref(m.bits) for m in (made if isinstance(made, list) else [made]))
                return made

            monkeypatch.setattr(protocol, name, keep_refs)
        cfg = ue.CorpusConfig(n_subjects=4, samples_per_subject=2, template_bits=128,
                              intra_flip_rate=0.1, seed=5)
        engine = synthetic_engine(cfg, 3, scheme, block_size=16)
        assert engine.k == 3 and len(per_bit) == 1 + 3
        assert [ref() for ref in per_bit] == [None] * 4


class TestEngineValidation:
    def test_needs_two_databases(self):
        dbs, ring = _databases()
        with pytest.raises(InconsistentDatabasesError):
            ScoreEngine(dbs[:1], ring)

    def test_rejects_mixed_schemes(self):
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=128,
                              intra_flip_rate=0.1, seed=1)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(2, 128, 2)
        a = ue.generate_databases(corpus, ring, SCHEME_XOR)[0]
        b = ue.generate_databases(corpus, ring, SCHEME_BLOOM)[1]
        with pytest.raises(InconsistentDatabasesError):
            ScoreEngine([a, b], ring)

    def test_rejects_duplicate_key_ids(self):
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=128,
                              intra_flip_rate=0.1, seed=1)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(2, 128, 2)
        a = ue.generate_databases(corpus, ring, SCHEME_XOR)[0]
        with pytest.raises(InconsistentDatabasesError):
            ScoreEngine([a, a], ring)

    @pytest.mark.parametrize("kind,error", [("constant", "do not protect one corpus under the ring's keys"),
                                            ("short", "outside a ring of 2 keys"),
                                            ("other-length", "built for 256-bit templates")])
    @pytest.mark.parametrize("scheme", ["xor-salt", "block-remap", "bloom-filter", "none"])
    def test_rejects_a_ring_that_does_not_fit(self, scheme, kind, error):
        """pic_hd groups key pairs by the ring's relative keys, and the
        inverted views undo each database's key, so a ring that did not
        protect the databases is refused.  The constant ring repeats the
        databases' key 0.  `none` has no key, so any ring of its length fits
        it and scores alike."""
        dbs, ring = _databases(n_subjects=3, samples=2, k=4, scheme=scheme)
        other = {"constant": ue.KeyRing.constant_ring(4, 128, 2, block_size=16),
                 "short": ue.KeyRing.generate(2, 128, 2, block_size=16),
                 "other-length": ue.KeyRing.generate(4, 256, 2, block_size=16)}[kind]
        if scheme == "none" and kind == "constant":
            _assert_same_tables(*(ue.cross_database_scores(ScoreEngine(dbs, r), "pic_hd") for r in (ring, other)))
        else:
            with pytest.raises(InconsistentDatabasesError, match=error):
                ScoreEngine(dbs, other)

    def test_unknown_function(self):
        with pytest.raises(InvalidConfigError):
            ue.cross_database_scores(_engine(), "psychic_guess")

    def test_unknown_mated_pairing(self):
        with pytest.raises(InvalidConfigError, match="mated_pairing"):
            ue.cross_database_scores(_engine(), "pic_hd", mated_pairing="distinct")


class TestProtocolConfig:
    def _corpus_cfg(self):
        return ue.CorpusConfig(n_subjects=4, samples_per_subject=2, template_bits=128,
                               intra_flip_rate=0.1, seed=2)

    @pytest.mark.parametrize("scheme,error", [("xor-salt", None), ("none", None),
                                              ("block-remap", "block size"), ("bloom-filter", "filter block")])
    def test_geometry_is_checked_for_the_scheme_in_use(self, scheme, error):
        corpus = ue.CorpusConfig(n_subjects=4, samples_per_subject=2, template_bits=100,
                                 intra_flip_rate=0.1, seed=2)
        make = lambda: ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6, scheme=scheme, corpus=corpus)
        if error is None:
            assert "d_sys" in ue.run_protocol(make()).per_function["pic_hd"]
        else:
            with pytest.raises(NotDivisibleError, match=error):
                make()

    def test_k_below_two_rejected(self):
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig(linkage_functions=("pic_hd",), k=1, corpus=self._corpus_cfg())

    def test_small_k_warns(self):
        with pytest.warns(KeyCountWarning):
            ue.ProtocolConfig(linkage_functions=("pic_hd",), k=3, corpus=self._corpus_cfg())

    def test_recommended_k_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", KeyCountWarning)
            ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6, corpus=self._corpus_cfg())

    def test_unknown_function_rejected(self):
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig(linkage_functions=("pic_hd", "nope"), k=6, corpus=self._corpus_cfg())

    def test_duplicate_functions_rejected(self):
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig(linkage_functions=("pic_hd", "pic_hd"), k=6,
                              corpus=self._corpus_cfg())

    def test_needs_exactly_one_score_source(self, tmp_path):
        files = {"pic_hd": {"mated": tmp_path / "m.csv", "non_mated": tmp_path / "n.csv"}}
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6)
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6,
                              corpus=self._corpus_cfg(), score_files=files)

    def test_from_dict_round_trip(self, tmp_path):
        data = {
            "linkage_functions": ["pic_hd", "hamming_weight"],
            "k": 6,
            "scheme": "xor-salt",
            "prior": {"n_enrolled": 101},
            "density": {"bins": 64},
            "corpus": {"n_subjects": 4, "samples_per_subject": 2,
                       "template_bits": 128, "intra_flip_rate": 0.1, "seed": 2},
            "out_dir": "results",
        }
        cfg = ue.ProtocolConfig.from_dict(data, base_dir=tmp_path)
        assert cfg.prior.omega == pytest.approx(0.01)
        assert cfg.density.bins == 64
        assert Path(cfg.out_dir) == tmp_path / "results"

    @pytest.mark.parametrize("change", [
        {"frobnicate": True},
        {"density": {"binz": 5}},
        {"density": {"grid_range": 5}},
        {"density": [64]},
        {"corpus": {"n_subject": 4, "samples_per_subject": 2, "template_bits": 128,
                    "intra_flip_rate": 0.1, "seed": 2}},
        {"corpus": {"n_subjects": 4}},
        {"corpus": None, "score_files": {"pic_hd": {"mated": "m.csv"}}},
        {"corpus": None, "score_files": {"pic_hd": "m.csv"}},
        {"corpus": None, "score_files": {"pic_hd": {"mated": 5, "non_mated": "n.csv"}}},
        {"out_dir": ["results"]},
        {"corpus": None, "score_files": ["m.csv"]},
        {"linkage_functions": "pic_hd"},
        {"linkage_functions": 5},
        {"prior": {"omega": [1]}},
        {"prior": {"omega": "0.5"}},
        {"prior": {"omega": True}},
        {"prior": {"n_enrolled": 100.7}},
        {"prior": {"n_enrolled": "101"}},
        {"prior": {"omega": 10**400}},
        {"prior": {"n_enrolled": 10**400}},
        {"key_seed": "7"},
        {"key_seed": True},
        {"key_seed": -2000000},
        {"non_mated_all_pairs": "yes"},
        {"non_mated_all_pairs": "false"},
        {"constant_key": 1},
        {"allow_approximate_bloom": "true"},
        {"density": {"kde": "false"}},
        {"density": {"allow_point_mass": 0}},
        {"block_size": 0},
        {"block_size": -64},
        {"block_size": "64"},
        {"bloom_width": 0},
        {"bloom_height": 2.0},
        {"k": True},
        {"k": 6.0},
        {"key_seed": np.True_},
        {"bloom_width": True},
        {"density": {"bins": True}},
        {"density": {"bins": 1}},
        {"density": {"grid_range": [False, 1.0]}},
        {"density": {"grid_range": [1.0, 0.0]}},
        {"density": {"grid_range": [1.0]}},
        {"density": {"grid_range": [0.0, 1.0, 2.0]}},
        {"linkage_functions": [["pic_hd"]]},
        {"linkage_functions": None},
        {"prior": {"n_enrolled": True}},
        {"prior": {"n_enrolled": 1}},
        {"prior": {"omega": float("nan")}},
        {"prior": {"omega": 0.5, "n_enrolled": 3}},
        {"prior": {"omega": 0.5, "typo": 1}},
        {"prior": {"n_enrolled": 3, "typo": 1}},
        {"prior": {}},
        {"corpus": None, "score_files": {"pic_hd": {"mated": "m.csv", "non_mated": "n.csv"}},
         "block_size": "64"},
        {"corpus": None, "score_files": {"pic_hd": {"mated": "m.csv", "non_mated": "n.csv"}},
         "bloom_width": True},
        {"corpus": None, "score_files": {"pic_hd": {"mated": "m.csv", "non_mated": "n.csv"}},
         "bloom_height": -3},
    ])
    def test_from_dict_rejects_malformed_input(self, tmp_path, change):
        data = {"linkage_functions": ["pic_hd"], "k": 6,
                "corpus": {"n_subjects": 4, "samples_per_subject": 2, "template_bits": 128,
                           "intra_flip_rate": 0.1, "seed": 2}}
        data.update(change)
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig.from_dict(data, base_dir=tmp_path)

    @pytest.mark.parametrize("functions", [[["pic_hd"]], 5, None], ids=["nested-list", "int", "none"])
    def test_function_that_is_no_name_rejected(self, functions):
        with pytest.raises(InvalidConfigError, match="linkage_functions"):
            ue.ProtocolConfig(linkage_functions=functions, k=6, corpus=self._corpus_cfg())
        data = {"linkage_functions": functions, "k": 6,
                "corpus": dataclasses.asdict(self._corpus_cfg())}
        with pytest.raises(InvalidConfigError, match="linkage_functions"):
            ue.ProtocolConfig.from_dict(data)

    def test_warnings_name_the_calling_line(self):
        """KeyCountWarning and PriorRangeWarning name the caller's line, also
        when the config is built through from_dict."""
        data = {"linkage_functions": ["pic_hd"], "k": 3, "prior": {"omega": 2.0},
                "corpus": {"n_subjects": 4, "samples_per_subject": 2, "template_bits": 128,
                           "intra_flip_rate": 0.1, "seed": 2}}
        calls = {
            "from_dict": (lambda: ue.ProtocolConfig.from_dict(data), [PriorRangeWarning, KeyCountWarning]),
            "ProtocolConfig": (lambda: ue.ProtocolConfig(linkage_functions=("pic_hd",), k=3,
                                                         corpus=self._corpus_cfg()), [KeyCountWarning]),
            "PriorConfig.explicit": (lambda: ue.PriorConfig.explicit(2.0), [PriorRangeWarning]),
        }
        for name, (call, categories) in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [w.category for w in caught] == categories, name
            assert [w.filename for w in caught] == [__file__] * len(categories), name

    @pytest.mark.parametrize("prior,omega", [
        ({"n_enrolled": 101}, 0.01),
        ({"omega": 1}, 1.0),
        ({"omega": 0.5}, 0.5),
    ])
    def test_from_dict_accepts_numeric_priors(self, prior, omega):
        data = {"linkage_functions": ["pic_hd"], "k": 6, "prior": prior,
                "corpus": {"n_subjects": 4, "samples_per_subject": 2, "template_bits": 128,
                           "intra_flip_rate": 0.1, "seed": 2}}
        assert ue.ProtocolConfig.from_dict(data).prior.omega == pytest.approx(omega)

    def test_numpy_integers_are_stored_as_int(self):
        corpus = ue.CorpusConfig(n_subjects=np.int64(6), samples_per_subject=np.int32(2),
                                 template_bits=np.int64(256), intra_flip_rate=0.1, seed=np.int64(2))
        cfg = ue.ProtocolConfig(linkage_functions=("pic_hd",), k=np.int64(10), corpus=corpus,
                                key_seed=np.uint8(7), density=ue.DensityConfig(bins=np.int64(16)))
        assert type(cfg.k) is type(cfg.key_seed) is type(cfg.density.bins) is int
        assert all(type(getattr(corpus, name)) is int
                   for name in ("n_subjects", "samples_per_subject", "template_bits", "seed"))
        metadata = json.loads(ue.run_protocol(cfg).to_json())["protocol_metadata"]
        assert (metadata["k"], metadata["n_subjects"], metadata["key_seed"]) == (10, 6, 7)

    def test_key_seed_derivation(self):
        cfg = ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6, corpus=self._corpus_cfg())
        assert cfg.resolved_key_seed == 2 + 1000003
        cfg2 = ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6,
                                 corpus=self._corpus_cfg(), key_seed=77)
        assert cfg2.resolved_key_seed == 77


class TestRunProtocol:
    def _config(self, **kwargs):
        corpus = ue.CorpusConfig(n_subjects=6, samples_per_subject=2, template_bits=256,
                                 intra_flip_rate=0.1, seed=4)
        defaults = dict(linkage_functions=("pic_hd", "hamming_weight"), k=6, corpus=corpus)
        defaults.update(kwargs)
        return ue.ProtocolConfig(**defaults)

    def test_report_shape(self):
        report = ue.run_protocol(self._config())
        assert report.schema_version == 1
        assert set(report.per_function) == {"pic_hd", "hamming_weight"}
        entry = report.per_function["pic_hd"]
        for key in ("adversary_model", "d_sys", "n_mated", "n_non_mated", "kl",
                    "profile", "densities", "eer_crosskey", "eer_accuracy", "eer_rtmr"):
            assert key in entry
        assert report.adversary_models["pic_hd"] == "template-only"
        assert report.adversary_models["hamming_weight"] == "template-only"

    def test_aggregate_is_max(self):
        report = ue.run_protocol(self._config(
            linkage_functions=("pic_hd", "hamming_weight", "reconstruction")))
        values = [e["d_sys"] for e in report.per_function.values()]
        assert report.aggregated_d_sys == max(values)
        assert report.adversary_models["reconstruction"] == "key-knowledge"

    def test_runs_are_reproducible(self):
        a = ue.run_protocol(self._config()).to_json()
        b = ue.run_protocol(self._config()).to_json()
        assert a == b

    def test_failures_are_isolated(self):
        # reconstruction cannot run on bloom templates without the opt-in,
        # but pic_hd on the same corpus must still be evaluated
        report = ue.run_protocol(self._config(
            linkage_functions=("pic_hd", "reconstruction"), scheme="bloom-filter"))
        assert "d_sys" in report.per_function["pic_hd"]
        assert "error" in report.per_function["reconstruction"]
        assert "SchemeNotInvertible" in report.per_function["reconstruction"]["error"]
        assert report.aggregated_d_sys == report.per_function["pic_hd"]["d_sys"]

    def test_external_score_files(self, tmp_path, rng):
        mated = tmp_path / "m.csv"
        non_mated = tmp_path / "nm.csv"
        mated.write_text("\n".join(repr(float(v)) for v in rng.normal(0.3, 0.05, 1500)) + "\n")
        non_mated.write_text("\n".join(repr(float(v)) for v in rng.normal(0.7, 0.05, 1500)) + "\n")
        cfg = ue.ProtocolConfig(
            linkage_functions=("pic_hd",), k=6,
            score_files={"pic_hd": {"mated": mated, "non_mated": non_mated}},
        )
        report = ue.run_protocol(cfg)
        entry = report.per_function["pic_hd"]
        assert entry["eer_accuracy"] is None
        assert entry["eer_rtmr"] is None
        direct = ue.evaluate(ue.load_score_set(mated, non_mated))
        assert entry["d_sys"] == direct.d_sys

    def test_external_score_files_with_out_dir(self, tmp_path, rng):
        """The copy of each function's scores is written from its tables,
        each side in ascending order, and reloads to the same tables."""
        mated, non_mated = tmp_path / "m.csv", tmp_path / "nm.csv"
        # rounded, so that many scores repeat, and given in no order
        mated.write_text("\n".join(repr(float(v)) for v in np.round(rng.normal(0.3, 0.05, 1500), 3)) + "\n")
        non_mated.write_text("\n".join(repr(float(v)) for v in np.round(rng.normal(0.7, 0.05, 1500), 3)) + "\n")
        files = {"pic_hd": {"mated": mated, "non_mated": non_mated}}
        without = ue.run_protocol(ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6, score_files=files))
        out = tmp_path / "out"
        report = ue.run_protocol(ue.ProtocolConfig(linkage_functions=("pic_hd",), k=6, score_files=files,
                                                   out_dir=out))
        assert report.to_json() == without.to_json()
        assert (out / "report.json").read_text(encoding="utf-8") == without.to_json() + "\n"
        written = out / "pic_hd_scores.csv"
        _assert_same_tables(ue.load_score_set(written, written), ue.load_score_set(mated, non_mated))
        assert all(np.all(np.diff(side) >= 0) for side in _read_rows(written))

    def test_artifacts_written(self, tmp_path):
        cfg = self._config(out_dir=tmp_path / "out")
        report = ue.run_protocol(cfg)
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "pic_hd_linkability.svg").exists()
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report.to_json_dict()
        # each score file lists each side in ascending order and reloads to
        # the tables that cross_database_scores tallies
        engine = synthetic_engine(cfg.corpus, cfg.k, cfg.scheme, cfg.resolved_key_seed)
        for fn in cfg.linkage_functions:
            written = out / f"{fn}_scores.csv"
            _assert_same_tables(ue.load_score_set(written, written), ue.cross_database_scores(engine, fn))
            assert all(np.all(np.diff(side) >= 0) for side in _read_rows(written))

    def test_svg_metadata_round_trips_report_entry(self, tmp_path):
        cfg = self._config(out_dir=tmp_path / "out")
        report = ue.run_protocol(cfg)
        svg = (tmp_path / "out" / "pic_hd_linkability.svg").read_text()
        start = svg.index("<![CDATA[") + len("<![CDATA[")
        end = svg.index("]]>")
        payload = json.loads(svg[start:end])
        entry = report.per_function["pic_hd"]
        assert payload["profile"] == entry["profile"]
        assert payload["densities"] == entry["densities"]


class TestScorerThreads:
    """Passes split over threads: default scheme, K = 6, 15 relative keys,
    three CPUs."""

    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

    def _threads_of_passes(self, monkeypatch):
        """The threads that score each non-mated pass of run_protocol."""
        seen = []
        real = ScoreEngine.distinct_subjects

        def spy(engine, view, keys_a, keys_b, group):
            # thread objects, not idents, which a later thread may reuse
            seen.append((len(keys_a), threading.current_thread()))
            return real(engine, view, keys_a, keys_b, group)

        monkeypatch.setattr(ScoreEngine, "distinct_subjects", spy)
        report = ue.run_protocol(TestRunProtocol()._config(linkage_functions=("pic_hd",)))
        assert "d_sys" in report.per_function["pic_hd"]
        return seen

    def test_split_from_the_gate(self, monkeypatch):
        """Below THREAD_MIN_WORDS every pass runs on the calling thread; at
        it the cross-key pass deals its 15 groups out to three threads, and
        the same-key pass, one group, stays on one."""
        caller = threading.current_thread()
        assert self._threads_of_passes(monkeypatch) == [(1, caller), (15, caller)]
        monkeypatch.setattr(protocol, "THREAD_MIN_WORDS", 0)
        same_key, *cross_key = self._threads_of_passes(monkeypatch)
        assert same_key == (1, caller)
        assert sorted(count for count, _ in cross_key) == [5, 5, 5]
        assert len({thread for _, thread in cross_key}) == 3

    @pytest.mark.parametrize("where", ["worker", "caller"])
    def test_kernel_error_is_the_function_error(self, monkeypatch, where):
        """The third kernel call on a worker thread, or on the calling
        thread, raises: the error is the function's report entry, the other
        function is evaluated, and every thread started has ended."""
        monkeypatch.setattr(protocol, "THREAD_MIN_WORDS", 0)
        real, calls, caller = kernels.hamming_cross, [], threading.current_thread()

        def failing(*args):
            if (threading.current_thread() is caller) == (where == "caller"):
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("third kernel call")
            return real(*args)

        monkeypatch.setattr(kernels, "hamming_cross", failing)
        start = threading.active_count()
        report = ue.run_protocol(TestRunProtocol()._config())
        assert threading.active_count() == start
        assert report.per_function["pic_hd"] == {"adversary_model": "template-only",
                                                 "error": "RuntimeError: third kernel call"}
        assert "d_sys" in report.per_function["hamming_weight"]

    def test_workers(self, monkeypatch):
        """One per CPU of the affinity mask, or of os.cpu_count without one,
        and at most one per group."""
        assert [protocol._max_workers(n) for n in (0, 1, 2, 3, 45)] == [1, 1, 2, 3, 3]
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert [protocol._max_workers(n) for n in (1, 45)] == [1, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert protocol._max_workers(45) == 1


class TestScoreEachComparisonOnce:
    """On block re-mapping, permuted_xor and reconstruction compare the same
    inverted bits over the same length: one scoring pass serves both."""

    def _run(self, monkeypatch, functions, out_dir=None):
        passes, real = [], kernels.hamming_cross

        def spy(*args, **kwargs):
            passes.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "hamming_cross", spy)
        cfg = TestRunProtocol()._config(linkage_functions=functions, scheme="block-remap", out_dir=out_dir)
        report = ue.run_protocol(cfg)
        monkeypatch.undo()
        return report, len(passes)

    @pytest.mark.parametrize("with_out_dir", [False, True])
    def test_one_scoring_pass(self, monkeypatch, tmp_path, with_out_dir):
        out = lambda name: tmp_path / name if with_out_dir else None
        both, both_passes = self._run(monkeypatch, ("permuted_xor", "reconstruction"), out("both"))
        _, one_passes = self._run(monkeypatch, ("permuted_xor",), out("one"))
        _, other_passes = self._run(monkeypatch, ("permuted_xor", "pic_hd"), out("other"))
        assert both_passes == one_passes < other_passes
        permuted = dict(both.per_function["permuted_xor"])
        reconstruction = dict(both.per_function["reconstruction"])
        assert (permuted.pop("adversary_model"), reconstruction.pop("adversary_model")) == (
            "structural-knowledge", "key-knowledge")
        assert permuted == reconstruction
        if with_out_dir:
            written = [(tmp_path / "both" / f"{fn}_scores.csv").read_bytes()
                       for fn in ("permuted_xor", "reconstruction")]
            assert written[0] == written[1]

    def test_sources_name_each_function(self):
        engine = _engine(n_subjects=4, k=3, scheme="block-remap")
        permuted = ue.cross_database_scores(engine, "permuted_xor")
        reconstruction = ue.cross_database_scores(engine, "reconstruction")
        assert len(engine.scored) == 1
        assert permuted.source.startswith("permuted_xor/")
        assert reconstruction.source.startswith("reconstruction/")
        for side in ("mated", "non_mated"):
            a, b = getattr(permuted, side), getattr(reconstruction, side)
            assert np.array_equal(a.values, b.values) and np.array_equal(a.counts, b.counts)


class TestScoreEachKeyPairOnce:
    """Key pairs that score alike are scored once: block re-mapping, K = 6,
    15 key pairs.  pic_hd scores one pair per relative key, the other views
    one pair in all, and the same-key pass one pair for every view."""

    def _scored(self, monkeypatch, fn, constant, written, scores_of=ue.cross_database_scores):
        """The key pairs the engine is asked to score, and the kernel passes,
        while the tables are tallied and, if written, written to a file."""
        asked, passes = [], []
        for name in ("same_subject", "distinct_subjects"):
            real = getattr(ScoreEngine, name)

            def engine_spy(engine, view, keys_a, keys_b, *args, _real=real):
                asked.append(list(zip(np.asarray(keys_a).tolist(), np.asarray(keys_b).tolist())))
                return _real(engine, view, keys_a, keys_b, *args)

            monkeypatch.setattr(ScoreEngine, name, engine_spy)
        real_kernel = kernels.hamming_cross

        def kernel_spy(*args):
            passes.append(1)
            return real_kernel(*args)

        monkeypatch.setattr(kernels, "hamming_cross", kernel_spy)
        engine = _engine(n_subjects=4, samples=2, k=6, scheme="block-remap", constant=constant)
        tables = scores_of(engine, fn)
        if written:
            ue.write_score_csv(tables, os.devnull)
        monkeypatch.undo()
        return asked, len(passes)

    @pytest.mark.parametrize("written", [True, False], ids=["written", "counted"])
    @pytest.mark.parametrize("constant", [False, True], ids=["keys", "constant-key"])
    @pytest.mark.parametrize("fn", ["pic_hd", "hamming_weight", "permuted_xor", "reconstruction"])
    def test_key_pairs_scored(self, monkeypatch, fn, constant, written):
        """Writing the tables to a file scores no pair again."""
        asked, passes = self._scored(monkeypatch, fn, constant, written)
        if fn == "pic_hd" and not constant:
            # 8 blocks of 16 bits: the 15 relative keys are distinct
            expected = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        else:
            expected = [(0, 1)]
        # one call for the mated pairs, one for the non-mated ones
        assert asked == [expected, expected]
        # four subjects make one tile: one kernel pass per key pair and side,
        # none for hamming_weight, which compares set-bit counts
        assert passes == (0 if fn == "hamming_weight" else 2 * len(expected))

    @pytest.mark.parametrize("constant", [False, True], ids=["keys", "constant-key"])
    @pytest.mark.parametrize("fn", ["pic_hd", "hamming_weight", "permuted_xor", "reconstruction"])
    def test_same_key_pass_scores_one_key_pair(self, monkeypatch, fn, constant):
        asked, passes = self._scored(monkeypatch, fn, constant, False, ue.same_key_scores)
        assert asked == [[(0, 0)], [(0, 0)]]
        assert passes == (0 if fn == "hamming_weight" else 2)

    @pytest.mark.parametrize("non_mated_all_pairs", [False, True])
    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_scores_as_without_dedupe(self, monkeypatch, scheme, fn, non_mated_all_pairs):
        """Databases 0 and 2 share one key, so key pair (1, 2) scores as
        (1, 0), which is not (0, 1): the first template of a pair is on its
        first key.  The tables equal those of an engine that groups nothing."""
        cfg = ue.CorpusConfig(n_subjects=5, samples_per_subject=3, template_bits=128,
                              intra_flip_rate=0.1, seed=3)
        two = ue.KeyRing.generate(2, 128, 4, block_size=16)
        ring = dataclasses.replace(two, k=3, **{
            name: getattr(two, name)[[0, 1, 0]] for name in ("xor_masks", "block_perms", "bloom_keys")
        })
        dbs = ue.generate_databases(ue.generate_corpus(cfg), ring, scheme)

        def tables():
            engine = ScoreEngine(dbs, ring, allow_approximate_bloom=True)
            return ue.cross_database_scores(engine, fn, non_mated_all_pairs=non_mated_all_pairs)

        grouped = tables()
        _ungrouped(monkeypatch)
        _assert_same_tables(grouped, tables())


def _ungrouped(monkeypatch):
    """Make every engine score each key pair on its own."""
    monkeypatch.setattr(ScoreEngine, "pair_groups", lambda engine, view, keys_a, keys_b: np.arange(len(keys_a)))


class TestGroupedTalliesMatchUngrouped:
    """Tallies that score one key pair per group equal those that score
    every key pair, on 128 bits in blocks of 32: four blocks have 24
    orders, so the 15 key pairs of K = 6 share relative keys."""

    SUBJECTS, SAMPLES, K = 5, 3, 6

    def _engine(self, scheme, constant):
        cfg = ue.CorpusConfig(n_subjects=self.SUBJECTS, samples_per_subject=self.SAMPLES, template_bits=128,
                              intra_flip_rate=0.1, seed=11)
        make = ue.KeyRing.constant_ring if constant else ue.KeyRing.generate
        ring = make(self.K, 128, 12, block_size=32, bloom_width=8, bloom_height=2)
        return ScoreEngine(ue.generate_databases(ue.generate_corpus(cfg), ring, scheme), ring,
                           allow_approximate_bloom=True)

    @pytest.mark.usefixtures("distance_blocks")
    @pytest.mark.parametrize("constant", [False, True], ids=["keys", "constant-key"])
    @pytest.mark.parametrize("non_mated_all_pairs", [False, True])
    @pytest.mark.parametrize("mated_pairing", [PAIRING_ALL_CROSS_KEY, PAIRING_DISTINCT_SAMPLES])
    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_cross_key_and_same_key(self, monkeypatch, scheme, fn, mated_pairing, non_mated_all_pairs,
                                    constant):
        def tallies():
            engine = self._engine(scheme, constant)
            return (ue.cross_database_scores(engine, fn, mated_pairing=mated_pairing,
                                             non_mated_all_pairs=non_mated_all_pairs),
                    ue.same_key_scores(engine, fn))

        grouped = tallies()
        _ungrouped(monkeypatch)
        for got, expected in zip(grouped, tallies()):
            _assert_same_tables(got, expected)

    def test_block_size_32_shares_relative_keys(self):
        engine = self._engine("block-remap", False)
        groups = engine.pair_groups(engine.view("pic_hd"), *np.triu_indices(self.K, 1))
        assert len(np.unique(groups)) < len(groups) == 15

    @pytest.mark.parametrize("bits,block_size,bloom", [(128, 16, (16, 4)), (120, 8, (5, 3))],
                             ids=["128-bits", "120-bits"])
    @pytest.mark.parametrize("scheme", ["xor-salt", "block-remap", "bloom-filter", "none"])
    def test_every_key_inverts_to_the_same_rows(self, scheme, bits, block_size, bloom):
        """Each key's rows, inverted under that key (Bloom's approximate
        decode included), equal the one inverted view the engine builds,
        which holds sample s of subject i word-major at [:, s, i]."""
        cfg = ue.CorpusConfig(n_subjects=4, samples_per_subject=2, template_bits=bits,
                              intra_flip_rate=0.1, seed=5)
        ring = ue.KeyRing.generate(4, bits, 6, block_size, *bloom)
        dbs = ue.generate_databases(ue.generate_corpus(cfg), ring, scheme)
        engine = ScoreEngine(dbs, ring, allow_approximate_bloom=True)
        inverted = engine.packed_inverted("reconstruction")
        for db, words in zip(dbs, inverted):
            own = SCHEMES[scheme].invert(db.bits, ring, db.key_id)
            rows = kernels.pack_rows(own.reshape(-1, own.shape[-1])).reshape(4, 2, -1)
            assert np.array_equal(rows.transpose(2, 1, 0), words)

    def test_hamming_weight_same_key_under_xor_salting(self):
        """Set-bit counts under XOR salting are not a function of the
        relative key: each key's same-key scores are its own."""
        engine, oracle = _testbed("xor-salt", self.SUBJECTS, self.SAMPLES, self.K, False, seed=8)
        pairs = _same_key_pairs(self.SUBJECTS, self.SAMPLES, self.K)
        _assert_counts_of(ue.same_key_scores(engine, "hamming_weight"),
                          *(oracle("hamming_weight", side) for side in pairs))


class _SortedRows:
    """Both sides' scores, written one row per score in ascending order,
    each rendered with repr, independently of ScoreCounts.csv_blocks."""

    def __init__(self, mated, non_mated):
        self.mated, self.non_mated = (np.sort(np.asarray(s, dtype=np.float64)) for s in (mated, non_mated))

    def csv_blocks(self):
        for values, label in ((self.mated, scores.LABEL_MATED), (self.non_mated, scores.LABEL_NON_MATED)):
            yield label, "".join(f"{v!r},{label}\n" for v in values.tolist())


class TestScoreFilesHoldSortedOracleRows:
    """The files write_score_csv and write_score_sides write from the
    engine's tables hold the per-pair oracle's scores, one row per score,
    each side in ascending order: in one tile, and in tiles of two rows
    with blocks of five rows, which split runs of equal scores.  Five
    subjects make three such tiles."""

    SUBJECTS, SAMPLES, K = 5, 3, 3

    @pytest.fixture(autouse=True, params=[None, 2], ids=["one-tile", "tile2"])
    def tiles(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(kernels, "TILE_ROWS", request.param)
            monkeypatch.setattr(scores, "CSV_BLOCK", 5)

    def _testbed(self, scheme, constant):
        return _testbed(scheme, self.SUBJECTS, self.SAMPLES, self.K, constant, seed=6)

    @pytest.mark.parametrize("constant", [False, True], ids=["keys", "constant-key"])
    @pytest.mark.parametrize("non_mated_all_pairs", [False, True])
    @pytest.mark.parametrize("mated_pairing", [PAIRING_ALL_CROSS_KEY, PAIRING_DISTINCT_SAMPLES])
    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_cross_key_files(self, tmp_path, scheme, fn, mated_pairing, non_mated_all_pairs, constant):
        engine, oracle = self._testbed(scheme, constant)
        tables = ue.cross_database_scores(engine, fn, mated_pairing=mated_pairing,
                                          non_mated_all_pairs=non_mated_all_pairs)
        pairs = _cross_key_pairs(self.SUBJECTS, self.SAMPLES, self.K, mated_pairing, non_mated_all_pairs)
        self._assert_same_files(tmp_path, tables, _SortedRows(*(oracle(fn, side) for side in pairs)))

    @pytest.mark.parametrize("constant", [False, True], ids=["keys", "constant-key"])
    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_same_key_files(self, tmp_path, scheme, fn, constant):
        engine, oracle = self._testbed(scheme, constant)
        tables = ue.same_key_scores(engine, fn)
        pairs = _same_key_pairs(self.SUBJECTS, self.SAMPLES, self.K)
        self._assert_same_files(tmp_path, tables, _SortedRows(*(oracle(fn, side) for side in pairs)))

    @staticmethod
    def _assert_same_files(tmp_path, tables, rows):
        assert (tables.n_mated, tables.n_non_mated) == (rows.mated.size, rows.non_mated.size)
        for name, source in (("rows", rows), ("tables", tables)):
            ue.write_score_csv(source, tmp_path / f"{name}.csv")
            ue.write_score_sides(source, tmp_path / f"{name}_m.csv", tmp_path / f"{name}_nm.csv")
        for suffix in (".csv", "_m.csv", "_nm.csv"):
            assert (tmp_path / f"tables{suffix}").read_bytes() == (tmp_path / f"rows{suffix}").read_bytes()
        _assert_counts_of(tables, rows.mated, rows.non_mated)


class TestScoreFileMemory:
    def test_held_memory_grows_with_the_subjects_not_the_pairs(self):
        """Tallying pic_hd under block re-mapping, 45 distinct key pairs, and
        writing its CSV.

        Held at once, by the bound below: each scoring thread's buffers
        (the 576 KiB of hamming_cross, and one tile's, at most TILE_ROWS x
        n pairs), the engine's packed rows and set-bit counts, the count
        tables, and one 65,536-row block with its strings and text, which
        with the per-tile temporaries stays under 8 MB.  That is linear in
        n: from 250 to 500 subjects the pairs grow 4x, the held memory
        about 2x.  The non-mated float64 scores alone would take 45 MB at
        500.
        """
        workers = protocol._max_workers(45)

        def bound(n):
            threads = workers * (2**20 + kernels.TILE_ROWS * n * 40)
            return threads + 10 * n * 4 * (1024 // 8 + 8) + 45 * 16 * n * 2 + 8 * 2**20

        peaks = []
        for n in (250, 500):
            dbs, ring = _databases(n_subjects=n, samples=4, bits=1024, k=10, seed=2, scheme="block-remap")
            tracemalloc.start()
            try:
                tables = ue.cross_database_scores(ScoreEngine(dbs, ring), "pic_hd")
                ue.write_score_csv(tables, os.devnull)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert tables.n_non_mated == 45 * n * (n - 1) // 2
            assert peaks[-1] < bound(n)
        assert peaks[1] < 2.5 * peaks[0]


class TestProtocolMemory:
    def test_per_bit_databases_are_freed_before_scoring(self, monkeypatch):
        """run_protocol, block re-mapping, all four functions, no out_dir, K = 10.

        The peak comes while synthetic_engine builds the engine.  Held then,
        by the bound below: the K per-bit databases (K n S L B) that it
        packs, the packed rows and their inverted view with the set-bit
        counts of both, one tile's buffers (the product, the pair index and
        the taken entries, under 40 B per entry of TILE_ROWS x n), and 6 MB
        for the rest.  The engine does not hold the databases, so they are
        gone before a pair is scored: the scoring peak, taken from the
        engine's return, holds no term for them, and each scoring thread
        adds its own buffers (the 576 KiB of hamming_cross and one tile's),
        under 1 MiB and 40 B per entry of TILE_ROWS x n.
        """
        k, samples, length = 10, 4, 1024
        workers = protocol._max_workers(45)

        def packed(n):
            return 2 * k * n * samples * (length // 8 + 8)

        def bound(n):
            return k * n * samples * length + packed(n) + kernels.TILE_ROWS * n * 40 + 6 * 2**20

        def scoring_bound(n):
            return packed(n) + workers * (2**20 + kernels.TILE_ROWS * n * 40) + 6 * 2**20

        real, built = protocol.synthetic_engine, []

        def engine_then_reset_peak(*args):
            engine = real(*args)
            built.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return engine

        monkeypatch.setattr(protocol, "synthetic_engine", engine_then_reset_peak)
        for n in (250, 500):
            cfg = ue.ProtocolConfig.from_dict({
                "linkage_functions": ["pic_hd", "hamming_weight", "permuted_xor", "reconstruction"],
                "k": k, "scheme": "block-remap",
                "corpus": {"n_subjects": n, "samples_per_subject": samples, "template_bits": length,
                           "intra_flip_rate": 0.1, "seed": 3},
            })
            tracemalloc.start()
            try:
                report = ue.run_protocol(cfg)
                _, scoring = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert all("d_sys" in entry for entry in report.per_function.values())
            assert max(built.pop(), scoring) < bound(n)
            assert scoring < scoring_bound(n)


class TestFailedFunctionsLeaveNoScoreFile:
    def test_view_and_assess_failures(self, tmp_path, monkeypatch):
        import unlinkeval.protocol as protocol

        real = protocol.assess

        def assess(scores, *args, **kwargs):
            if scores.source.startswith("hamming_weight/"):
                raise ValueError("assess failed")
            return real(scores, *args, **kwargs)

        monkeypatch.setattr(protocol, "assess", assess)
        report = ue.run_protocol(TestRunProtocol()._config(
            linkage_functions=("pic_hd", "hamming_weight", "reconstruction"), scheme="bloom-filter",
            out_dir=tmp_path))
        # reconstruction fails before its file is opened, hamming_weight after it is written
        assert report.per_function["hamming_weight"]["error"] == "ValueError: assess failed"
        assert "SchemeNotInvertible" in report.per_function["reconstruction"]["error"]
        assert sorted(p.name for p in tmp_path.glob("*_scores.csv")) == ["pic_hd_scores.csv"]
