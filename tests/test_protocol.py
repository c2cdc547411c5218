import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.errors import (
    InconsistentDatabasesError,
    InvalidConfigError,
    KeyCountWarning,
    StatisticalAdequacyWarning,
)
from unlinkeval.protocol import (
    PAIRING_ALL_CROSS_KEY,
    PAIRING_DISTINCT_SAMPLES,
    write_report_artifacts,
)
from unlinkeval.synthbtp import SCHEME_BLOOM, SCHEME_XOR, inter_key_bit_relation, protect_corpus

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


class TestPairCounts:
    def test_smallest_corpus_all_cross_key(self):
        dbs, ring = _databases(n_subjects=2, samples=2, k=2)
        s = ue.cross_database_scores(dbs, "pic_hd", ring,
                                     mated_pairing=PAIRING_ALL_CROSS_KEY,
                                     non_mated_all_pairs=True)
        # per subject: one key pair x 2x2 sample grid = 4; two subjects = 8
        assert s.n_mated == 8
        assert s.n_non_mated == 4

    def test_smallest_corpus_distinct_samples(self):
        dbs, ring = _databases(n_subjects=2, samples=2, k=2)
        s = ue.cross_database_scores(dbs, "pic_hd", ring,
                                     mated_pairing=PAIRING_DISTINCT_SAMPLES,
                                     non_mated_all_pairs=True)
        assert s.n_mated == 2
        assert s.n_non_mated == 4

    def test_reference_corpus_counts(self):
        """210 subjects, 4 samples, 10 keys: the published corpus geometry."""
        # 256 bits so all schemes can draw ten distinct keys
        dbs, ring = _databases(n_subjects=210, samples=4, bits=256, k=10, seed=3)
        s = ue.cross_database_scores(dbs, "pic_hd", ring, mated_pairing=PAIRING_DISTINCT_SAMPLES)
        assert s.n_mated == 56_700  # 210 * C(4,2) * C(10,2)
        assert s.n_non_mated == 987_525  # C(210,2) * C(10,2)

    def test_all_cross_key_counts(self):
        dbs, ring = _databases(n_subjects=5, samples=3, k=4, seed=3)
        s = ue.cross_database_scores(dbs, "pic_hd", ring, mated_pairing=PAIRING_ALL_CROSS_KEY)
        assert s.n_mated == 5 * 6 * 9  # subjects * key pairs * sample grid
        assert s.n_non_mated == 10 * 6  # subject pairs * key pairs

    def test_non_mated_all_pairs(self):
        dbs, ring = _databases(n_subjects=3, samples=2, k=3, seed=5)
        s = ue.cross_database_scores(dbs, "pic_hd", ring, non_mated_all_pairs=True)
        # every sample of every distinct-subject pair, over each key pair
        assert s.n_non_mated == 3 * (2 * 2) * 3

    def test_same_key_counts(self):
        dbs, ring = _databases(n_subjects=4, samples=3, k=2, seed=7)
        s = ue.same_key_scores(dbs, "pic_hd", ring)
        assert s.n_mated == 2 * 4 * 3  # keys * subjects * C(3,2)
        assert s.n_non_mated == 2 * 6  # keys * C(4,2)


class TestScoreValues:
    def test_mated_xor_scores_match_hand_computation(self):
        dbs, ring = _databases(n_subjects=2, samples=2, k=2, bits=64)
        s = ue.cross_database_scores(dbs, "pic_hd", ring,
                                     mated_pairing=PAIRING_DISTINCT_SAMPLES,
                                     non_mated_all_pairs=True)
        # template pair (subject, sample 0, key 0) vs (subject, sample 1, key 1)
        expected = []
        for subj in range(2):
            a = dbs[0].bits[subj, 0]
            b = dbs[1].bits[subj, 1]
            expected.append(np.mean(a != b))
        assert sorted(s.mated) == pytest.approx(sorted(expected))

    def test_constant_ring_reduces_to_raw_comparison(self):
        dbs, ring = _databases(n_subjects=3, samples=2, k=3, constant=True, bits=2048)
        s = ue.cross_database_scores(dbs, "pic_hd", ring)
        # same mask on both sides cancels in the XOR, scores sit near the
        # raw intra-class distance, far below 0.5
        assert float(np.mean(s.mated)) < 0.3
        assert float(np.mean(s.non_mated)) == pytest.approx(0.5, abs=0.05)

    def test_determinism(self):
        dbs, ring = _databases(n_subjects=4, samples=2, k=3, seed=11)
        a = ue.cross_database_scores(dbs, "pic_hd", ring)
        b = ue.cross_database_scores(dbs, "pic_hd", ring)
        assert np.array_equal(a.mated, b.mated)
        assert np.array_equal(a.non_mated, b.non_mated)


# every linkage function each scheme supports
_SUPPORTED = [
    (scheme, fn)
    for scheme in ("xor-salt", "block-remap", "bloom-filter", "none")
    for fn in ("pic_hd", "hamming_weight", "permuted_xor", "reconstruction")
    if fn != "permuted_xor" or scheme == "block-remap"
]


def _oracle_score(fn, ring, t1, t2):
    if fn == "pic_hd":
        return ue.linkage_pic_hd(t1, t2)
    if fn == "hamming_weight":
        return ue.linkage_hamming_weight(t1, t2)
    if fn == "permuted_xor":
        relation = inter_key_bit_relation(ring, t1.key_id, t2.key_id)
        return ue.linkage_permuted_xor(t1, t2, relation)
    return ue.linkage_reconstruction(t1, t2, ring, allow_approximate_bloom=True)


class TestEngineMatchesPerTemplateFunctions:
    @pytest.mark.parametrize("scheme,fn", _SUPPORTED)
    def test_batch_scores_equal_per_pair_oracle(self, scheme, fn):
        cfg = ue.CorpusConfig(n_subjects=3, samples_per_subject=2, template_bits=128,
                              intra_flip_rate=0.1, seed=8)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(3, 128, seed=9, block_size=16)
        dbs = ue.generate_databases(corpus, ring, scheme)
        s = ue.cross_database_scores(dbs, fn, ring, allow_approximate_bloom=True)

        def template(subject, sample, key):
            return ue.protect(corpus.bits[subject, sample], ring, key, scheme)

        key_pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)]
        mated = [
            _oracle_score(fn, ring, template(subj, sa, a), template(subj, sb, b))
            for a, b in key_pairs for subj in range(3) for sa in range(2) for sb in range(2)
        ]
        non_mated = [
            _oracle_score(fn, ring, template(i, 0, a), template(j, 0, b))
            for a, b in key_pairs for i in range(3) for j in range(i + 1, 3)
        ]
        assert np.array_equal(np.sort(s.mated), np.sort(mated))
        assert np.array_equal(np.sort(s.non_mated), np.sort(non_mated))


class TestEngineValidation:
    def test_needs_two_databases(self):
        dbs, ring = _databases()
        with pytest.raises(InconsistentDatabasesError):
            ue.cross_database_scores(dbs[:1], "pic_hd", ring)

    def test_rejects_mixed_schemes(self):
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=128,
                              intra_flip_rate=0.1, seed=1)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(2, 128, 2)
        a = protect_corpus(corpus, ring, 0, SCHEME_XOR)
        b = protect_corpus(corpus, ring, 1, SCHEME_BLOOM)
        with pytest.raises(InconsistentDatabasesError):
            ue.cross_database_scores([a, b], "pic_hd", ring)

    def test_rejects_duplicate_key_ids(self):
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=128,
                              intra_flip_rate=0.1, seed=1)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(2, 128, 2)
        a = protect_corpus(corpus, ring, 0, SCHEME_XOR)
        with pytest.raises(InconsistentDatabasesError):
            ue.cross_database_scores([a, a], "pic_hd", ring)

    def test_unknown_function(self):
        dbs, ring = _databases()
        with pytest.raises(InvalidConfigError):
            ue.cross_database_scores(dbs, "psychic_guess", ring)


class TestProtocolConfig:
    def _corpus_cfg(self):
        return ue.CorpusConfig(n_subjects=4, samples_per_subject=2, template_bits=128,
                               intra_flip_rate=0.1, seed=2)

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

    def test_from_dict_rejects_unknown_keys(self, tmp_path):
        with pytest.raises(InvalidConfigError):
            ue.ProtocolConfig.from_dict({"linkage_functions": ["pic_hd"], "k": 6,
                                         "corpus": {"n_subjects": 4, "samples_per_subject": 2,
                                                    "template_bits": 128,
                                                    "intra_flip_rate": 0.1, "seed": 2},
                                         "frobnicate": True}, base_dir=tmp_path)

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

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("UNLINK_EVAL_THREADS", "1")
        report = ue.run_protocol(self._config())
        assert report.aggregated_d_sys is not None
        monkeypatch.setenv("UNLINK_EVAL_THREADS", "0")
        with pytest.raises(InvalidConfigError):
            ue.run_protocol(self._config())

    def test_artifacts_written(self, tmp_path):
        cfg = self._config(out_dir=tmp_path / "out")
        report = ue.run_protocol(cfg)
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "pic_hd_linkability.svg").exists()
        assert (out / "pic_hd_scores.csv").exists()
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report.to_json_dict()

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
