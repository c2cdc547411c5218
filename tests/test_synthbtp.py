import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.errors import (
    InvalidConfigError,
    NotBijectiveError,
    NotDivisibleError,
    SchemeMismatchError,
    SchemeNotInvertibleError,
)
from unlinkeval.synthbtp import (
    SCHEME_BLOCK,
    SCHEME_BLOOM,
    SCHEME_NONE,
    SCHEME_XOR,
    ProtectedDatabase,
    invert_bits,
    inter_key_bit_relation,
    linkage_reconstruction,
    protect_corpus,
    reconstruct,
)


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


class TestCorpus:
    def test_deterministic_given_seed(self):
        cfg = ue.CorpusConfig(n_subjects=4, samples_per_subject=3, template_bits=256,
                              intra_flip_rate=0.1, seed=9)
        a = ue.generate_corpus(cfg)
        b = ue.generate_corpus(cfg)
        assert np.array_equal(a.bits, b.bits)

    def test_different_seeds_differ(self):
        base = dict(n_subjects=4, samples_per_subject=3, template_bits=256, intra_flip_rate=0.1)
        a = ue.generate_corpus(ue.CorpusConfig(seed=1, **base))
        b = ue.generate_corpus(ue.CorpusConfig(seed=2, **base))
        assert not np.array_equal(a.bits, b.bits)

    def test_zero_flip_rate_gives_identical_samples(self):
        cfg = ue.CorpusConfig(n_subjects=3, samples_per_subject=4, template_bits=128,
                              intra_flip_rate=0.0, seed=5)
        corpus = ue.generate_corpus(cfg)
        for subject in corpus.bits:
            assert np.all(subject == subject[0])

    def test_intra_and_inter_distances(self):
        """Over 20 seeds: mated raw HD near 2p(1-p), non-mated near 0.5."""
        mated, non_mated = [], []
        for seed in range(20):
            cfg = ue.CorpusConfig(n_subjects=4, samples_per_subject=2, template_bits=4096,
                                  intra_flip_rate=0.1, seed=seed)
            c = ue.generate_corpus(cfg)
            for s in range(4):
                mated.append(np.mean(c.bits[s, 0] != c.bits[s, 1]))
            non_mated.append(np.mean(c.bits[0, 0] != c.bits[1, 0]))
        assert np.mean(mated) == pytest.approx(0.18, abs=0.01)
        assert np.mean(non_mated) == pytest.approx(0.5, abs=0.02)
        assert np.mean(mated) < np.mean(non_mated)

    @pytest.mark.parametrize("bad", [
        dict(n_subjects=1),
        dict(samples_per_subject=1),
        dict(template_bits=0),
        dict(intra_flip_rate=0.5),
        dict(intra_flip_rate=-0.1),
        dict(seed=1.5),
    ])
    def test_invalid_config(self, bad):
        kwargs = dict(n_subjects=3, samples_per_subject=2, template_bits=64,
                      intra_flip_rate=0.1, seed=0)
        kwargs.update(bad)
        with pytest.raises(InvalidConfigError):
            ue.CorpusConfig(**kwargs)


class TestKeyRing:
    def test_deterministic_and_distinct(self):
        a = ue.KeyRing.generate(8, 256, seed=3)
        b = ue.KeyRing.generate(8, 256, seed=3)
        assert np.array_equal(a.xor_masks, b.xor_masks)
        assert np.array_equal(a.block_perms, b.block_perms)
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.array_equal(a.xor_masks[i], a.xor_masks[j])
                assert not np.array_equal(a.block_perms[i], a.block_perms[j])

    def test_constant_ring_repeats_one_key(self):
        ring = ue.KeyRing.constant_ring(5, 256, seed=3)
        assert ring.constant
        for i in range(1, 5):
            assert np.array_equal(ring.xor_masks[0], ring.xor_masks[i])

    def test_geometry_must_divide(self):
        with pytest.raises(NotDivisibleError):
            ue.KeyRing.generate(4, 100, seed=0, block_size=64)
        with pytest.raises(NotDivisibleError):
            ue.KeyRing.generate(4, 100, seed=0, bloom_width=16, bloom_height=4)


class TestSchemes:
    def test_xor_truth_table(self):
        out = ue.xor_salt(bits("1010"), bits("1111"))
        assert list(out.bits) == [0, 1, 0, 1]
        assert out.scheme == SCHEME_XOR

    def test_xor_length_mismatch(self):
        with pytest.raises(ue.UnlinkEvalError):
            ue.xor_salt(bits("1010"), bits("111"))

    def test_block_remap_permutes_blocks(self):
        # blocks [A,B,C,D], permutation [2,0,3,1] -> [C,A,D,B]
        a, b, c, d = bits("00"), bits("01"), bits("10"), bits("11")
        template = np.concatenate([a, b, c, d])
        out = ue.block_remap(template, np.array([2, 0, 3, 1]), block_size=2)
        assert np.array_equal(out.bits, np.concatenate([c, a, d, b]))

    def test_block_remap_requires_bijection(self):
        with pytest.raises(NotBijectiveError):
            ue.block_remap(bits("0011"), np.array([0, 0]), block_size=2)

    def test_block_remap_requires_divisibility(self):
        with pytest.raises(NotDivisibleError):
            ue.block_remap(bits("00110"), np.array([1, 0]), block_size=2)

    def test_bloom_hand_example(self):
        # one block, w=3 columns of height h=2: columns 01,11,01 with a zero
        # key give integers {1,3} and filter bits 0101 (LSB-first indexing)
        template = bits("011101")
        key = np.zeros((1, 2), dtype=np.uint8)
        out = ue.bloom_protect(template, key, block_width=3, block_height=2)
        assert list(out.bits) == [0, 1, 0, 1]
        assert out.scheme == SCHEME_BLOOM

    def test_bloom_all_zero_column(self):
        template = bits("000000")
        key = np.zeros((1, 2), dtype=np.uint8)
        out = ue.bloom_protect(template, key, block_width=3, block_height=2)
        assert list(out.bits) == [1, 0, 0, 0]

    def test_bloom_key_offsets_indices(self):
        # key column 01 shifts every index by XOR with 1: {1,3} -> {0,2}
        template = bits("011101")
        key = np.array([[0, 1]], dtype=np.uint8)
        out = ue.bloom_protect(template, key, block_width=3, block_height=2)
        assert list(out.bits) == [1, 0, 1, 0]

    def test_bloom_output_length(self):
        ring = ue.KeyRing.generate(3, 512, seed=1, bloom_width=16, bloom_height=4)
        raw = (np.arange(512) % 2).astype(np.uint8)
        out = ue.protect(raw, ring, 0, SCHEME_BLOOM)
        assert out.length == (512 // (16 * 4)) * 2 ** 4

    def test_protect_dispatcher_matches_primitives(self, rng):
        ring = ue.KeyRing.generate(4, 256, seed=7)
        raw = (rng.random(256) < 0.5).astype(np.uint8)
        via_protect = ue.protect(raw, ring, 2, SCHEME_XOR)
        direct = ue.xor_salt(raw, ring.xor_masks[2], key_id=2)
        assert np.array_equal(via_protect.bits, direct.bits)
        via_protect = ue.protect(raw, ring, 1, SCHEME_BLOCK)
        direct = ue.block_remap(raw, ring.block_perms[1], ring.block_size, key_id=1)
        assert np.array_equal(via_protect.bits, direct.bits)
        assert np.array_equal(ue.protect(raw, ring, 0, SCHEME_NONE).bits, raw)


class TestLinkageFunctions:
    def test_pic_hd_is_normalized_hamming(self, rng):
        a = ue.ProtectedTemplate(bits=(rng.random(200) < 0.5).astype(np.uint8),
                                 key_id=0, scheme=SCHEME_XOR)
        b = ue.ProtectedTemplate(bits=(rng.random(200) < 0.5).astype(np.uint8),
                                 key_id=1, scheme=SCHEME_XOR)
        expected = np.mean(a.bits != b.bits)
        assert ue.linkage_pic_hd(a, b) == pytest.approx(expected)

    def test_pic_hd_bloom_uses_dice_style_denominator(self):
        a = ue.ProtectedTemplate(bits=bits("1100"), key_id=0, scheme=SCHEME_BLOOM)
        b = ue.ProtectedTemplate(bits=bits("1010"), key_id=1, scheme=SCHEME_BLOOM)
        # 2 differing bits over 2+2 set bits
        assert ue.linkage_pic_hd(a, b) == pytest.approx(0.5)

    def test_hamming_weight_difference(self):
        a = ue.ProtectedTemplate(bits=bits("1110"), key_id=0, scheme=SCHEME_XOR)
        b = ue.ProtectedTemplate(bits=bits("1000"), key_id=1, scheme=SCHEME_XOR)
        assert ue.linkage_hamming_weight(a, b) == pytest.approx(2 / 4)

    def test_scheme_mismatch_rejected(self):
        a = ue.ProtectedTemplate(bits=bits("10"), key_id=0, scheme=SCHEME_XOR)
        b = ue.ProtectedTemplate(bits=bits("10"), key_id=1, scheme=SCHEME_BLOOM)
        with pytest.raises(SchemeMismatchError):
            ue.linkage_pic_hd(a, b)

    def test_permuted_xor_undoes_the_remap(self, rng):
        ring = ue.KeyRing.generate(5, 512, seed=11, block_size=64)
        raw1 = (rng.random(512) < 0.5).astype(np.uint8)
        raw2 = raw1.copy()
        flip = rng.random(512) < 0.05
        raw2[flip] ^= 1
        t1 = ue.protect(raw1, ring, 1, SCHEME_BLOCK)
        t2 = ue.protect(raw2, ring, 3, SCHEME_BLOCK)
        relation = inter_key_bit_relation(ring, 1, 3)
        got = ue.linkage_permuted_xor(t1, t2, relation)
        assert got == pytest.approx(np.mean(raw1 != raw2))

    def test_reconstruction_restores_raw_bits(self, rng):
        ring = ue.KeyRing.generate(4, 512, seed=13)
        raw = (rng.random(512) < 0.5).astype(np.uint8)
        for scheme in (SCHEME_XOR, SCHEME_BLOCK, SCHEME_NONE):
            t = ue.protect(raw, ring, 2, scheme)
            assert np.array_equal(reconstruct(t, ring), raw), scheme

    def test_bloom_not_invertible_by_default(self):
        ring = ue.KeyRing.generate(4, 512, seed=13)
        raw = (np.arange(512) % 2).astype(np.uint8)
        t = ue.protect(raw, ring, 0, SCHEME_BLOOM)
        with pytest.raises(SchemeNotInvertibleError):
            reconstruct(t, ring)

    def test_bloom_approximate_decode_is_opt_in(self):
        ring = ue.KeyRing.generate(4, 512, seed=13)
        raw = (np.arange(512) % 2).astype(np.uint8)
        t = ue.protect(raw, ring, 1, SCHEME_BLOOM)
        approx = reconstruct(t, ring, allow_approximate_bloom=True)
        assert approx.shape == raw.shape
        assert approx.dtype == np.uint8

    def test_bloom_decode_hand_example(self):
        # one block, w=3 columns of height h=2: columns 01,11,01 hold the
        # values {1,3}; the decoder returns them ascending and pads the
        # slot lost to the repeated 01 with zeros
        ring = ue.KeyRing(k=1, template_bits=6, block_size=6, bloom_width=3, bloom_height=2,
                          xor_masks=np.zeros((1, 6), dtype=np.uint8),
                          block_perms=np.zeros((1, 1), dtype=np.int64),
                          bloom_keys=np.array([[[0, 1]]], dtype=np.uint8), seed=0)
        t = ue.protect(bits("011101"), ring, 0, SCHEME_BLOOM)
        assert list(t.bits) == [1, 0, 1, 0]  # keyed values {0, 2}
        decoded = reconstruct(t, ring, allow_approximate_bloom=True)
        assert list(decoded) == list(bits("011100"))

    def test_bloom_decode_matches_per_block_oracle(self, rng):
        # any filter contents, including more set bits than columns: each
        # block decodes to its first w un-keyed values in ascending order
        ring = ue.KeyRing.generate(2, 192, seed=5, bloom_width=4, bloom_height=3)
        filters = (rng.random((40, 3, 192 // 12 * 8)) < 0.4).astype(np.uint8)
        got = invert_bits(filters, ring, 1, SCHEME_BLOOM, allow_approximate_bloom=True)
        assert got.shape == (40, 3, 192)
        key_ints = ring.bloom_keys[1] @ np.array([4, 2, 1])
        for row, out in zip(filters.reshape(-1, filters.shape[-1]), got.reshape(-1, 192)):
            for b, block in enumerate(row.reshape(-1, 8)):
                values = np.sort(np.flatnonzero(block) ^ key_ints[b])[:4]
                cols = np.zeros(4, dtype=np.int64)
                cols[: values.size] = values
                expected = ((cols[:, None] >> np.array([2, 1, 0])) & 1).reshape(-1)
                assert np.array_equal(out[b * 12 : (b + 1) * 12], expected)

    def test_reconstruction_linkage_equals_raw_distance(self, rng):
        ring = ue.KeyRing.generate(4, 512, seed=17)
        raw1 = (rng.random(512) < 0.5).astype(np.uint8)
        raw2 = (rng.random(512) < 0.5).astype(np.uint8)
        t1 = ue.protect(raw1, ring, 0, SCHEME_XOR)
        t2 = ue.protect(raw2, ring, 3, SCHEME_XOR)
        got = linkage_reconstruction(t1, t2, ring)
        assert got == pytest.approx(np.mean(raw1 != raw2))


class TestProtectCorpus:
    def test_matches_per_template_protection(self, rng):
        cfg = ue.CorpusConfig(n_subjects=3, samples_per_subject=2, template_bits=256,
                              intra_flip_rate=0.1, seed=21)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(4, 256, seed=22)
        for scheme in (SCHEME_XOR, SCHEME_BLOCK, SCHEME_BLOOM, SCHEME_NONE):
            db = protect_corpus(corpus, ring, 1, scheme)
            for subj in range(3):
                for samp in range(2):
                    single = ue.protect(corpus.bits[subj, samp], ring, 1, scheme)
                    row = db.bits[subj, samp]
                    assert np.array_equal(row, single.bits), scheme

    def test_databases_one_per_key(self):
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=256,
                              intra_flip_rate=0.1, seed=31)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(3, 256, seed=32)
        dbs = ue.generate_databases(corpus, ring, SCHEME_XOR)
        assert [db.key_id for db in dbs] == [0, 1, 2]
        assert all(isinstance(db, ProtectedDatabase) for db in dbs)
