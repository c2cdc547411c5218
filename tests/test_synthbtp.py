import re
from dataclasses import replace

import numpy as np
import pytest

import unlinkeval as ue
from unlinkeval.errors import (
    InconsistentDatabasesError,
    InvalidConfigError,
    LengthMismatchError,
    NotDivisibleError,
    SchemeNotInvertibleError,
)
from unlinkeval.protocol import ProtocolConfig, ScoreEngine
from unlinkeval.synthbtp import (
    SCHEME_BLOCK,
    SCHEME_BLOOM,
    SCHEME_NONE,
    SCHEME_XOR,
    SCHEMES,
    ProtectedDatabase,
)

XOR, BLOCK, BLOOM = (SCHEMES[name] for name in (SCHEME_XOR, SCHEME_BLOCK, SCHEME_BLOOM))


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
        dict(seed=True),
        dict(seed=-5),
        dict(n_subjects=True),
        dict(samples_per_subject=True),
        dict(template_bits=True),
        dict(intra_flip_rate=False),
        dict(intra_flip_rate="0.1"),
        dict(n_subjects=np.True_),
        dict(seed=np.float64(1.0)),
    ])
    def test_invalid_config(self, bad):
        kwargs = dict(n_subjects=3, samples_per_subject=2, template_bits=64,
                      intra_flip_rate=0.1, seed=0)
        kwargs.update(bad)
        with pytest.raises(InvalidConfigError, match=f"^{next(iter(bad))} must be"):
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

    @pytest.mark.parametrize("scheme", ["xor-salt", "block-remap", "bloom-filter", "none"])
    def test_keys_do_not_depend_on_the_scheme(self, scheme):
        """A geometry every scheme takes gives the same keys, drawn in one
        stream, for any scheme and for none named, as a positional call."""
        every = ue.KeyRing.generate(10, 1024, 7, 64, 16, 4)
        ring = ue.KeyRing.generate(10, 1024, 7, 64, 16, 4, scheme=scheme)
        for name in ("xor_masks", "block_perms", "bloom_keys"):
            assert np.array_equal(getattr(ring, name), getattr(every, name)), name

    @pytest.mark.parametrize("bits", [64, 100, 8])
    def test_xor_salting_takes_any_length(self, bits):
        """One 64-bit block has one order, and 100 bits fill neither block:
        only the scheme in use is checked."""
        ring = ue.KeyRing.generate(10, bits, 3, scheme=SCHEME_XOR)
        assert np.unique(ring.xor_masks, axis=0).shape == (10, bits)
        assert ue.KeyRing.constant_ring(10, bits, 3, scheme=SCHEME_XOR).xor_masks.shape == (10, bits)

    def test_the_scheme_in_use_is_checked(self):
        with pytest.raises(InvalidConfigError, match="could not draw 10 distinct keys"):
            ue.KeyRing.generate(10, 64, 3, scheme=SCHEME_BLOCK)
        with pytest.raises(NotDivisibleError, match="block size"):
            ue.KeyRing.generate(10, 100, 3, scheme=SCHEME_BLOCK)
        with pytest.raises(NotDivisibleError, match="filter block"):
            ue.KeyRing.generate(10, 100, 3, block_size=4, scheme=SCHEME_BLOOM)
        with pytest.raises(InvalidConfigError, match="could not draw 10 distinct keys"):
            ue.KeyRing.generate(10, 3, 3, block_size=1, bloom_width=1, bloom_height=1, scheme=SCHEME_XOR)

    @pytest.mark.parametrize("make", [ue.KeyRing.generate, ue.KeyRing.constant_ring])
    @pytest.mark.parametrize("bad", [
        dict(k=True),
        dict(k=2.0),
        dict(k=0),
        dict(seed=-1),
        dict(seed=True),
        dict(seed="1"),
        dict(template_bits=True),
        dict(block_size=0),
        dict(bloom_height=np.True_),
    ])
    def test_invalid_arguments_name_the_field(self, make, bad):
        kwargs = dict(k=2, template_bits=256, seed=1)
        kwargs.update(bad)
        with pytest.raises(InvalidConfigError, match=f"^{next(iter(bad))} must be"):
            make(**kwargs)

    def test_numpy_integers_are_stored_as_int(self):
        ring = ue.KeyRing.constant_ring(np.int64(3), np.int64(256), np.int64(1), block_size=np.int32(32))
        for name in ("k", "template_bits", "seed", "block_size", "bloom_width", "bloom_height"):
            assert type(getattr(ring, name)) is int, name
        assert ring.xor_masks.shape == (3, 256)

    @pytest.mark.parametrize("name", ["rot13", ["xor-salt"], None, 1], ids=["rot13", "list", "None", "int"])
    def test_unknown_scheme_is_a_config_error(self, name):
        """Every entry point that takes a scheme name looks it up one way.
        None is KeyRing.generate's default, every scheme, and no error there."""
        corpus = dict(n_subjects=4, samples_per_subject=2, template_bits=128, intra_flip_rate=0.1, seed=2)
        match = f"^unknown scheme {re.escape(repr(name))}"
        with pytest.raises(InvalidConfigError, match=match):
            ProtocolConfig(linkage_functions=["pic_hd"], scheme=name, corpus=ue.CorpusConfig(**corpus))
        with pytest.raises(InvalidConfigError, match=match):
            ProtocolConfig.from_dict({"linkage_functions": ["pic_hd"], "scheme": name, "corpus": corpus})
        if name is not None:
            with pytest.raises(InvalidConfigError, match=match):
                ue.KeyRing.generate(2, 256, seed=1, scheme=name)
            with pytest.raises(InvalidConfigError, match=match):
                ue.KeyRing.constant_ring(2, 256, seed=1, scheme=name)


def one_key_ring(template_bits, block_size=None, block_perm=(0,), xor_mask=None,
                 bloom_key=None, bloom_width=1, bloom_height=1):
    """A ring holding one given key; material not given is zeros."""
    n_bloom = template_bits // (bloom_width * bloom_height)
    return ue.KeyRing(
        k=1, template_bits=template_bits, block_size=block_size or template_bits,
        bloom_width=bloom_width, bloom_height=bloom_height,
        xor_masks=np.zeros((1, template_bits), dtype=np.uint8) if xor_mask is None else xor_mask[None],
        block_perms=np.array([block_perm], dtype=np.int64),
        bloom_keys=np.zeros((1, n_bloom, bloom_height), dtype=np.uint8) if bloom_key is None
        else np.array([bloom_key], dtype=np.uint8),
        seed=0,
    )


def engine_score(fn, t1, t2, scheme, ring=None, key_ids=(0, 1)):
    """The score engine's fn on one pair: t1 under key_ids[0], t2 under key_ids[1].

    Without a ring, t1 and t2 are the protected templates.  With one, they
    are raw: the two samples of one subject, protected under every key, as
    the engine's databases protect one corpus.
    """
    if ring is None:
        dbs = [ProtectedDatabase(bits=np.asarray(t, dtype=np.uint8).reshape(1, 1, -1), key_id=k,
                                 scheme=scheme, raw_bits=len(t))
               for k, t in zip(key_ids, (t1, t2))]
    else:
        raw = np.stack([t1, t2]).astype(np.uint8)[None]
        dbs = [ProtectedDatabase(bits=SCHEMES[scheme].protect(raw, ring, k), key_id=k, scheme=scheme,
                                 raw_bits=raw.shape[-1])
               for k in key_ids]
    engine = ScoreEngine(dbs, ring)
    view = engine.view(fn)
    samples = (np.zeros(1, int), np.full(1, int(ring is not None)))
    [(_, dist, popsum)] = engine.same_subject(view, [0], [1], samples)
    [score] = view.table(np.bincount(view.cells(dist, popsum), minlength=view.size)).values
    return float(score)


class TestSchemes:
    def test_xor_truth_table(self):
        out = XOR.protect(bits("1010"), one_key_ring(4, xor_mask=bits("1111")), 0)
        assert list(out) == [0, 1, 0, 1]

    def test_block_remap_permutes_blocks(self):
        # blocks [A,B,C,D], permutation [2,0,3,1] -> [C,A,D,B]
        a, b, c, d = bits("00"), bits("01"), bits("10"), bits("11")
        template = np.concatenate([a, b, c, d])
        ring = one_key_ring(8, block_size=2, block_perm=[2, 0, 3, 1])
        out = BLOCK.protect(template, ring, 0)
        assert np.array_equal(out, np.concatenate([c, a, d, b]))

    def test_bloom_hand_example(self):
        # one block, w=3 columns of height h=2: columns 01,11,01 with a zero
        # key give integers {1,3} and filter bits 0101 (LSB-first indexing)
        ring = one_key_ring(6, bloom_width=3, bloom_height=2)
        out = BLOOM.protect(bits("011101"), ring, 0)
        assert list(out) == [0, 1, 0, 1]

    def test_bloom_all_zero_column(self):
        ring = one_key_ring(6, bloom_width=3, bloom_height=2)
        out = BLOOM.protect(bits("000000"), ring, 0)
        assert list(out) == [1, 0, 0, 0]

    def test_bloom_key_offsets_indices(self):
        # key column 01 shifts every index by XOR with 1: {1,3} -> {0,2}
        ring = one_key_ring(6, bloom_key=[[0, 1]], bloom_width=3, bloom_height=2)
        out = BLOOM.protect(bits("011101"), ring, 0)
        assert list(out) == [1, 0, 1, 0]

    def test_bloom_output_length(self):
        ring = ue.KeyRing.generate(3, 512, seed=1, bloom_width=16, bloom_height=4)
        raw = (np.arange(512) % 2).astype(np.uint8)
        out = BLOOM.protect(raw, ring, 0)
        assert out.size == (512 // (16 * 4)) * 2 ** 4


class TestLinkageFunctions:
    def test_pic_hd_is_normalized_hamming(self, rng):
        a = (rng.random(200) < 0.5).astype(np.uint8)
        b = (rng.random(200) < 0.5).astype(np.uint8)
        expected = np.mean(a != b)
        assert engine_score("pic_hd", a, b, SCHEME_XOR) == pytest.approx(expected)

    def test_pic_hd_bloom_uses_dice_style_denominator(self):
        # 2 differing bits over 2+2 set bits
        assert engine_score("pic_hd", bits("1100"), bits("1010"), SCHEME_BLOOM) == pytest.approx(0.5)

    def test_hamming_weight_difference(self):
        got = engine_score("hamming_weight", bits("1110"), bits("1000"), SCHEME_XOR)
        assert got == pytest.approx(2 / 4)

    def test_permuted_xor_undoes_the_remap(self, rng):
        ring = ue.KeyRing.generate(5, 512, seed=11, block_size=64)
        raw1 = (rng.random(512) < 0.5).astype(np.uint8)
        raw2 = raw1.copy()
        flip = rng.random(512) < 0.05
        raw2[flip] ^= 1
        got = engine_score("permuted_xor", raw1, raw2, SCHEME_BLOCK, ring, key_ids=(1, 3))
        assert got == pytest.approx(np.mean(raw1 != raw2))

    def test_reconstruction_restores_raw_bits(self, rng):
        ring = ue.KeyRing.generate(4, 512, seed=13)
        raw = (rng.random(512) < 0.5).astype(np.uint8)
        for scheme in (SCHEME_XOR, SCHEME_BLOCK, SCHEME_NONE):
            t = SCHEMES[scheme].protect(raw, ring, 2)
            assert np.array_equal(SCHEMES[scheme].invert(t, ring, 2), raw), scheme

    @staticmethod
    def _bloom_databases(ring):
        raw = (np.arange(512) % 2).astype(np.uint8).reshape(1, 1, -1)
        return [ProtectedDatabase(bits=BLOOM.protect(raw, ring, k), key_id=k, scheme=SCHEME_BLOOM, raw_bits=512)
                for k in (0, 1)]

    def test_bloom_not_invertible_by_default(self):
        ring = ue.KeyRing.generate(4, 512, seed=13)
        engine = ScoreEngine(self._bloom_databases(ring), ring)
        with pytest.raises(SchemeNotInvertibleError):
            engine.packed_inverted("reconstruction")

    def test_bloom_approximate_decode_is_opt_in(self):
        ring = ue.KeyRing.generate(4, 512, seed=13)
        raw = (np.arange(512) % 2).astype(np.uint8)
        t = BLOOM.protect(raw, ring, 1)
        approx = BLOOM.invert(t, ring, 1)
        assert approx.shape == raw.shape
        assert approx.dtype == np.uint8
        engine = ScoreEngine(self._bloom_databases(ring), ring, allow_approximate_bloom=True)
        # two keys, each one subject's one sample, word-major
        words = engine.packed_inverted("reconstruction")
        assert words.shape[0] == 2 and words.shape[2:] == (1, 1)

    def test_bloom_decode_hand_example(self):
        # one block, w=3 columns of height h=2: columns 01,11,01 hold the
        # values {1,3}; the decoder returns them ascending and pads the
        # slot lost to the repeated 01 with zeros
        ring = one_key_ring(6, bloom_key=[[0, 1]], bloom_width=3, bloom_height=2)
        t = BLOOM.protect(bits("011101"), ring, 0)
        assert list(t) == [1, 0, 1, 0]  # keyed values {0, 2}
        decoded = BLOOM.invert(t, ring, 0)
        assert list(decoded) == list(bits("011100"))

    # w < 2**h, w > 2**h, h = 8 (256 values), and w + 1 = 256 slots: the
    # working type is uint8 for the first two and uint16 for the others
    @pytest.mark.parametrize("w,h", [(4, 3), (20, 4), (5, 8), (255, 1)])
    def test_bloom_decode_matches_per_block_oracle(self, rng, w, h):
        # any filter contents, including more set bits than columns: each
        # block decodes to its first w un-keyed values in ascending order
        length = 4 * w * h
        ring = ue.KeyRing.generate(2, length, seed=5, block_size=h, bloom_width=w, bloom_height=h)
        filters = (rng.random((40, 3, 4 << h)) < 0.4).astype(np.uint8)
        got = BLOOM.invert(filters, ring, 1)
        assert got.shape == (40, 3, length) and got.dtype == np.uint8
        weights = 1 << np.arange(h - 1, -1, -1)
        key_ints = ring.bloom_keys[1] @ weights
        for row, out in zip(filters.reshape(-1, filters.shape[-1]), got.reshape(-1, length)):
            for b, block in enumerate(row.reshape(-1, 1 << h)):
                values = np.sort(np.flatnonzero(block) ^ key_ints[b])[:w]
                cols = np.zeros(w, dtype=np.int64)
                cols[: values.size] = values
                expected = ((cols[:, None] >> np.arange(h - 1, -1, -1)) & 1).reshape(-1)
                assert np.array_equal(out[b * w * h : (b + 1) * w * h], expected)

    @pytest.mark.parametrize("w,h", [(4, 3), (20, 4), (5, 8), (255, 1)])
    def test_bloom_encode_matches_per_column_oracle(self, rng, w, h):
        # each h-bit column, XORed with its block's key column and read most
        # significant bit first, sets that bit of its block's filter
        length = 4 * w * h
        ring = ue.KeyRing.generate(2, length, seed=5, block_size=h, bloom_width=w, bloom_height=h)
        raw = (rng.random((7, 3, length)) < 0.5).astype(np.uint8)
        got = BLOOM.protect(raw, ring, 1)
        assert got.shape == (7, 3, 4 << h) and got.dtype == np.uint8
        weights = 1 << np.arange(h - 1, -1, -1)
        for row, out in zip(raw.reshape(-1, length), got.reshape(-1, 4 << h)):
            expected = np.zeros(4 << h, dtype=np.uint8)
            for b in range(4):
                for col in row[b * w * h : (b + 1) * w * h].reshape(w, h):
                    expected[(b << h) + int((col ^ ring.bloom_keys[1][b]) @ weights)] = 1
            assert np.array_equal(out, expected)

    def test_reconstruction_linkage_equals_raw_distance(self, rng):
        ring = ue.KeyRing.generate(4, 512, seed=17)
        raw1 = (rng.random(512) < 0.5).astype(np.uint8)
        raw2 = (rng.random(512) < 0.5).astype(np.uint8)
        got = engine_score("reconstruction", raw1, raw2, SCHEME_XOR, ring, key_ids=(0, 3))
        assert got == pytest.approx(np.mean(raw1 != raw2))


class TestProtectCorpus:
    @staticmethod
    def _protect_one(raw, ring, key_id, scheme):
        """One template's protection, written out here without the package."""
        if scheme == SCHEME_XOR:
            return raw ^ ring.xor_masks[key_id]
        if scheme == SCHEME_BLOCK:
            size = ring.block_size
            return np.concatenate([raw[p * size:(p + 1) * size] for p in ring.block_perms[key_id]])
        if scheme == SCHEME_BLOOM:
            w, h = ring.bloom_width, ring.bloom_height
            weights = 1 << np.arange(h - 1, -1, -1)
            filters = []
            for block, key in zip(raw.reshape(-1, w, h), ring.bloom_keys[key_id]):
                column_ints = (block ^ key) @ weights
                filters.append(np.isin(np.arange(1 << h), column_ints).astype(np.uint8))
            return np.concatenate(filters)
        return raw

    def test_matches_per_template_protection(self, rng):
        cfg = ue.CorpusConfig(n_subjects=3, samples_per_subject=2, template_bits=256,
                              intra_flip_rate=0.1, seed=21)
        corpus = ue.generate_corpus(cfg)
        # 16 blocks: key 1's permutation is not its own inverse, so the
        # direction of the re-mapping shows
        ring = ue.KeyRing.generate(4, 256, seed=22, block_size=16)
        for scheme in (SCHEME_XOR, SCHEME_BLOCK, SCHEME_BLOOM, SCHEME_NONE):
            db = ue.generate_databases(corpus, ring, scheme)[1]
            for subj in range(3):
                for samp in range(2):
                    single = self._protect_one(corpus.bits[subj, samp], ring, 1, scheme)
                    row = db.bits[subj, samp]
                    assert np.array_equal(row, single), scheme
            if scheme != SCHEME_BLOOM:
                restored = SCHEMES[scheme].invert(SCHEMES[scheme].protect(corpus.bits, ring, 1), ring, 1)
                assert np.array_equal(restored, corpus.bits), scheme

    def test_databases_one_per_key(self):
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=256,
                              intra_flip_rate=0.1, seed=31)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(3, 256, seed=32)
        dbs = ue.generate_databases(corpus, ring, SCHEME_XOR)
        assert [db.key_id for db in dbs] == [0, 1, 2]
        assert all(isinstance(db, ProtectedDatabase) for db in dbs)

    def test_protected_databases_are_made_as_they_are_taken(self, monkeypatch):
        """protected_databases checks the ring at once and protects each key
        only when its database is taken; generate_databases is its list."""
        cfg = ue.CorpusConfig(n_subjects=2, samples_per_subject=2, template_bits=256,
                              intra_flip_rate=0.1, seed=31)
        corpus = ue.generate_corpus(cfg)
        ring = ue.KeyRing.generate(3, 256, seed=32)
        with pytest.raises(LengthMismatchError, match="ring built for 128-bit templates"):
            ue.protected_databases(corpus, ue.KeyRing.generate(3, 128, seed=32, block_size=16), SCHEME_XOR)
        with pytest.raises(InvalidConfigError, match="unknown scheme"):
            ue.protected_databases(corpus, ring, "rot13")
        protected = []
        real = type(XOR).protect
        monkeypatch.setattr(type(XOR), "protect", lambda self, *args: protected.append(args[2]) or real(self, *args))
        databases = ue.protected_databases(corpus, ring, SCHEME_XOR)
        assert protected == []
        assert next(databases).key_id == 0 and protected == [0]
        rest = list(databases)
        assert [db.key_id for db in rest] == [1, 2] and protected == [0, 1, 2]
        for db, listed in zip(rest, ue.generate_databases(corpus, ring, SCHEME_XOR)[1:]):
            assert np.array_equal(db.bits, listed.bits) and db.key_id == listed.key_id


# every linkage function each scheme supports
SUPPORTED = [(scheme, fn) for scheme in (SCHEME_XOR, SCHEME_BLOCK, SCHEME_BLOOM, SCHEME_NONE)
             for fn in ("pic_hd", "hamming_weight", "permuted_xor", "reconstruction")
             if fn != "permuted_xor" or scheme == SCHEME_BLOCK]


def _corpus_and_ring(n_subjects=5, k=4, bits=128, seed=41):
    cfg = ue.CorpusConfig(n_subjects=n_subjects, samples_per_subject=3, template_bits=bits,
                          intra_flip_rate=0.1, seed=seed)
    return ue.generate_corpus(cfg), ue.KeyRing.generate(k, bits, seed + 1, block_size=16)


def _tables(engine, fn):
    """Every count table the engine gives fn: cross-key with each
    non-mated option and mated pairing, and same-key."""
    return [ue.cross_database_scores(engine, fn, mated_pairing=pairing, non_mated_all_pairs=all_pairs)
            for pairing in ("all-cross-key", "distinct-samples") for all_pairs in (False, True)
            ] + [ue.same_key_scores(engine, fn)]


class TestEngineFromAnIterator:
    """ScoreEngine takes any iterable of databases, packs each as it arrives
    and checks it as it did a list, with the same errors and messages."""

    @pytest.mark.parametrize("source", ["one-shot iterator", "generator", "protected_databases"])
    @pytest.mark.parametrize("scheme,fn", SUPPORTED)
    def test_same_tables_as_from_a_list(self, scheme, fn, source):
        corpus, ring = _corpus_and_ring()
        listed = ue.generate_databases(corpus, ring, scheme)
        databases = {"one-shot iterator": lambda: iter(listed),
                     "generator": lambda: (db for db in listed),
                     "protected_databases": lambda: ue.protected_databases(corpus, ring, scheme)}[source]()
        engines = [ScoreEngine(dbs, ring, allow_approximate_bloom=True) for dbs in (listed, databases)]
        assert engines[1].key_ids == engines[0].key_ids == list(range(4))
        for got, expected in zip(*(_tables(engine, fn) for engine in engines)):
            for side in ("mated", "non_mated"):
                a, b = getattr(got, side), getattr(expected, side)
                assert np.array_equal(a.values.view(np.uint64), b.values.view(np.uint64))
                assert np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("case,message", [
        ("one database", "cross-key comparison needs at least 2 databases, got 1"),
        ("no database", "cross-key comparison needs at least 2 databases, got 0"),
        ("other shape", "databases disagree on corpus shape or scheme"),
        ("other scheme", "databases disagree on corpus shape or scheme"),
        ("other raw length", "databases disagree on corpus shape or scheme"),
        ("duplicate key id", "databases carry duplicate key ids"),
        ("ring length", "key ring built for 256-bit templates, databases hold 128"),
        ("key id outside the ring", "key ids [0, 1, 2, 7] outside a ring of 4 keys"),
        ("not one corpus", "the databases do not protect one corpus under the ring's keys"),
    ])
    def test_validation_errors_from_a_generator(self, case, message):
        corpus, ring = _corpus_and_ring()
        dbs = ue.generate_databases(corpus, ring, SCHEME_XOR)
        other_corpus, _ = _corpus_and_ring(seed=43)
        change = {
            "one database": lambda: dbs[:1],
            "no database": lambda: [],
            "other shape": lambda: [*dbs[:3], replace(dbs[3], bits=dbs[3].bits[:4])],
            "other scheme": lambda: [*dbs[:3], replace(dbs[3], scheme=SCHEME_NONE)],
            "other raw length": lambda: [*dbs[:3], replace(dbs[3], raw_bits=64)],
            "duplicate key id": lambda: [*dbs[:3], replace(dbs[3], key_id=1)],
            "key id outside the ring": lambda: [*dbs[:3], replace(dbs[3], key_id=7)],
            "not one corpus": lambda: [*dbs[:3], ue.generate_databases(other_corpus, ring, SCHEME_XOR)[3]],
        }
        databases = change.get(case, lambda: dbs)()
        if case == "ring length":
            ring = ue.KeyRing.generate(4, 256, seed=42, block_size=16)
        with pytest.raises(InconsistentDatabasesError, match=f"^{re.escape(message)}$"):
            ScoreEngine((db for db in databases), ring)
