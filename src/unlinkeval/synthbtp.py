"""Synthetic binary-template testbed: corpora, protection schemes, linkage functions.

Real biometric databases are out of reach for a desk-scale artifact, so the
evaluation protocol runs against synthetic subjects instead: each subject
has one latent random bit template, and samples of that subject are derived
by independent per-bit flips.  Three protection schemes operate on those
bits (XOR salting, block re-mapping, Bloom-filter encoding), and four
linkage-function families with increasing adversary knowledge compare the
protected templates.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfigError,
    LengthMismatchError,
    NotBijectiveError,
    NotDivisibleError,
    SchemeMismatchError,
    SchemeNotInvertibleError,
    ShapeMismatchError,
)

SCHEME_XOR = "xor-salt"
SCHEME_BLOCK = "block-remap"
SCHEME_BLOOM = "bloom-filter"
SCHEME_NONE = "none"
SCHEMES = (SCHEME_XOR, SCHEME_BLOCK, SCHEME_BLOOM, SCHEME_NONE)


@dataclass(frozen=True)
class CorpusConfig:
    """Shape and noise model of a synthetic subject corpus.

    intra_flip_rate is the per-bit flip probability between a subject's
    latent template and each sample; two samples of one subject then differ
    in an expected 2*p*(1-p) fraction of bits, while samples of different
    subjects sit at 0.5.
    """

    n_subjects: int
    samples_per_subject: int
    template_bits: int
    intra_flip_rate: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.n_subjects, int) or self.n_subjects < 2:
            raise InvalidConfigError(f"n_subjects must be an integer >= 2, got {self.n_subjects!r}")
        if not isinstance(self.samples_per_subject, int) or self.samples_per_subject < 2:
            raise InvalidConfigError(
                f"samples_per_subject must be an integer >= 2, got {self.samples_per_subject!r}"
            )
        if not isinstance(self.template_bits, int) or self.template_bits < 1:
            raise InvalidConfigError(f"template_bits must be a positive integer, got {self.template_bits!r}")
        if not (0.0 <= self.intra_flip_rate < 0.5):
            raise InvalidConfigError(
                f"intra_flip_rate must lie in [0, 0.5), got {self.intra_flip_rate!r}"
            )
        if not isinstance(self.seed, int):
            raise InvalidConfigError(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class RawCorpus:
    """Unprotected sample bits, indexed [subject, sample, bit]."""

    config: CorpusConfig
    bits: np.ndarray

    def __post_init__(self):
        expected = (
            self.config.n_subjects,
            self.config.samples_per_subject,
            self.config.template_bits,
        )
        if self.bits.shape != expected:
            raise ShapeMismatchError(f"corpus bits shape {self.bits.shape}, expected {expected}")
        self.bits.setflags(write=False)


def generate_corpus(cfg: CorpusConfig) -> RawCorpus:
    """Draw a corpus: one latent template per subject, noisy samples from it.

    Each subject gets its own RNG stream split off the master seed, so
    corpora are reproducible bit-exactly and subjects could be generated in
    parallel without changing the output.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.n_subjects)
    bits = np.empty(
        (cfg.n_subjects, cfg.samples_per_subject, cfg.template_bits), dtype=np.uint8
    )
    for subject, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        latent = rng.integers(0, 2, cfg.template_bits, dtype=np.uint8)
        flips = (
            rng.random((cfg.samples_per_subject, cfg.template_bits)) < cfg.intra_flip_rate
        ).astype(np.uint8)
        bits[subject] = latent[None, :] ^ flips
    return RawCorpus(config=cfg, bits=bits)


@dataclass(frozen=True)
class ProtectedTemplate:
    bits: np.ndarray
    key_id: int
    scheme: str

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8).reshape(-1)
        if self.scheme not in SCHEMES:
            raise InvalidConfigError(f"unknown scheme {self.scheme!r}")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def length(self) -> int:
        return int(self.bits.size)


@dataclass(frozen=True)
class KeyRing:
    """Per-key protection material for all schemes over one template geometry.

    xor_masks: (K, L) bits; block_perms: (K, L/block_size) block indices;
    bloom_keys: (K, n_bloom_blocks, bloom_height) bits.
    """

    k: int
    template_bits: int
    block_size: int
    bloom_width: int
    bloom_height: int
    xor_masks: np.ndarray
    block_perms: np.ndarray
    bloom_keys: np.ndarray
    seed: int
    constant: bool = False

    def __post_init__(self):
        for arr in (self.xor_masks, self.block_perms, self.bloom_keys):
            arr.setflags(write=False)

    @classmethod
    def generate(
        cls,
        k: int,
        template_bits: int,
        seed: int,
        block_size: int = 64,
        bloom_width: int = 16,
        bloom_height: int = 4,
    ) -> "KeyRing":
        """Draw K pairwise-distinct keys for every scheme."""
        _validate_geometry(template_bits, block_size, bloom_width, bloom_height)
        if not isinstance(k, int) or k < 1:
            raise InvalidConfigError(f"key count must be a positive integer, got {k!r}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        n_blocks = template_bits // block_size
        n_bloom = template_bits // (bloom_width * bloom_height)

        masks = _draw_distinct(
            lambda n: rng.integers(0, 2, (n, template_bits), dtype=np.uint8), k
        )
        perms = _draw_distinct(
            lambda n: np.array([rng.permutation(n_blocks) for _ in range(n)]), k
        )
        bloom = _draw_distinct(
            lambda n: rng.integers(0, 2, (n, n_bloom, bloom_height), dtype=np.uint8), k
        )
        return cls(
            k=k,
            template_bits=template_bits,
            block_size=block_size,
            bloom_width=bloom_width,
            bloom_height=bloom_height,
            xor_masks=masks,
            block_perms=perms,
            bloom_keys=bloom,
            seed=seed,
        )

    @classmethod
    def constant_ring(
        cls,
        k: int,
        template_bits: int,
        seed: int,
        block_size: int = 64,
        bloom_width: int = 16,
        bloom_height: int = 4,
    ) -> "KeyRing":
        """All K entries share one key: the no-renewal control experiment.

        Key distinctness is deliberately waived so the cross-key scoring
        machinery can run unchanged while every template is protected
        identically.
        """
        one = cls.generate(1, template_bits, seed, block_size, bloom_width, bloom_height)
        return cls(
            k=k,
            template_bits=template_bits,
            block_size=block_size,
            bloom_width=bloom_width,
            bloom_height=bloom_height,
            xor_masks=np.repeat(one.xor_masks, k, axis=0),
            block_perms=np.repeat(one.block_perms, k, axis=0),
            bloom_keys=np.repeat(one.bloom_keys, k, axis=0),
            seed=seed,
            constant=True,
        )


def _validate_geometry(template_bits: int, block_size: int, bloom_width: int, bloom_height: int):
    if template_bits % block_size:
        raise NotDivisibleError(
            f"template length {template_bits} is not a multiple of block size {block_size}"
        )
    if template_bits % (bloom_width * bloom_height):
        raise NotDivisibleError(
            f"template length {template_bits} is not a multiple of the "
            f"{bloom_width}x{bloom_height} filter block"
        )


def _draw_distinct(draw, k: int, max_tries: int = 100) -> np.ndarray:
    out = draw(k)
    for _ in range(max_tries):
        flat = out.reshape(k, -1)
        _, first = np.unique(flat, axis=0, return_index=True)
        if first.size == k:
            return out
        dup = np.setdiff1d(np.arange(k), first)
        out[dup] = draw(dup.size)
    raise InvalidConfigError(f"could not draw {k} distinct keys; key space too small")


# Each scheme's forward transform and inverse, written once over bit arrays
# of any leading shape (..., L).  The per-template functions below add input
# checks; protect_corpus and the protocol's score engine call these directly.

def _xor(bits: np.ndarray, key: np.ndarray) -> np.ndarray:
    """XOR salting; an involution, so it is also the inverse."""
    return bits ^ key


def _remap_blocks(bits: np.ndarray, perm: np.ndarray, block_size: int) -> np.ndarray:
    """Output block i is input block perm[i]; argsort(perm) undoes it."""
    blocks = bits.reshape(*bits.shape[:-1], -1, block_size)
    return blocks[..., perm, :].reshape(bits.shape)


def _msb_weights(h: int) -> np.ndarray:
    return (1 << np.arange(h - 1, -1, -1)).astype(np.int64)


def _bloom_encode(bits: np.ndarray, key: np.ndarray, w: int, h: int) -> np.ndarray:
    """Keyed column values of each w-column block set bits of a 2**h filter."""
    lead = bits.shape[:-1]
    n_blocks = bits.shape[-1] // (w * h)
    cols = bits.reshape(*lead, n_blocks, w, h)
    idx = (cols ^ key[:, None, :]) @ _msb_weights(h)
    filters = np.zeros((*lead, n_blocks, 1 << h), dtype=np.uint8)
    np.put_along_axis(filters, idx, 1, axis=-1)
    return filters.reshape(*lead, n_blocks << h)


def _bloom_decode(bits: np.ndarray, key: np.ndarray, w: int, h: int) -> np.ndarray:
    """Approximate Bloom inverse: each block's distinct column values, ascending.

    Set bits name the keyed column values; un-keying is a gather, the rank
    of each value among its filter's set bits is a running count, and the
    first w values land at their ranks.  Original order and multiplicity
    are lost, so a block with fewer than w distinct values is zero-padded.
    """
    lead = bits.shape[:-1]
    n_blocks = key.shape[0]
    filters = bits.reshape(-1, n_blocks, 1 << h)
    values = np.arange(1 << h)
    keyed = values ^ (key @ _msb_weights(h))[:, None]
    # present[r, b, v]: un-keyed column value v occurs in block b of row r
    present = filters[:, np.arange(n_blocks)[:, None], keyed]
    rank = np.cumsum(present, axis=-1, dtype=np.int64) - 1
    # absent values and values past the first w go to a spare column w
    slot = np.where((present == 1) & (rank < w), rank, w)
    cols = np.zeros((*filters.shape[:2], w + 1), dtype=np.int64)
    np.put_along_axis(cols, slot, np.broadcast_to(values, slot.shape), axis=-1)
    col_bits = (cols[..., :w, None] >> (h - 1 - np.arange(h))) & 1
    return col_bits.astype(np.uint8).reshape(*lead, -1)


def protect_bits(bits: np.ndarray, ring: KeyRing, key_id: int, scheme: str) -> np.ndarray:
    """Protect raw bits (..., L) under one key of the ring."""
    if scheme == SCHEME_XOR:
        return _xor(bits, ring.xor_masks[key_id])
    if scheme == SCHEME_BLOCK:
        return _remap_blocks(bits, ring.block_perms[key_id], ring.block_size)
    if scheme == SCHEME_BLOOM:
        return _bloom_encode(bits, ring.bloom_keys[key_id], ring.bloom_width, ring.bloom_height)
    if scheme == SCHEME_NONE:
        return bits.copy()
    raise InvalidConfigError(f"unknown scheme {scheme!r}")


def invert_bits(
    bits: np.ndarray, ring: KeyRing, key_id: int, scheme: str, allow_approximate_bloom: bool = False
) -> np.ndarray:
    """Undo protect_bits under full key knowledge: protected (..., L') to raw (..., L)."""
    if scheme == SCHEME_XOR:
        return _xor(bits, ring.xor_masks[key_id])
    if scheme == SCHEME_BLOCK:
        return _remap_blocks(bits, np.argsort(ring.block_perms[key_id]), ring.block_size)
    if scheme == SCHEME_BLOOM:
        if not allow_approximate_bloom:
            raise SchemeNotInvertibleError(
                "Bloom-filter encoding is not invertible; approximate reconstruction is opt-in"
            )
        return _bloom_decode(bits, ring.bloom_keys[key_id], ring.bloom_width, ring.bloom_height)
    if scheme == SCHEME_NONE:
        return bits.copy()
    raise SchemeMismatchError(f"unknown scheme {scheme!r}")


def xor_salt(template, key, key_id: int = 0) -> ProtectedTemplate:
    """Bitwise XOR of template and key; an involution under the same key."""
    template = np.asarray(template, dtype=np.uint8).reshape(-1)
    key = np.asarray(key, dtype=np.uint8).reshape(-1)
    if template.size != key.size:
        raise LengthMismatchError(f"template has {template.size} bits, key {key.size}")
    return ProtectedTemplate(bits=_xor(template, key), key_id=key_id, scheme=SCHEME_XOR)


def block_remap(template, permutation, block_size: int, key_id: int = 0) -> ProtectedTemplate:
    """Reorder fixed-size blocks: output block i is input block permutation[i]."""
    template = np.asarray(template, dtype=np.uint8).reshape(-1)
    if block_size < 1 or template.size % block_size:
        raise NotDivisibleError(
            f"template length {template.size} is not a multiple of block size {block_size}"
        )
    n_blocks = template.size // block_size
    perm = np.asarray(permutation, dtype=np.int64).reshape(-1)
    if perm.size != n_blocks or not np.array_equal(np.sort(perm), np.arange(n_blocks)):
        raise NotBijectiveError(f"permutation is not a bijection on {n_blocks} blocks")
    return ProtectedTemplate(
        bits=_remap_blocks(template, perm, block_size), key_id=key_id, scheme=SCHEME_BLOCK
    )


def bloom_protect(template, key, block_width: int, block_height: int, key_id: int = 0) -> ProtectedTemplate:
    """Bloom-filter encoding of a bit template.

    The template is read as consecutive columns of block_height bits,
    block_width columns per block.  Within a block every column is XORed
    with that block's key column and read as an integer (most significant
    bit first); the corresponding bit of a 2**block_height filter is set.
    Output is the concatenation of the per-block filters, index 0 first.
    """
    template = np.asarray(template, dtype=np.uint8).reshape(-1)
    w, h = block_width, block_height
    if w < 1 or h < 1 or template.size % (w * h):
        raise ShapeMismatchError(
            f"template length {template.size} does not reshape to {h}-bit columns in {w}-column blocks"
        )
    n_blocks = template.size // (w * h)
    key = np.asarray(key, dtype=np.uint8)
    if key.shape != (n_blocks, h):
        raise ShapeMismatchError(f"key shape {key.shape}, expected {(n_blocks, h)}")
    return ProtectedTemplate(
        bits=_bloom_encode(template, key, w, h), key_id=key_id, scheme=SCHEME_BLOOM
    )


def protect(template, ring: KeyRing, key_id: int, scheme: str) -> ProtectedTemplate:
    """Apply one scheme from a key ring to one raw template."""
    if not 0 <= key_id < ring.k:
        raise InvalidConfigError(f"key_id {key_id} outside ring of {ring.k} keys")
    if scheme == SCHEME_XOR:
        return xor_salt(template, ring.xor_masks[key_id], key_id)
    if scheme == SCHEME_BLOCK:
        return block_remap(template, ring.block_perms[key_id], ring.block_size, key_id)
    if scheme == SCHEME_BLOOM:
        return bloom_protect(template, ring.bloom_keys[key_id], ring.bloom_width, ring.bloom_height, key_id)
    if scheme == SCHEME_NONE:
        return ProtectedTemplate(
            bits=np.asarray(template, dtype=np.uint8).reshape(-1).copy(),
            key_id=key_id,
            scheme=SCHEME_NONE,
        )
    raise InvalidConfigError(f"unknown scheme {scheme!r}")


def _check_comparable(t1: ProtectedTemplate, t2: ProtectedTemplate):
    if t1.scheme != t2.scheme:
        raise SchemeMismatchError(f"cannot compare schemes {t1.scheme!r} and {t2.scheme!r}")
    if t1.length != t2.length:
        raise SchemeMismatchError(f"template lengths differ: {t1.length} vs {t2.length}")


def linkage_pic_hd(t1: ProtectedTemplate, t2: ProtectedTemplate) -> float:
    """Pseudonymous-identifier comparison by Hamming distance.

    Normalized HD for bit-preserving schemes; for Bloom filters the
    conventional dissimilarity |T1 xor T2| / (|T1| + |T2|) over set bits.
    """
    _check_comparable(t1, t2)
    diff = int(np.count_nonzero(t1.bits != t2.bits))
    if t1.scheme == SCHEME_BLOOM:
        pop = int(np.count_nonzero(t1.bits)) + int(np.count_nonzero(t2.bits))
        return diff / pop
    return diff / t1.length


def linkage_hamming_weight(t1: ProtectedTemplate, t2: ProtectedTemplate) -> float:
    """Absolute Hamming-weight difference, normalized by template length."""
    if t1.length != t2.length:
        raise LengthMismatchError(f"template lengths differ: {t1.length} vs {t2.length}")
    w1 = int(np.count_nonzero(t1.bits))
    w2 = int(np.count_nonzero(t2.bits))
    return abs(w1 - w2) / t1.length


def linkage_permuted_xor(t1: ProtectedTemplate, t2: ProtectedTemplate, relation) -> float:
    """Normalized HD after permuting t2's bits by a known structural relation.

    relation[i] gives the index of t2's bit that lands at position i.  With
    the true inter-key relation of a block-remapping scheme, comparing two
    protections of the same sample scores 0.
    """
    if t1.length != t2.length:
        raise LengthMismatchError(f"template lengths differ: {t1.length} vs {t2.length}")
    relation = np.asarray(relation, dtype=np.int64).reshape(-1)
    if relation.size != t2.length or not np.array_equal(
        np.sort(relation), np.arange(t2.length)
    ):
        raise NotBijectiveError(f"relation is not a bit permutation of length {t2.length}")
    diff = int(np.count_nonzero(t1.bits != t2.bits[relation]))
    return diff / t1.length


def inter_key_bit_relation(ring: KeyRing, key_a: int, key_b: int) -> np.ndarray:
    """Bit-level permutation mapping key_b's block layout onto key_a's.

    Applying it to a template protected with key_b aligns its blocks with a
    template protected with key_a, so block re-mapping cancels exactly.
    """
    pa = ring.block_perms[key_a]
    pb = ring.block_perms[key_b]
    pb_inv = np.argsort(pb)
    block_rel = pb_inv[pa]
    offsets = np.arange(ring.block_size, dtype=np.int64)
    return (block_rel[:, None] * ring.block_size + offsets[None, :]).reshape(-1)


def reconstruct(t: ProtectedTemplate, ring: KeyRing, allow_approximate_bloom: bool = False) -> np.ndarray:
    """Invert a protection under full key knowledge, returning raw bits.

    XOR salting and block re-mapping invert exactly.  Bloom filters are not
    invertible; the approximate decoder (opt-in) recovers the set of column
    values per block, sorted, padded with zeros where multiplicity was lost.
    """
    return invert_bits(t.bits, ring, t.key_id, t.scheme, allow_approximate_bloom)


def linkage_reconstruction(
    t1: ProtectedTemplate,
    t2: ProtectedTemplate,
    ring: KeyRing,
    allow_approximate_bloom: bool = False,
) -> float:
    """Normalized HD between full-key-knowledge reconstructions."""
    _check_comparable(t1, t2)
    r1 = reconstruct(t1, ring, allow_approximate_bloom)
    r2 = reconstruct(t2, ring, allow_approximate_bloom)
    return int(np.count_nonzero(r1 != r2)) / r1.size


@dataclass(frozen=True)
class ProtectedDatabase:
    """One corpus protected under one key, indexed [subject, sample, bit]."""

    bits: np.ndarray
    key_id: int
    scheme: str
    raw_bits: int

    def __post_init__(self):
        self.bits.setflags(write=False)

    @property
    def n_subjects(self) -> int:
        return int(self.bits.shape[0])

    @property
    def samples_per_subject(self) -> int:
        return int(self.bits.shape[1])

    @property
    def template_length(self) -> int:
        return int(self.bits.shape[2])


def protect_corpus(corpus: RawCorpus, ring: KeyRing, key_id: int, scheme: str) -> ProtectedDatabase:
    """Protect every sample of a corpus under one key, vectorized."""
    if not 0 <= key_id < ring.k:
        raise InvalidConfigError(f"key_id {key_id} outside ring of {ring.k} keys")
    if ring.template_bits != corpus.config.template_bits:
        raise LengthMismatchError(
            f"ring built for {ring.template_bits}-bit templates, corpus has {corpus.config.template_bits}"
        )
    bits = protect_bits(corpus.bits, ring, key_id, scheme)
    return ProtectedDatabase(bits=bits, key_id=key_id, scheme=scheme, raw_bits=ring.template_bits)


def generate_databases(corpus: RawCorpus, ring: KeyRing, scheme: str) -> list[ProtectedDatabase]:
    """One protected database per key in the ring."""
    return [protect_corpus(corpus, ring, key_id, scheme) for key_id in range(ring.k)]
