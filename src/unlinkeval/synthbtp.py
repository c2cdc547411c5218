"""Synthetic binary-template testbed: corpora, key rings and protection schemes.

Real biometric databases are out of reach for a desk-scale artifact, so the
evaluation protocol runs against synthetic subjects instead: each subject
has one latent random bit template, and samples of that subject are derived
by independent per-bit flips.  Three protection schemes operate on those
bits (XOR salting, block re-mapping, Bloom-filter encoding), beside `none`,
each one object of SCHEMES: its geometry check, key draw, forward
transform and inverse over whole bit arrays, and relative key.  The
linkage functions that compare the protected templates live in the
protocol's score engine.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidConfigError,
    LengthMismatchError,
    NotDivisibleError,
    ShapeMismatchError,
    check_int,
    check_number,
)

SCHEME_XOR = "xor-salt"
SCHEME_BLOCK = "block-remap"
SCHEME_BLOOM = "bloom-filter"
SCHEME_NONE = "none"


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
        for name, low in (("n_subjects", 2), ("samples_per_subject", 2), ("template_bits", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        rate = check_number("intra_flip_rate", self.intra_flip_rate)
        if not 0.0 <= rate < 0.5:
            raise InvalidConfigError(f"intra_flip_rate must be a number in [0, 0.5), got {rate!r}")


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
        scheme: str | None = None,
    ) -> "KeyRing":
        """Draw K keys for every scheme, pairwise distinct for `scheme`.

        The geometry and the keys' distinctness are checked for `scheme`
        only (for all schemes when None), so XOR salting takes any length.
        """
        sizes = {"template_bits": template_bits, "block_size": block_size,
                 "bloom_width": bloom_width, "bloom_height": bloom_height}
        sizes = tuple(check_int(name, value, 1) for name, value in sizes.items())
        in_use = tuple(SCHEMES.values()) if scheme is None else (scheme_named(scheme),)
        for each in in_use:
            each.check(*sizes)
        k, seed = check_int("k", k, 1), check_int("seed", seed, 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # one stream and order, with the same redraws, whatever `scheme` is
        keys = {each.keys: _draw_distinct(lambda n: each.draw(rng, n, *sizes), k, each in in_use)
                for each in SCHEMES.values() if each.keys}
        return cls(k, *sizes, seed=seed, **keys)

    @classmethod
    def constant_ring(cls, k: int, *args, **kwargs) -> "KeyRing":
        """All K entries share one key: the no-renewal control experiment.

        The other arguments are generate's.  Key distinctness is
        deliberately waived so the cross-key scoring machinery can run
        unchanged while every template is protected identically.
        """
        one = cls.generate(1, *args, **kwargs)
        k = check_int("k", k, 1)
        return replace(one, k=k, constant=True, **{
            each.keys: np.repeat(getattr(one, each.keys), k, axis=0) for each in SCHEMES.values() if each.keys
        })


def _draw_distinct(draw, k: int, required: bool, max_tries: int = 100) -> np.ndarray:
    """k keys from draw, repeats redrawn; unless required, repeats may stay."""
    out = draw(k)
    for _ in range(max_tries):
        flat = out.reshape(k, -1)
        _, first = np.unique(flat, axis=0, return_index=True)
        if first.size == k:
            return out
        # the keys that repeat an earlier one (np.setdiff1d would import numpy.ma)
        repeats = np.ones(k, dtype=bool)
        repeats[first] = False
        dup = np.flatnonzero(repeats)
        out[dup] = draw(dup.size)
    if not required:
        return out
    raise InvalidConfigError(f"could not draw {k} distinct keys; key space too small")


def _remap_blocks(bits: np.ndarray, perm: np.ndarray, block_size: int) -> np.ndarray:
    """Output block i is input block perm[i]; argsort(perm) undoes it."""
    blocks = bits.reshape(*bits.shape[:-1], -1, block_size)
    # take writes the blocks C-contiguous, so the reshape copies nothing; an
    # index blocks[..., perm, :] leaves them strided and is about 9x slower
    return np.take(blocks, perm, axis=-2).reshape(bits.shape)


def _bloom_dtype(w: int, h: int) -> np.dtype:
    """The least unsigned type that holds 2**h and w + 1.

    2**h bounds a filter's set bits and column values, w + 1 a decoded
    block's columns with its spare.
    """
    return np.min_scalar_type(max(2**h, w + 1))


def _msb_values(bits: np.ndarray, dtype) -> np.ndarray:
    """The last axis of 0/1 bits read as one integer each, most significant bit first."""
    bits = bits.astype(dtype, copy=False)
    h = bits.shape[-1]
    out = bits[..., 0] << (h - 1)
    for j in range(1, h):
        out |= bits[..., j] << (h - 1 - j)
    return out


def _bloom_encode(bits: np.ndarray, key: np.ndarray, w: int, h: int) -> np.ndarray:
    """Keyed column values of each w-column block set bits of a 2**h filter.

    The bits are read as consecutive h-bit columns, w columns per block.
    Each column is XORed with its block's key column and read as an
    integer, most significant bit first; that bit of the block's filter is
    set.  The output concatenates the per-block filters, block 0 first.
    """
    lead = bits.shape[:-1]
    n_blocks = bits.shape[-1] // (w * h)
    dtype = _bloom_dtype(w, h)
    # XOR commutes with reading the bits as an integer
    values = _msb_values(bits.reshape(*lead, n_blocks, w, h), dtype)
    values ^= _msb_values(key, dtype)[:, None]
    filters = np.zeros((*lead, n_blocks << h), dtype=np.uint8)
    # each column sets bit `value` of its block's filter
    starts = np.arange(0, filters.size, 1 << h).reshape(*lead, n_blocks, 1)
    filters.reshape(-1)[(starts + values).reshape(-1)] = 1
    return filters


def _bloom_decode(bits: np.ndarray, key: np.ndarray, w: int, h: int) -> np.ndarray:
    """Approximate Bloom inverse: each block's distinct column values, ascending.

    Set bits name the keyed column values; un-keying is a gather, the rank
    of each value among its filter's set bits is a running count, and the
    first w values land at their ranks.  Original order and multiplicity
    are lost, so a block with fewer than w distinct values is zero-padded.
    Values, counts and slots stay in the least type that holds them.
    """
    lead = bits.shape[:-1]
    n_blocks = key.shape[0]
    dtype = _bloom_dtype(w, h)
    values = np.arange(1 << h, dtype=dtype)
    keyed = values ^ _msb_values(key, dtype)[:, None]
    # present[r, b, v]: un-keyed column value v occurs in block b of row r
    at = ((np.arange(n_blocks)[:, None] << h) + keyed).reshape(-1)
    present = bits.reshape(-1, n_blocks << h).take(at, axis=1).reshape(-1, n_blocks, 1 << h)
    # the rank of each present value, capped at w: column w is a spare that
    # also takes every absent value, whose count of 0 wraps round past w
    slot = np.cumsum(present, axis=-1, dtype=dtype)
    slot *= present
    slot -= 1
    np.minimum(slot, w, out=slot)
    cols = np.zeros((*present.shape[:2], w + 1), dtype=dtype)
    starts = np.arange(0, cols.size, w + 1).reshape(*cols.shape[:2], 1)
    cols.reshape(-1)[(starts + slot).reshape(-1)] = np.broadcast_to(values, slot.shape).reshape(-1)
    col_bits = ((values[:, None] >> np.arange(h - 1, -1, -1, dtype=dtype)) & 1).astype(np.uint8)
    return col_bits.take(cols[..., :w], axis=0).reshape(*lead, -1)


class Scheme:
    """A protection scheme: its keys, its geometry, and its transform and
    inverse over bit arrays of any leading shape (..., L).

    This base is `none`, which has no key and leaves the bits as they are.
    A keyed scheme names the KeyRing field of its keys in `keys`, and
    draw(rng, n, *sizes) draws n of them for generate's four sizes.
    by_popsum: pic_hd divides a distance by the two rows' summed set-bit
    counts, not by the length.  aligned_inverse: the inverse is the
    structurally aligned view that permuted_xor compares.
    approximate_inverse: the inverse loses information, so the score
    engine uses it only when asked to.
    """

    name = SCHEME_NONE
    keys: str | None = None
    by_popsum = aligned_inverse = approximate_inverse = False

    def check(self, template_bits: int, block_size: int, bloom_width: int, bloom_height: int):
        """Raise NotDivisibleError unless the template length fills this scheme's blocks."""

    def protect(self, bits: np.ndarray, ring: KeyRing, key_id: int) -> np.ndarray:
        """Protect raw bits (..., L) under one key of the ring."""
        return bits.copy()

    def invert(self, bits: np.ndarray, ring: KeyRing, key_id: int) -> np.ndarray:
        """Undo protect under full key knowledge: protected (..., L') to raw (..., L)."""
        return bits.copy()

    def relative(self, ring: KeyRing, key_a: int, key_b: int) -> bytes:
        """The key g_a^-1 g_b of two keys of the ring, as bytes.

        Each scheme is a Hamming isometry under its key, so x under key_a and
        y under key_b differ where x under the identity and y under this key
        do.  Here it is the XOR of the two keys: of the masks, or of the
        Bloom keys, which relabel each block's filter bits; `none` has one
        key.  Key pairs with one relative key compare all templates alike.
        """
        if self.keys is None:
            return b""
        keys = getattr(ring, self.keys)
        return (keys[key_a] ^ keys[key_b]).tobytes()


class XorSalt(Scheme):
    name, keys = SCHEME_XOR, "xor_masks"

    def draw(self, rng, n: int, template_bits: int, *_) -> np.ndarray:
        return rng.integers(0, 2, (n, template_bits), dtype=np.uint8)

    def protect(self, bits, ring, key_id):
        """XOR salting; an involution, so it is also the inverse."""
        return bits ^ ring.xor_masks[key_id]

    invert = protect


class BlockRemap(Scheme):
    name, keys, aligned_inverse = SCHEME_BLOCK, "block_perms", True

    def check(self, template_bits, block_size, *_):
        if template_bits % block_size:
            raise NotDivisibleError(
                f"template length {template_bits} is not a multiple of block size {block_size}"
            )

    def draw(self, rng, n: int, template_bits: int, block_size: int, *_) -> np.ndarray:
        return np.array([rng.permutation(template_bits // block_size) for _ in range(n)])

    def protect(self, bits, ring, key_id):
        return _remap_blocks(bits, ring.block_perms[key_id], ring.block_size)

    def invert(self, bits, ring, key_id):
        return _remap_blocks(bits, np.argsort(ring.block_perms[key_id]), ring.block_size)

    def relative(self, ring, key_a, key_b):
        """The block map perm_b[perm_a^-1]."""
        return ring.block_perms[key_b][np.argsort(ring.block_perms[key_a])].tobytes()


class BloomFilter(Scheme):
    name, keys, by_popsum, approximate_inverse = SCHEME_BLOOM, "bloom_keys", True, True

    def check(self, template_bits, _, bloom_width, bloom_height):
        if template_bits % (bloom_width * bloom_height):
            raise NotDivisibleError(
                f"template length {template_bits} is not a multiple of the "
                f"{bloom_width}x{bloom_height} filter block"
            )

    def draw(self, rng, n: int, template_bits: int, _, bloom_width: int, bloom_height: int) -> np.ndarray:
        return rng.integers(0, 2, (n, template_bits // (bloom_width * bloom_height), bloom_height), dtype=np.uint8)

    def protect(self, bits, ring, key_id):
        return _bloom_encode(bits, ring.bloom_keys[key_id], ring.bloom_width, ring.bloom_height)

    def invert(self, bits, ring, key_id):
        return _bloom_decode(bits, ring.bloom_keys[key_id], ring.bloom_width, ring.bloom_height)


# every scheme by name, keyed schemes in the order KeyRing draws their keys
SCHEMES = {each.name: each for each in (XorSalt(), BlockRemap(), BloomFilter(), Scheme())}


def scheme_named(name) -> Scheme:
    """The scheme called name; an unknown name, or one that is no string, is a config error."""
    if isinstance(name, str) and name in SCHEMES:
        return SCHEMES[name]
    raise InvalidConfigError(f"unknown scheme {name!r}")


@dataclass(frozen=True)
class ProtectedDatabase:
    """One corpus protected under one key, indexed [subject, sample, bit]."""

    bits: np.ndarray
    key_id: int
    scheme: str
    raw_bits: int

    def __post_init__(self):
        self.bits.setflags(write=False)


def protected_databases(corpus: RawCorpus, ring: KeyRing, scheme: str) -> Iterator[ProtectedDatabase]:
    """One protected database per key in the ring, key 0 first, each protected as it is taken.

    The scheme and the ring's length are checked at once.  The iterator
    holds the corpus until it is exhausted, and no database it has yielded,
    so a consumer that drops each database before taking the next holds
    the corpus and one database at a time.
    """
    protection = scheme_named(scheme)
    if ring.template_bits != corpus.config.template_bits:
        raise LengthMismatchError(
            f"ring built for {ring.template_bits}-bit templates, corpus has {corpus.config.template_bits}"
        )
    return (ProtectedDatabase(bits=protection.protect(corpus.bits, ring, key_id), key_id=key_id, scheme=scheme,
                              raw_bits=ring.template_bits) for key_id in range(ring.k))


def generate_databases(corpus: RawCorpus, ring: KeyRing, scheme: str) -> list[ProtectedDatabase]:
    """One protected database per key in the ring: protected_databases, all held at once."""
    return list(protected_databases(corpus, ring, scheme))
