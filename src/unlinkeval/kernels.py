"""Bit kernels: row-wise popcount and Hamming distance over packed templates.

These are the hot loops of the whole package.  Inputs are uint64 matrices
of packed template bits, one row per template (hamming_cross reads them
word-major).  hamming_cross works in chunks, so its temporaries stay
bounded; popcount_rows's one temporary holds a byte per word, an eighth
of the rows it counts.

The loops write into buffers allocated once per call, or given by the
caller and reused across calls, not into fresh temporaries per chunk or
tile.  glibc serves a block above its dynamic mmap threshold (128 kB,
raised to the largest mapped block freed so far, up to 32 MB) with a
fresh mapping whose every page faults on first touch, so a loop that
allocates its temporaries afresh runs at a speed set by whatever the
process freed before it.

Every distance is an XOR and a popcount of integers, so it is exact at
any template length, on any number of threads.
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled variant; the constant stays because run stamps
# (perfbench/worker.py) record it.
USING_EXTENSION = False

# words per XOR chunk of hamming_cross: 512 KiB, and 64 KiB of popcounts
_CROSS_WORDS = 1 << 16

# rows of the first operand per all-pairs tile: a tile scores its rows
# against every later column, and the pairs of its diagonal square that the
# caller drops shrink with it
TILE_ROWS = 32


def popcount_rows(a: np.ndarray) -> np.ndarray:
    """Set-bit count of each row of a packed uint64 matrix, shape (n,)."""
    return np.bitwise_count(np.ascontiguousarray(a, dtype=np.uint64)).sum(axis=1, dtype=np.int64)


def hamming_cross(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Hamming distance of every pair of rows that broadcasting a against b pairs.

    a and b hold packed rows word-major, (W, ...): a[:, i] is row i, W
    words.  Both have the same number of axes, and their shapes past the
    word axis broadcast against each other: a[:, :, None] and
    b[:, None, :] compare every row of a with every row of b, and
    a[:, :, None, :] and b[:, None, :, :] of shape (W, S, n) every pair of
    the S samples of each of n subjects.  The result has the broadcast
    shape, in the least unsigned type that holds 64 W, and out, a vector
    of that type, holds it when given.  Chunks of about _CROSS_WORDS
    words, at least one row of the first axis past the words, are XORed by
    broadcasting, and their popcounts summed by one vector add per word,
    the outermost axis.
    """
    if a.shape[0] != b.shape[0] or a.ndim != b.ndim or a.ndim < 2:
        raise ValueError(f"word or axis mismatch: {a.shape} vs {b.shape}")
    words, shape = a.shape[0], np.broadcast_shapes(a.shape[1:], b.shape[1:])
    dtype = np.min_scalar_type(64 * words)
    size = math.prod(shape)
    dist = (np.empty(size, dtype=dtype) if out is None else out[:size]).reshape(shape)
    rows = max(1, min(shape[0], _CROSS_WORDS // max(1, words * math.prod(shape[1:]))))
    xor = np.empty(words * rows * math.prod(shape[1:]), dtype=np.uint64)
    counts = np.empty(xor.size, dtype=np.uint8)
    for lo in range(0, shape[0], rows):
        # an operand that broadcasts along the first axis is taken whole
        xa, yb = (x[:, lo : lo + rows] if x.shape[1] > 1 else x for x in (a, b))
        chunk = (words, *dist[lo : lo + rows].shape)
        t, c = xor[: math.prod(chunk)].reshape(chunk), counts[: math.prod(chunk)].reshape(chunk)
        np.bitwise_xor(xa, yb, out=t)
        np.bitwise_count(t, out=c)
        # summed over the outermost axis, one vector add per word
        c.sum(axis=0, dtype=dtype, out=dist[lo : lo + rows])
    return dist


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (n, L) 0/1 uint8 matrix into a (n, ceil(L/64)) uint64 matrix.

    Bit j of a row lands in word j//64; rows are zero-padded to a multiple
    of 64 bits, which is harmless for XOR and popcount.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim == 1:
        bits = bits[None, :]
    n, length = bits.shape
    pad = (-length) % 64
    if pad:
        bits = np.pad(bits, ((0, 0), (0, pad)))
    packed = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(n, (length + pad) // 64)


def unpack_rows(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of pack_rows: recover the (n, length) 0/1 uint8 matrix."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :length])


def triangle_tiles(n_groups: int, group: int = 1) -> list:
    """Row tiles (lo, hi) over n_groups groups of `group` rows each.

    Tile (lo, hi) pairs groups lo..hi-1 of one side with groups lo.. of
    the other, so the tiles together cover every pair of groups i < j
    (and, in their diagonal squares, some with i >= j, which the caller
    drops) while computing little more than that half of the full matrix.
    A tile holds about TILE_ROWS rows.
    """
    step = max(1, TILE_ROWS // group)
    return [(lo, min(lo + step, n_groups)) for lo in range(0, n_groups, step)]
