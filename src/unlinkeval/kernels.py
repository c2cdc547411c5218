"""Bit kernels: row-wise popcount and Hamming distance over packed templates.

These are the hot loops of the whole package.  Inputs are uint64 matrices
of packed template bits, one row per template (hamming_cross reads them
word-major).  Work is chunked so peak temporary memory stays bounded.

The loops write into buffers allocated once per call, or given by the
caller and reused across calls, not into fresh temporaries per chunk or
tile.  glibc serves a block above its dynamic mmap threshold (128 kB,
raised to the largest mapped block freed so far, up to 32 MB) with a
fresh mapping whose every page faults on first touch, so a loop that
allocates its temporaries afresh runs at a speed set by whatever the
process freed before it.

Large all-pairs blocks go through a float32 matrix product instead
(GEMM_MIN_WORDS): for 0/1 bits
HD(x, y) = w_x + w_y - 2 x.y, where w is the set-bit count.  Every product
and partial sum of x.y is an integer of at most L, 2 x.y is exact as a
doubling, and w_x - 2 x.y and the distance itself lie in [-L, L], so every
step is exact in float32 while the template length L is below 2**24.
"""

from __future__ import annotations

import math

import numpy as np

# There is no compiled variant; the constant stays because run stamps
# (perfbench/worker.py) record it.
USING_EXTENSION = False

# rows per popcount chunk; 2**14 rows x 64 words x 8 B = 8 MiB
_CHUNK = 1 << 14

# words per XOR chunk of hamming_cross: 512 KiB, and 64 KiB of popcounts
_CROSS_WORDS = 1 << 16

# rows of the first operand per matrix-product tile: a 128 x 450 block of
# float32 distances is 230 kB and stays in cache through the conversion
# to integers and the bincount that follow
TILE_ROWS = 128

# float32 integers are exact up to 2**24
_GEMM_MAX_LENGTH = 1 << 24

# Below this many 64-bit words of XOR-popcount work, all-pairs blocks are
# better XORed by hamming_cross than multiplied: OpenBLAS worker threads
# spin-wait for up to about 0.1 s after every product, and on small blocks
# that costs more CPU time than the product saves.
GEMM_MIN_WORDS = 1 << 22


def popcount_rows(a: np.ndarray) -> np.ndarray:
    """Set-bit count of each row of a packed uint64 matrix, shape (n,)."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    out = np.empty(a.shape[0], dtype=np.int64)
    for lo in range(0, a.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, a.shape[0])
        out[lo:hi] = np.bitwise_count(a[lo:hi]).sum(axis=1, dtype=np.int64)
    return out


def hamming_cross(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Hamming distance of every row of a with every row of b in its batch.

    a (W, ..., m) and b (W, ..., n) hold packed rows word-major: a[:, i, r]
    is row r of batch i, W words.  The result, of shape (..., m, n), is in
    the least unsigned type that holds 64 W, and out, a vector of that
    type, holds it when given.  Chunks of about _CROSS_WORDS words are
    XORed by broadcasting, and their popcounts summed by one vector add
    per word, the outermost axis.
    """
    if a.shape[:-1] != b.shape[:-1]:
        raise ValueError(f"batch or word shape mismatch: {a.shape} vs {b.shape}")
    words, batches, m, n = a.shape[0], math.prod(a.shape[1:-1]), a.shape[-1], b.shape[-1]
    x, y = a.reshape(words, batches, m), b.reshape(words, batches, n)
    dtype = np.min_scalar_type(64 * words)
    size = batches * m * n
    dist = (np.empty(size, dtype=dtype) if out is None else out[:size]).reshape(batches, m, n)
    # rows of a per chunk, and whole batches per chunk when a batch fits
    rows = max(1, min(m, _CROSS_WORDS // max(1, words * n)))
    span = max(1, min(batches, _CROSS_WORDS // max(1, words * m * n))) if rows >= m else 1
    xor = np.empty(words * span * rows * n, dtype=np.uint64)
    counts = np.empty(xor.size, dtype=np.uint8)
    for lo in range(0, batches, span):
        for r in range(0, m, rows):
            xa, yb = x[:, lo : lo + span, r : r + rows, None], y[:, lo : lo + span, None, :]
            shape = (words, xa.shape[1], xa.shape[2], n)
            t, c = xor[: math.prod(shape)].reshape(shape), counts[: math.prod(shape)].reshape(shape)
            np.bitwise_xor(xa, yb, out=t)
            np.bitwise_count(t, out=c)
            # summed over the outermost axis, one vector add per word
            c.sum(axis=0, dtype=dtype, out=dist[lo : lo + span, r : r + rows])
    return dist.reshape(*a.shape[1:-1], m, n)


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


def hamming_gemm(a: np.ndarray, b: np.ndarray, wa: np.ndarray, wb: np.ndarray, out=None) -> np.ndarray:
    """Hamming distance of every row of a with every row of b, shape (len(a), len(b)).

    a and b are unpacked 0/1 bits as float32, wa and wb their rows' set-bit
    counts.  One float32 matrix product, exact while the row length is
    below 2**24; the distances come back as float32 integers.  out, a
    float32 vector of at least len(a) * len(b) elements, holds them when
    given: the result is a view of its head.
    """
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"row shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[1] >= _GEMM_MAX_LENGTH:
        raise ValueError(f"rows of {a.shape[1]} bits; float32 distances are exact below 2**24")
    size = len(a) * len(b)
    dist = np.empty(size, dtype=np.float32) if out is None else out[:size]
    dist = dist.reshape(len(a), len(b))
    np.matmul(a, b.T, out=dist)
    dist *= -2.0
    dist += np.asarray(wa, dtype=np.float32)[:, None]
    dist += np.asarray(wb, dtype=np.float32)[None, :]
    return dist


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
