"""Bit kernels: row-wise popcount and Hamming distance over packed templates.

These are the hot loops of the whole package.  Inputs are C-contiguous
uint64 matrices of packed template bits, one row per template.  Work is
chunked so peak temporary memory stays bounded for large batches.

The loops write into buffers allocated once per call, or given by the
caller and reused across calls, not into fresh temporaries per chunk or
tile.  glibc serves a block above its dynamic mmap threshold (128 kB,
raised to the largest mapped block freed so far, up to 32 MB) with a
fresh mapping whose every page faults on first touch, so a loop that
allocates its temporaries afresh runs at a speed set by whatever the
process freed before it.

All-pairs blocks go through a float32 matrix product instead: for 0/1 bits
HD(x, y) = w_x + w_y - 2 x.y, where w is the set-bit count.  Every product
and partial sum of x.y is an integer of at most L, 2 x.y is exact as a
doubling, and w_x - 2 x.y and the distance itself lie in [-L, L], so every
step is exact in float32 while the template length L is below 2**24.
"""

from __future__ import annotations

import numpy as np

# There is no compiled variant; the constant stays because run stamps
# (perfbench/worker.py) record it.
USING_EXTENSION = False

# rows per chunk; 2**14 rows x 64 words x 8 B = 8 MiB per gathered side
_CHUNK = 1 << 14

# rows of the first operand per matrix-product tile: a 128 x 450 block of
# float32 distances is 230 kB and stays in cache through the conversion
# to integers and the bincount that follow
TILE_ROWS = 128

# float32 integers are exact up to 2**24
_GEMM_MAX_LENGTH = 1 << 24

# Below this many 64-bit words of XOR-popcount work, about 0.07 s of
# gathering on one core, all-pairs blocks are better gathered for
# hamming_rows than multiplied: OpenBLAS worker threads spin-wait for up to
# about 0.1 s after every product, and on small blocks that costs more CPU
# time than the product saves.
GEMM_MIN_WORDS = 1 << 22


def popcount_rows(a: np.ndarray) -> np.ndarray:
    """Set-bit count of each row of a packed uint64 matrix, shape (n,)."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    out = np.empty(a.shape[0], dtype=np.int64)
    for lo in range(0, a.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, a.shape[0])
        out[lo:hi] = np.bitwise_count(a[lo:hi]).sum(axis=1, dtype=np.int64)
    return out


def hamming_rows(a: np.ndarray, b: np.ndarray, rows_a, rows_b, out=None) -> np.ndarray:
    """Hamming distance between rows a[rows_a[i]] and b[rows_b[i]], shape (n,).

    Each chunk of rows is gathered, XORed and popcounted in buffers
    allocated once per call, so temporaries stay bounded however many row
    pairs are asked for.  out, an int64 vector of at least n elements, takes
    the distances when given; its first n elements are returned.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.shape[1:] != b.shape[1:]:
        raise ValueError(f"row shape mismatch: {a.shape} vs {b.shape}")
    if len(rows_a) != len(rows_b):
        raise ValueError(f"{len(rows_a)} rows of a paired with {len(rows_b)} rows of b")
    rows_a, rows_b = _row_index(rows_a, len(a)), _row_index(rows_b, len(b))
    n = rows_a.size
    out = np.empty(n, dtype=np.int64) if out is None else out[:n]
    chunk = (min(_CHUNK, n), a.shape[1])
    gathered_a, gathered_b = np.empty(chunk, dtype=np.uint64), np.empty(chunk, dtype=np.uint64)
    counts = np.empty(chunk, dtype=np.uint8)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        x, y, c = gathered_a[: hi - lo], gathered_b[: hi - lo], counts[: hi - lo]
        # mode "raise" would gather into a fresh buffer; the rows are checked
        np.take(a, rows_a[lo:hi], axis=0, out=x, mode="wrap")
        np.take(b, rows_b[lo:hi], axis=0, out=y, mode="wrap")
        np.bitwise_xor(x, y, out=x)
        np.bitwise_count(x, out=c)
        c.sum(axis=1, dtype=np.int64, out=out[lo:hi])
    return out


def _row_index(rows, n_rows: int) -> np.ndarray:
    """rows as an index array, refused unless every row lies in -n_rows..n_rows-1."""
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < -n_rows or rows.max() >= n_rows):
        raise IndexError(f"row index out of range for {n_rows} rows")
    return rows


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
