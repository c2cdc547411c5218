"""Bit kernels: row-wise popcount and Hamming distance over packed templates.

These are the hot loops of the whole package.  Inputs are C-contiguous
uint64 matrices of packed template bits, one row per template.  Work is
chunked so peak temporary memory stays bounded for large batches.
"""

from __future__ import annotations

import numpy as np

# There is no compiled variant; the constant stays because run stamps
# (perfbench/worker.py) record it.
USING_EXTENSION = False

# rows per chunk; 2**14 rows x 64 words x 8 B = 8 MiB of temporaries
_CHUNK = 1 << 14


def popcount_rows(a: np.ndarray) -> np.ndarray:
    """Set-bit count of each row of a packed uint64 matrix, shape (n,)."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    out = np.empty(a.shape[0], dtype=np.int64)
    for lo in range(0, a.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, a.shape[0])
        out[lo:hi] = np.bitwise_count(a[lo:hi]).sum(axis=1, dtype=np.int64)
    return out


def hamming_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distance between equally shaped packed matrices."""
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = np.empty(a.shape[0], dtype=np.int64)
    for lo in range(0, a.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, a.shape[0])
        out[lo:hi] = np.bitwise_count(a[lo:hi] ^ b[lo:hi]).sum(axis=1, dtype=np.int64)
    return out


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
    return packed.view(np.uint64).reshape(n, -1)


def unpack_rows(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of pack_rows: recover the (n, length) 0/1 uint8 matrix."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :length])
