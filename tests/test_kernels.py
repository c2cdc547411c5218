import numpy as np
import pytest

from unlinkeval import kernels


def _random_bits(rng, rows, bits):
    return (rng.random((rows, bits)) < 0.5).astype(np.uint8)


@pytest.mark.parametrize("bits", [1, 63, 64, 65, 128, 1000, 4096])
def test_pack_unpack_round_trip(rng, bits):
    bits_arr = _random_bits(rng, 7, bits)
    packed = kernels.pack_rows(bits_arr)
    assert packed.dtype == np.uint64
    assert packed.shape[0] == 7
    back = kernels.unpack_rows(packed, bits)
    assert np.array_equal(back, bits_arr)


def test_popcount_matches_bit_sum(rng):
    bits_arr = _random_bits(rng, 20, 300)
    packed = kernels.pack_rows(bits_arr)
    assert np.array_equal(kernels.popcount_rows(packed), bits_arr.sum(axis=1))


def test_hamming_matches_xor_sum(rng):
    a = _random_bits(rng, 50, 777)
    b = _random_bits(rng, 50, 777)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    expected = (a != b).sum(axis=1)
    rows = np.arange(50)
    assert np.array_equal(kernels.hamming_rows(pa, pb, rows, rows), expected)


def test_hamming_gathers_permuted_and_repeated_rows(rng, monkeypatch):
    a = _random_bits(rng, 9, 200)
    b = _random_bits(rng, 6, 200)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    rows_a = np.array([8, 0, 8, 3, 3, 5, 1, 0, 7, 2, 8])
    rows_b = np.array([0, 5, 5, 2, 4, 0, 1, 3, 5, 5, 2])
    expected = [(a[i] != b[j]).sum() for i, j in zip(rows_a, rows_b)]
    assert np.array_equal(kernels.hamming_rows(pa, pb, rows_a, rows_b), expected)
    # chunk boundaries fall inside the gathered rows
    monkeypatch.setattr(kernels, "_CHUNK", 4)
    assert np.array_equal(kernels.hamming_rows(pa, pb, rows_a, rows_b), expected)


@pytest.mark.parametrize("n_rows", [0, 1, 4, 5, 8, 9, 23])
def test_hamming_rows_across_chunks(rng, monkeypatch, n_rows):
    """Chunks of four rows: none, part of one, exactly full, and crossing boundaries,
    with and without a reused output buffer."""
    monkeypatch.setattr(kernels, "_CHUNK", 4)
    a, b = _random_bits(rng, 6, 130), _random_bits(rng, 5, 130)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    rows_a, rows_b = rng.integers(0, 6, n_rows), rng.integers(0, 5, n_rows)
    expected = (a[rows_a] != b[rows_b]).sum(axis=1)
    dist = kernels.hamming_rows(pa, pb, rows_a, rows_b)
    assert dist.dtype == np.int64 and np.array_equal(dist, expected)
    buf = np.full(30, -1, dtype=np.int64)
    dist = kernels.hamming_rows(pa, pb, rows_a, rows_b, out=buf)
    assert np.array_equal(dist, expected) and np.array_equal(buf[:n_rows], expected)
    assert (buf[n_rows:] == -1).all()


def test_hamming_rows_refuses_rows_out_of_range(rng):
    a = kernels.pack_rows(_random_bits(rng, 3, 64))
    # negative rows count from the end, as in indexing
    assert kernels.hamming_rows(a, a, [-1, -3], [2, 0]).tolist() == [0, 0]
    for bad in ([3], [-4]):
        with pytest.raises(IndexError):
            kernels.hamming_rows(a, a, bad, [0])
        with pytest.raises(IndexError):
            kernels.hamming_rows(a, a, [0], bad)


def test_hamming_shape_mismatch(rng):
    a = kernels.pack_rows(_random_bits(rng, 3, 64))
    b = kernels.pack_rows(_random_bits(rng, 3, 128))
    rows = np.arange(3)
    with pytest.raises(ValueError):
        kernels.hamming_rows(a, b, rows, rows)
    with pytest.raises(ValueError):
        kernels.hamming_rows(a, a, rows, rows[:2])


def test_fallback_agrees_with_numpy_oracle(rng):
    a = _random_bits(rng, 33, 4096)
    b = _random_bits(rng, 33, 4096)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    rows = np.arange(33)
    assert np.array_equal(kernels.hamming_rows(pa, pb, rows, rows), (a != b).sum(axis=1))
    assert np.array_equal(kernels.popcount_rows(pa), a.sum(axis=1))


def test_all_ones_and_all_zeros():
    ones = np.ones((2, 192), dtype=np.uint8)
    zeros = np.zeros((2, 192), dtype=np.uint8)
    po, pz = kernels.pack_rows(ones), kernels.pack_rows(zeros)
    assert list(kernels.popcount_rows(po)) == [192, 192]
    assert list(kernels.popcount_rows(pz)) == [0, 0]
    assert list(kernels.hamming_rows(po, pz, [0, 1], [1, 0])) == [192, 192]


def _as_float32(packed, bits):
    return kernels.unpack_rows(packed, bits).astype(np.float32)


def _xor_popcount(a_bits, b_bits):
    return (a_bits[:, None, :] != b_bits[None, :, :]).sum(axis=2)


@pytest.mark.parametrize("bits", [1, 63, 65, 1000])
@pytest.mark.parametrize("rows_a,rows_b", [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (9, 13)])
def test_gemm_matches_xor_popcount(rng, bits, rows_a, rows_b):
    a, b = _random_bits(rng, rows_a, bits), _random_bits(rng, rows_b, bits)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    fa, fb = _as_float32(pa, bits), _as_float32(pb, bits)
    assert fa.dtype == np.float32 and np.array_equal(fa, a)
    dist = kernels.hamming_gemm(fa, fb, kernels.popcount_rows(pa), kernels.popcount_rows(pb))
    # float32 integers, exact below 2**24 bits
    assert dist.dtype == np.float32 and dist.shape == (rows_a, rows_b)
    assert np.array_equal(dist, _xor_popcount(a, b))


def test_gemm_into_oversized_reused_buffer(rng):
    """Each call writes the head of the buffer; nothing of an earlier call shows."""
    buf = np.full(200, np.nan, dtype=np.float32)
    for rows_a, rows_b, bits in [(9, 13, 65), (5, 3, 1000), (1, 7, 63), (0, 4, 65)]:
        a, b = _random_bits(rng, rows_a, bits), _random_bits(rng, rows_b, bits)
        pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
        dist = kernels.hamming_gemm(_as_float32(pa, bits), _as_float32(pb, bits),
                                    kernels.popcount_rows(pa), kernels.popcount_rows(pb), out=buf)
        assert dist.shape == (rows_a, rows_b) and np.array_equal(dist, _xor_popcount(a, b))
        assert np.array_equal(buf[: rows_a * rows_b], dist.reshape(-1))


def test_gemm_extremes():
    bits = 4096
    rows = np.stack([np.zeros(bits, np.uint8), np.ones(bits, np.uint8)])
    packed = kernels.pack_rows(rows)
    dist = kernels.hamming_gemm(_as_float32(packed, bits), _as_float32(packed, bits),
                                kernels.popcount_rows(packed), kernels.popcount_rows(packed))
    assert dist.tolist() == [[0, bits], [bits, 0]]


def test_gemm_refuses_lengths_float32_cannot_hold():
    wide = np.zeros((0, 1 << 24), dtype=np.float32)
    with pytest.raises(ValueError, match="2\\*\\*24"):
        kernels.hamming_gemm(wide, wide, np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("tile_rows", [1, 2, 5, 128])
@pytest.mark.parametrize("n_groups,group", [(1, 1), (2, 1), (7, 1), (7, 3), (300, 1), (40, 4)])
def test_triangle_tiles_cover_every_group_pair_once(monkeypatch, rng, tile_rows, n_groups, group):
    """Upper-triangle tiles, with their diagonal squares masked, give every i < j pair once."""
    monkeypatch.setattr(kernels, "TILE_ROWS", tile_rows)
    bits = 70
    a, b = _random_bits(rng, n_groups * group, bits), _random_bits(rng, n_groups * group, bits)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    fa, fb = _as_float32(pa, bits), _as_float32(pb, bits)
    wa, wb = kernels.popcount_rows(pa), kernels.popcount_rows(pb)
    full = _xor_popcount(a, b)
    subject = np.arange(n_groups * group) // group
    seen = np.zeros(full.shape, dtype=np.int64)
    tiles = kernels.triangle_tiles(n_groups, group)
    assert [lo for lo, _ in tiles] == sorted({lo for lo, _ in tiles})
    assert tiles[0][0] == 0 and tiles[-1][1] == n_groups
    for lo, hi in tiles:
        assert hi - lo <= max(1, tile_rows // group)
        r, c = slice(lo * group, hi * group), slice(lo * group, None)
        dist = kernels.hamming_gemm(fa[r], fb[c], wa[r], wb[c])
        assert np.array_equal(dist, full[r, c])
        seen[r, c] += subject[r, None] < subject[None, c]
    assert np.array_equal(seen, subject[:, None] < subject[None, :])
