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


def _word_major(packed):
    """Packed rows (..., m, W) as hamming_cross reads them: (W, ..., m)."""
    return np.ascontiguousarray(np.moveaxis(packed, -1, 0))


def _cross(a, b, out=None):
    """Every row of word-major a (W, ..., m) against every row of b (W, ..., n): (..., m, n)."""
    return kernels.hamming_cross(a[..., :, None], b[..., None, :], out)


def _xor_popcount(a_bits, b_bits):
    return (a_bits[:, None, :] != b_bits[None, :, :]).sum(axis=2)


def test_cross_matches_xor_sum(rng):
    a, b = _random_bits(rng, 50, 777), _random_bits(rng, 30, 777)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    dist = _cross(_word_major(pa), _word_major(pb))
    assert dist.shape == (50, 30) and np.array_equal(dist, _xor_popcount(a, b))


@pytest.mark.parametrize("cross_words", [1, 7, 40, 1 << 17])
@pytest.mark.parametrize("batches,m,n", [(1, 0, 3), (1, 5, 1), (1, 9, 13), (4, 3, 3), (7, 4, 5), (2, 3, 0),
                                       (0, 2, 2)])
def test_cross_across_chunks(rng, monkeypatch, cross_words, batches, m, n):
    """Chunks of one row, of a few rows, of whole batches, and one chunk for
    all, with and without a reused output buffer."""
    monkeypatch.setattr(kernels, "_CROSS_WORDS", cross_words)
    a, b = _random_bits(rng, batches * m, 130), _random_bits(rng, batches * n, 130)
    # three words of at most 192 set bits: the distances fit uint8
    pa = kernels.pack_rows(a).reshape(batches, m, 3)
    pb = kernels.pack_rows(b).reshape(batches, n, 3)
    expected = np.array([_xor_popcount(x, y) for x, y in zip(a.reshape(batches, m, 130),
                                                              b.reshape(batches, n, 130))])
    dist = _cross(_word_major(pa), _word_major(pb))
    assert dist.dtype == np.uint8 and dist.shape == (batches, m, n)
    assert np.array_equal(dist, expected.reshape(batches, m, n))
    buf = np.full(200, 255, dtype=np.uint8)
    dist = _cross(_word_major(pa), _word_major(pb), out=buf)
    assert np.array_equal(dist, expected.reshape(batches, m, n))
    assert np.array_equal(buf[: dist.size], dist.reshape(-1)) and (buf[dist.size :] == 255).all()


def test_cross_shape_mismatch(rng):
    a = _word_major(kernels.pack_rows(_random_bits(rng, 3, 64)))
    b = _word_major(kernels.pack_rows(_random_bits(rng, 3, 128)))
    with pytest.raises(ValueError):
        kernels.hamming_cross(a, b)
    # shapes that do not broadcast, a missing axis, and no axis past the words
    with pytest.raises(ValueError):
        kernels.hamming_cross(a.reshape(1, 3, 1), a[:, :2].reshape(1, 2, 1))
    with pytest.raises(ValueError):
        kernels.hamming_cross(a, a.reshape(1, 1, 3))
    with pytest.raises(ValueError):
        kernels.hamming_cross(a[:, 0], a[:, 1])


@pytest.mark.parametrize("cross_words", [1, 40, 1 << 16])
def test_cross_sample_pairs_of_each_subject(rng, monkeypatch, cross_words):
    """(W, S, n) rows broadcast over sample pairs compare every sample pair
    of each subject, subjects innermost."""
    monkeypatch.setattr(kernels, "_CROSS_WORDS", cross_words)
    samples, n, bits = 3, 7, 130
    a, b = _random_bits(rng, n * samples, bits), _random_bits(rng, n * samples, bits)
    wa, wb = (_word_major(kernels.pack_rows(x).reshape(n, samples, -1).transpose(1, 0, 2)) for x in (a, b))
    dist = kernels.hamming_cross(wa[:, :, None], wb[:, None])
    expected = np.array([_xor_popcount(x, y) for x, y in zip(a.reshape(n, samples, bits),
                                                              b.reshape(n, samples, bits))])
    assert dist.shape == (samples, samples, n)
    assert np.array_equal(dist, expected.transpose(1, 2, 0))


def test_fallback_agrees_with_numpy_oracle(rng):
    a = _random_bits(rng, 33, 4096)
    b = _random_bits(rng, 33, 4096)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    dist = _cross(_word_major(pa), _word_major(pb))
    assert np.array_equal(np.diagonal(dist), (a != b).sum(axis=1))
    assert np.array_equal(kernels.popcount_rows(pa), a.sum(axis=1))


@pytest.mark.parametrize("bits,kind", [(192, np.uint8), (256, np.uint16), (64 * 1023, np.uint16),
                                       (64 * 1024, np.uint32)])
def test_all_ones_and_all_zeros(bits, kind):
    """The distance type holds the longest distance of its rows."""
    ones = np.ones((2, bits), dtype=np.uint8)
    zeros = np.zeros((2, bits), dtype=np.uint8)
    po, pz = kernels.pack_rows(ones), kernels.pack_rows(zeros)
    assert list(kernels.popcount_rows(po)) == [bits, bits]
    assert list(kernels.popcount_rows(pz)) == [0, 0]
    dist = _cross(_word_major(po), _word_major(pz))
    assert dist.dtype == kind and dist.tolist() == [[bits, bits], [bits, bits]]


@pytest.mark.parametrize("bits", [1, 63, 65, 1000])
@pytest.mark.parametrize("rows_a,rows_b", [(0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (9, 13)])
def test_cross_matches_xor_popcount(rng, bits, rows_a, rows_b):
    a, b = _random_bits(rng, rows_a, bits), _random_bits(rng, rows_b, bits)
    dist = _cross(_word_major(kernels.pack_rows(a)), _word_major(kernels.pack_rows(b)))
    assert dist.shape == (rows_a, rows_b)
    assert np.array_equal(dist, _xor_popcount(a, b))


def test_cross_into_oversized_reused_buffer(rng):
    """Each call writes the head of the buffer; nothing of an earlier call shows."""
    buf = np.full(200, 255, dtype=np.uint16)
    for rows_a, rows_b, bits in [(9, 13, 65), (5, 3, 1000), (1, 7, 63), (0, 4, 65)]:
        a, b = _random_bits(rng, rows_a, bits), _random_bits(rng, rows_b, bits)
        dist = _cross(_word_major(kernels.pack_rows(a)), _word_major(kernels.pack_rows(b)), out=buf)
        assert dist.shape == (rows_a, rows_b) and np.array_equal(dist, _xor_popcount(a, b))
        assert np.array_equal(buf[: rows_a * rows_b], dist.reshape(-1))


def test_cross_extremes():
    bits = 4096
    packed = _word_major(kernels.pack_rows(np.stack([np.zeros(bits, np.uint8), np.ones(bits, np.uint8)])))
    assert _cross(packed, packed).tolist() == [[0, bits], [bits, 0]]


@pytest.mark.parametrize("tile_rows", [1, 2, 5, 128])
@pytest.mark.parametrize("n_groups,group", [(1, 1), (2, 1), (7, 1), (7, 3), (300, 1), (40, 4)])
def test_triangle_tiles_cover_every_group_pair_once(monkeypatch, rng, tile_rows, n_groups, group):
    """Upper-triangle tiles, with their diagonal squares masked, give every i < j pair once."""
    monkeypatch.setattr(kernels, "TILE_ROWS", tile_rows)
    bits = 70
    a, b = _random_bits(rng, n_groups * group, bits), _random_bits(rng, n_groups * group, bits)
    wa, wb = _word_major(kernels.pack_rows(a)), _word_major(kernels.pack_rows(b))
    full = _xor_popcount(a, b)
    subject = np.arange(n_groups * group) // group
    seen = np.zeros(full.shape, dtype=np.int64)
    tiles = kernels.triangle_tiles(n_groups, group)
    assert [lo for lo, _ in tiles] == sorted({lo for lo, _ in tiles})
    assert tiles[0][0] == 0 and tiles[-1][1] == n_groups
    for lo, hi in tiles:
        assert hi - lo <= max(1, tile_rows // group)
        r, c = slice(lo * group, hi * group), slice(lo * group, None)
        dist = kernels.hamming_cross(wa[:, r, None], wb[:, None, c])
        assert np.array_equal(dist, full[r, c])
        seen[r, c] += subject[r, None] < subject[None, c]
    assert np.array_equal(seen, subject[:, None] < subject[None, :])
