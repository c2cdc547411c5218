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
