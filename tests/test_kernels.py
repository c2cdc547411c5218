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
    assert np.array_equal(kernels.hamming_rows(pa, pb), expected)


def test_hamming_shape_mismatch(rng):
    a = kernels.pack_rows(_random_bits(rng, 3, 64))
    b = kernels.pack_rows(_random_bits(rng, 3, 128))
    with pytest.raises(ValueError):
        kernels.hamming_rows(a, b)


def test_fallback_agrees_with_numpy_oracle(rng):
    a = _random_bits(rng, 33, 4096)
    b = _random_bits(rng, 33, 4096)
    pa, pb = kernels.pack_rows(a), kernels.pack_rows(b)
    assert np.array_equal(kernels.hamming_rows(pa, pb), (a != b).sum(axis=1))
    assert np.array_equal(kernels.popcount_rows(pa), a.sum(axis=1))


def test_all_ones_and_all_zeros():
    ones = np.ones((2, 192), dtype=np.uint8)
    zeros = np.zeros((2, 192), dtype=np.uint8)
    po, pz = kernels.pack_rows(ones), kernels.pack_rows(zeros)
    assert list(kernels.popcount_rows(po)) == [192, 192]
    assert list(kernels.popcount_rows(pz)) == [0, 0]
    assert list(kernels.hamming_rows(po, pz)) == [192, 192]
