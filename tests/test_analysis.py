import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from pytest import approx

from conftest import naive_median_3x3, pixel_error_bit_pmf, random_image
from permbreak.analysis import (
    bit_histogram,
    compare_images,
    demonstrate_equivalent_key,
    difference_histogram,
    median_filter_3x3,
    perm_accuracy,
)
from permbreak.cipher import PermutationMap, ShapeError, encrypt, expand_to_bits, pack_to_image
from permbreak.keystream import Key, random_key
from permbreak.recovery import error_bit_pmf, predicted_bit_accuracy

REFERENCE_KEY = Key(0.2009, 3.98, 20, 51, 4)

images_6x6 = arrays(dtype=np.uint8, shape=(6, 6), elements=st.integers(0, 255))
images_up_to_8x8 = arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.integers(0, 255),
)


class TestCompareImages:
    def test_identical_images_score_perfectly(self):
        img = random_image(np.random.default_rng(0), 5, 7)
        summary, histogram = compare_images(img, img)
        assert summary.bit_accuracy == 1.0
        assert summary.pixel_accuracy == 1.0
        assert summary.one_bit_error_fraction == 0.0
        assert histogram.tolist() == [35] + [0] * 8

    def test_single_flipped_bit(self):
        original = random_image(np.random.default_rng(1), 4, 4)
        recovered = original.copy()
        recovered[2, 3] ^= 1
        summary, histogram = compare_images(recovered, original)
        assert summary.pixel_accuracy == approx(1.0 - 1.0 / 16)
        assert summary.one_bit_error_fraction == 1.0
        assert summary.bit_accuracy == approx(1.0 - 1.0 / 128)
        assert histogram[1] == 1

    def test_histogram_counts_sum_to_pixel_count(self):
        rng = np.random.default_rng(2)
        a, b = random_image(rng, 9, 11), random_image(rng, 9, 11)
        _, histogram = compare_images(a, b)
        assert histogram.sum() == 99

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            compare_images(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_error_bit_histogram_matches_binomial_sampling_oracle(self):
        # synthesize a "recovered" image by flipping each bit independently
        # with probability 1 - p_b, then check the per-pixel error-bit counts
        # against the binomial model, bin by bin, within 3 sigma
        rng = np.random.default_rng(3)
        pb = predicted_bit_accuracy(16, 16, 12)
        height, width = 128, 128
        original = random_image(rng, height, width)
        flips = (rng.random((height, 8 * width)) < 1.0 - pb).astype(np.uint8)
        recovered = pack_to_image(expand_to_bits(original) ^ flips)
        _, histogram = compare_images(recovered, original)
        pixels = height * width
        expected = pixels * error_bit_pmf(16, 16, 12)
        sigma = np.sqrt(expected * (1.0 - expected / pixels))
        assert np.all(np.abs(histogram - expected) <= 3.0 * sigma + 1e-9)


class TestPixelErrorBitOracle:
    def test_every_bit_in_place_is_never_wrong(self):
        sigma = list(range(16))
        assert pixel_error_bit_pmf(sigma, range(8, 16)) == [1.0] + [0.0] * 8

    def test_two_bits_swapped_give_zero_or_two_errors(self):
        sigma = list(range(8))
        sigma[2], sigma[5] = 5, 2
        assert pixel_error_bit_pmf(sigma, range(8)) == approx([0.5, 0, 0.5, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_enumeration_of_every_held_out_image(self, seed):
        # two pixels, 16 bit positions: enumerate all 2**16 held-out bit
        # patterns, read h[sigma[q]] into q and count wrong bits per pixel
        if seed == 0:  # cycles inside each pixel and cycles across both
            sigma = np.array([1, 2, 0, 4, 3, 5, 8, 9, 6, 10, 7, 12, 11, 14, 15, 13])
        else:
            sigma = np.random.default_rng(seed).permutation(16)
        held = (np.arange(2**16)[:, None] >> np.arange(16)) & 1
        wrong = held != held[:, sigma]
        for first in (0, 8):
            counts = wrong[:, first : first + 8].sum(axis=1)
            enumerated = np.bincount(counts, minlength=9) / 2**16
            oracle = pixel_error_bit_pmf(sigma, range(first, first + 8))
            assert oracle == approx(enumerated.tolist(), abs=1e-12)


class TestPermAccuracy:
    def test_equal_maps(self):
        pmap = PermutationMap(2, 8, np.arange(16, dtype=np.int64))
        assert perm_accuracy(pmap, pmap) == 1.0

    def test_two_disjoint_swaps_miss_four_positions(self):
        identity = PermutationMap(1, 8, np.arange(8, dtype=np.int64))
        swapped = np.arange(8, dtype=np.int64)
        swapped[[0, 1]] = swapped[[1, 0]]
        swapped[[2, 3]] = swapped[[3, 2]]
        estimate = PermutationMap(1, 8, swapped)
        agreement = estimate.target == identity.target
        assert not agreement[:4].any()
        assert perm_accuracy(estimate, identity) == approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            perm_accuracy(
                PermutationMap(1, 8, np.arange(8, dtype=np.int64)),
                PermutationMap(2, 8, np.arange(16, dtype=np.int64)),
            )


class TestDifferenceHistogram:
    def test_identical_images_pile_at_zero(self):
        img = random_image(np.random.default_rng(4), 6, 6)
        hist = difference_histogram(img, img)
        assert hist[255] == 36
        assert hist.sum() == 36

    def test_extreme_difference(self):
        zeros = np.zeros((3, 3), dtype=np.uint8)
        full = np.full((3, 3), 255, dtype=np.uint8)
        hist = difference_histogram(full, zeros)
        assert hist[510] == 9
        assert hist.sum() == 9

    @given(a=images_6x6, b=images_6x6)
    def test_swapping_arguments_mirrors_bins(self, a, b):
        assert np.array_equal(difference_histogram(a, b), difference_histogram(b, a)[::-1])


class TestMedianFilter:
    def test_constant_image_unchanged(self):
        img = np.full((5, 5), 77, dtype=np.uint8)
        assert np.array_equal(median_filter_3x3(img), img)

    def test_isolated_speck_removed(self):
        img = np.full((5, 5), 10, dtype=np.uint8)
        img[2, 2] = 250
        assert np.array_equal(median_filter_3x3(img), np.full((5, 5), 10, dtype=np.uint8))

    def test_center_of_1_to_9_is_5(self):
        img = np.arange(1, 10, dtype=np.uint8).reshape(3, 3)
        assert median_filter_3x3(img)[1, 1] == 5

    @given(images_6x6)
    def test_output_stays_uint8_in_range(self, img):
        out = median_filter_3x3(img)
        assert out.dtype == np.uint8
        assert out.shape == img.shape

    @given(images_up_to_8x8)
    @example(np.array([[9]], dtype=np.uint8))
    @example(np.array([[5, 200, 3, 90, 90, 0, 255, 17]], dtype=np.uint8))
    @example(np.array([[5, 200, 3, 90, 90, 0, 255, 17]], dtype=np.uint8).T)
    def test_matches_naive_median(self, img):
        assert np.array_equal(median_filter_3x3(img), naive_median_3x3(img))


class TestBitHistogram:
    def test_all_zero_image(self):
        assert bit_histogram(np.zeros((4, 4), dtype=np.uint8)) == (128, 0)

    def test_saturated_image(self):
        assert bit_histogram(np.full((4, 4), 255, dtype=np.uint8)) == (0, 128)

    def test_invariant_under_encryption(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            key = random_key(rng)
            img = random_image(rng, 8, 8)
            assert bit_histogram(img) == bit_histogram(encrypt(img, key))


class TestEquivalentKey:
    def test_holds_for_random_valid_keys(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            assert demonstrate_equivalent_key(random_key(rng), rng)

    def test_holds_for_reference_key(self):
        assert demonstrate_equivalent_key(REFERENCE_KEY)

    def test_different_mu_is_a_different_cipher(self):
        # sanity probe, deterministic seed: unrelated keys should not agree
        probe = random_image(np.random.default_rng(7), 8, 8)
        other = Key(0.2009, 3.97, 20, 51, 4)
        assert not np.array_equal(encrypt(probe, REFERENCE_KEY), encrypt(probe, other))
