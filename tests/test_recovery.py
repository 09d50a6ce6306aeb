import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from conftest import intersection_partition, random_image, tree_partition
from permbreak.analysis import perm_accuracy
from permbreak.cipher import (
    PermutationMap,
    ShapeError,
    apply_inverse,
    apply_map,
    compose_permutation,
    encrypt,
    expand_to_bits,
)
from permbreak.keystream import Key, random_key
from permbreak.recovery import (
    InconsistentPair,
    RecoveryTree,
    attack,
    chosen_plaintext_count,
    construct_chosen_plaintexts,
    error_bit_pmf,
    expected_recovery_fraction,
    min_known_plaintexts,
    predicted_bit_accuracy,
    recovery_probability,
)

REFERENCE_KEY = Key(0.2009, 3.98, 20, 51, 4)


def bit_pairs(rng, key, height, width, count):
    plains = [random_image(rng, height, width) for _ in range(count)]
    return [(expand_to_bits(p), expand_to_bits(encrypt(p, key))) for p in plains]


class TestTreeInit:
    def test_single_row_of_bits(self):
        tree = RecoveryTree(1, 8, 2)
        assert tree.leaf_count == 1
        (plain, cipher), = tree.leaf_sets()
        assert plain.tolist() == list(range(8))
        assert cipher.tolist() == list(range(8))

    def test_full_scale_root_cardinality(self):
        tree = RecoveryTree(256, 2048, 2)
        assert tree.leaf_count == 1
        (plain, cipher), = tree.leaf_sets()
        assert len(plain) == len(cipher) == 2**19
        assert tree.singleton_fraction == 0.0

    def test_byte_arity_small_grid(self):
        tree = RecoveryTree(2, 2, 256)
        (plain, cipher), = tree.leaf_sets()
        assert plain.tolist() == cipher.tolist() == [0, 1, 2, 3]
        assert tree.arity == 256

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ShapeError):
            RecoveryTree(0, 8, 2)
        with pytest.raises(ValueError):
            RecoveryTree(2, 2, 1)


class TestRefine:
    def test_uninformative_pair_only_pushes_down(self):
        tree = RecoveryTree(2, 8, 2)
        zero = np.zeros((2, 8), dtype=np.uint8)
        before = tree_partition(tree)
        tree.refine(zero, zero)
        assert tree_partition(tree) == before
        assert tree.leaf_count == 1
        assert tree.singleton_fraction == 0.0
        (plain, cipher), = tree.leaf_sets()  # one child leaf holding the whole grid
        assert plain.tolist() == cipher.tolist() == list(range(16))
        assert tree.positions_processed == 2 * 16

    def test_first_split_matches_value_counts(self):
        tree = RecoveryTree(2, 8, 2)
        rng = np.random.default_rng(0)
        plain = rng.integers(0, 2, size=(2, 8), dtype=np.uint8)
        perm = rng.permutation(16)
        cipher = plain.reshape(-1)[np.argsort(perm)].reshape(2, 8)
        tree.refine(plain, cipher)
        sizes = sorted(len(p) for p, _ in tree.leaf_sets())
        ones = int(plain.sum())
        assert sizes == sorted([16 - ones, ones])

    def test_genuine_pairs_never_raise(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            key = random_key(rng)
            tree = RecoveryTree(4, 32, 2)
            for plain, cipher in bit_pairs(rng, key, 4, 4, 6):
                tree.refine(plain, cipher)

    def test_corrupted_bit_raises_and_preserves_tree(self):
        rng = np.random.default_rng(2)
        key = random_key(rng)
        pairs = bit_pairs(rng, key, 4, 4, 3)
        tree = RecoveryTree(4, 32, 2)
        tree.refine(*pairs[0])
        snapshot = tree_partition(tree)
        processed = tree.positions_processed

        plain, cipher = pairs[1]
        corrupted = cipher.copy()
        corrupted[0, 0] ^= 1
        with pytest.raises(InconsistentPair):
            tree.refine(plain, corrupted)
        assert tree_partition(tree) == snapshot
        assert tree.positions_processed == processed

        # the untouched tree still accepts the genuine pair afterwards
        tree.refine(plain, cipher)
        tree.refine(*pairs[2])

    @pytest.mark.parametrize("arity", [2, 256])
    def test_pair_wrong_inside_one_leaf_raises_and_preserves_tree(self, arity):
        high = arity - 1
        perm = np.random.default_rng(11).permutation(8)

        def cipher_of(plain):
            cipher = np.empty(8, dtype=np.uint8)
            cipher[perm] = plain.reshape(-1)
            return cipher.reshape(2, 4)

        tree = RecoveryTree(2, 4, arity)
        first = np.array([[0, 0, 0, 0], [high, high, high, high]], dtype=np.uint8)
        tree.refine(first, cipher_of(first))  # leaves: plain row 0, plain row 1
        snapshot = tree_partition(tree)
        processed = tree.positions_processed

        second = np.array([[0, high, 0, high], [0, high, 0, high]], dtype=np.uint8)
        cipher = cipher_of(second)
        swapped = second.copy()
        swapped[0, 1], swapped[1, 0] = second[1, 0], second[0, 1]  # across the two leaves
        assert sorted(swapped.reshape(-1).tolist()) == sorted(cipher.reshape(-1).tolist())
        with pytest.raises(InconsistentPair):
            tree.refine(swapped, cipher)
        assert tree_partition(tree) == snapshot
        assert tree.positions_processed == processed

        tree.refine(second, cipher)

    def test_rejects_values_outside_arity(self):
        tree = RecoveryTree(2, 2, 2)
        with pytest.raises(ValueError):
            tree.refine(np.full((2, 2), 3, dtype=np.uint8), np.full((2, 2), 3, dtype=np.uint8))

    def test_rejects_float_grid(self):
        # keyed as a value of its own, 0.5 would split the grid into 3 leaves
        tree = RecoveryTree(1, 4, 2)
        grid = np.array([[0.5, 0, 1, 0]])
        with pytest.raises(ShapeError):
            tree.refine(grid, grid)
        assert tree.leaf_count == 1

    def test_rejects_wrong_grid_shape(self):
        tree = RecoveryTree(2, 8, 2)
        with pytest.raises(ShapeError):
            tree.refine(np.zeros((2, 9), dtype=np.uint8), np.zeros((2, 9), dtype=np.uint8))

    def test_leaf_balance_and_soundness_against_ground_truth(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            key = random_key(rng)
            truth = compose_permutation(key, 3, 2)
            tree = RecoveryTree(3, 16, 2)
            for plain, cipher in bit_pairs(rng, key, 3, 2, 4):
                tree.refine(plain, cipher)
            for plain, cipher in tree.leaf_sets():
                assert len(plain) == len(cipher)
                # truth maps every leaf's plain set onto exactly its cipher set
                assert sorted(truth.target[plain].tolist()) == sorted(cipher.tolist())

    def test_residual_is_monotone_in_refinements(self):
        rng = np.random.default_rng(4)
        key = random_key(rng)
        tree = RecoveryTree(4, 32, 2)
        previous = tree.residual_ambiguity()
        for plain, cipher in bit_pairs(rng, key, 4, 4, 8):
            tree.refine(plain, cipher)
            current = tree.residual_ambiguity()
            assert current <= previous + 1e-9
            previous = current


class TestEstimateAndAmbiguity:
    def test_unrefined_tree_estimates_identity_ordering(self):
        tree = RecoveryTree(2, 8, 2)
        assert tree.estimate_map().target.tolist() == list(range(16))

    def test_estimate_is_always_a_bijection(self):
        rng = np.random.default_rng(5)
        key = random_key(rng)
        tree = RecoveryTree(4, 32, 2)
        for plain, cipher in bit_pairs(rng, key, 4, 4, 3):
            tree.refine(plain, cipher)
        estimate = tree.estimate_map()
        assert sorted(estimate.target.tolist()) == list(range(128))

    def test_fresh_tree_ambiguity_is_log2_factorial(self):
        assert RecoveryTree(1, 8, 2).residual_ambiguity() == approx(math.log2(40320))

    def test_three_element_leaf_ambiguity(self):
        tree = RecoveryTree(1, 4, 2)
        grid = np.array([[0, 1, 1, 1]], dtype=np.uint8)
        tree.refine(grid, grid)
        assert tree.residual_ambiguity() == approx(math.log2(6))

    def test_singletons_contribute_nothing(self):
        tree = RecoveryTree(1, 2, 2)
        grid = np.array([[0, 1]], dtype=np.uint8)
        tree.refine(grid, grid)
        assert tree.residual_ambiguity() == 0.0
        assert tree.singleton_fraction == 1.0


class TestFormulas:
    def test_min_known_plaintexts_full_scale(self):
        assert min_known_plaintexts(256, 256) == 20

    def test_min_known_plaintexts_smallest_image(self):
        assert min_known_plaintexts(1, 1) == 4

    def test_min_known_plaintexts_desk_scale(self):
        assert min_known_plaintexts(16, 16) == 12

    def test_predicted_accuracy_at_threshold_minus_one(self):
        assert predicted_bit_accuracy(16, 16, 11) == approx(2048 / 4095)

    def test_predicted_accuracy_tends_to_one(self):
        assert predicted_bit_accuracy(16, 16, 60) == approx(1.0, abs=1e-12)
        assert error_bit_pmf(16, 16, 60)[0] == approx(1.0, abs=1e-9)

    @given(
        height=st.integers(1, 64),
        width=st.integers(1, 64),
        n0=st.integers(1, 64),
    )
    def test_pmf_is_a_distribution(self, height, width, n0):
        pmf = error_bit_pmf(height, width, n0)
        assert pmf.shape == (9,)
        assert np.all(pmf >= 0)
        assert pmf.sum() == approx(1.0)

    def test_byte_level_probability_reduces_to_bit_formula(self):
        assert recovery_probability(8 * 16 * 16, 2, 10) == predicted_bit_accuracy(16, 16, 10)

    @pytest.mark.parametrize(
        "grid_size,levels,n0",
        [(1, 2, 1), (2, 2, 1), (5, 2, 2), (16, 2, 3), (40, 2, 4), (40, 3, 2), (64, 256, 1)],
    )
    def test_expected_fraction_matches_exact_binomial_sum(self, grid_size, levels, n0):
        # E[1/(1+K)], K ~ Binomial(G-1, q), summed term by term in exact rationals
        q = Fraction(1, levels**n0)
        exact = sum(
            math.comb(grid_size - 1, k) * q**k * (1 - q) ** (grid_size - 1 - k) / (1 + k)
            for k in range(grid_size)
        )
        assert expected_recovery_fraction(grid_size, levels, n0) == approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("grid_size,levels", [(2, 2), (2048, 2), (8 * 256 * 256, 2), (64, 256)])
    def test_expected_fraction_is_strictly_above_pb(self, grid_size, levels):
        for n0 in range(1, 21 if levels == 2 else 4):
            exact = expected_recovery_fraction(grid_size, levels, n0)
            assert recovery_probability(grid_size, levels, n0) < exact <= 1.0

    def test_expected_fraction_reaches_one_at_large_n0(self):
        # (1 - (1-q)**G) / (G*q) evaluated directly gives 0 here; q underflows later
        assert expected_recovery_fraction(2048, 2, 60) == approx(1.0, abs=1e-12)
        assert expected_recovery_fraction(2048, 2, 2000) == 1.0
        assert expected_recovery_fraction(64, 256, 200) == 1.0
        with pytest.raises(ValueError):
            expected_recovery_fraction(2048, 2, 0)


class TestChosenPlaintexts:
    def test_counts(self):
        assert chosen_plaintext_count(1, 1) == 3
        assert chosen_plaintext_count(256, 256) == 19
        assert len(construct_chosen_plaintexts(1, 1)) == 3

    def test_smallest_case_bit_planes(self):
        images = construct_chosen_plaintexts(1, 1)
        planes = [expand_to_bits(img)[0] for img in images]
        for position in range(8):
            label = sum(int(planes[t][position]) << t for t in range(3))
            assert label == position

    def test_bit_planes_reconstruct_labels(self):
        height, width = 3, 2
        images = construct_chosen_plaintexts(height, width)
        planes = np.stack([expand_to_bits(img) for img in images])
        labels = sum(planes[t].astype(np.int64) << t for t in range(len(images)))
        assert np.array_equal(labels.reshape(-1), np.arange(height * 8 * width))

    @pytest.mark.parametrize("height,width", [(2, 2), (4, 4)])
    def test_full_pipeline_recovers_exactly(self, height, width):
        rng = np.random.default_rng(6)
        for _ in range(5):
            key = random_key(rng)
            pairs = [(img, encrypt(img, key)) for img in construct_chosen_plaintexts(height, width)]
            estimate, report = attack(pairs, mode="bit")
            truth = compose_permutation(key, height, width)
            assert report.residual_log2 == 0.0
            assert report.singleton_fraction == 1.0
            assert perm_accuracy(estimate, truth) == 1.0


class TestAttack:
    def test_rejects_empty_and_bad_mode(self):
        with pytest.raises(ValueError):
            attack([])
        with pytest.raises(ValueError):
            attack([(np.zeros((2, 2), dtype=np.uint8),) * 2], mode="trit")

    def test_rejects_mixed_shapes(self):
        a = np.zeros((2, 2), dtype=np.uint8)
        b = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ShapeError):
            attack([(a, a), (b, b)])

    def test_single_zero_pair_is_uninformative(self):
        zero = np.zeros((2, 2), dtype=np.uint8)
        estimate, report = attack([(zero, zero)], mode="bit")
        size = 8 * 2 * 2
        assert estimate.target.tolist() == list(range(size))
        assert report.leaf_count == 1
        assert report.residual_log2 == approx(math.lgamma(size + 1) / math.log(2))

    def test_inconsistent_pair_carries_its_index(self):
        rng = np.random.default_rng(7)
        key = random_key(rng)
        plains = [random_image(rng, 4, 4) for _ in range(3)]
        pairs = [(p, encrypt(p, key)) for p in plains]
        bad_plain, bad_cipher = pairs[2]
        bad_cipher = bad_cipher.copy()
        bad_cipher[0, 0] ^= 1
        pairs[2] = (bad_plain, bad_cipher)
        with pytest.raises(InconsistentPair) as excinfo:
            attack(pairs, mode="bit")
        assert excinfo.value.pair_index == 2

    def test_linear_work_certificate(self):
        rng = np.random.default_rng(8)
        key = random_key(rng)
        n0 = 12
        plains = [random_image(rng, 16, 16) for _ in range(n0)]
        _, report = attack([(p, encrypt(p, key)) for p in plains], mode="bit")
        assert report.positions_processed <= 2 * n0 * 8 * 16 * 16
        assert report.pairs_used == n0
        assert report.predicted_pb == predicted_bit_accuracy(16, 16, n0)

    def test_report_csv_row_shape(self):
        zero = np.zeros((2, 2), dtype=np.uint8)
        _, report = attack([(zero, zero)], mode="bit")
        row = report.to_csv_row()
        assert len(row.split(",")) == len(report.CSV_HEADER.split(","))

    def test_byte_mode_exact_with_distinct_values(self):
        rng = np.random.default_rng(9)
        stub = PermutationMap(8, 8, rng.permutation(64).astype(np.int64))
        plain = np.arange(64, dtype=np.uint8).reshape(8, 8)
        cipher = apply_map(stub, plain)
        estimate, report = attack([(plain, cipher)], mode="byte")
        assert report.residual_log2 == 0.0
        assert np.array_equal(estimate.target, stub.target)
        assert np.array_equal(apply_inverse(estimate, cipher), plain)

    def test_byte_mode_attacks_pixel_grid_not_bits(self):
        zero = np.zeros((2, 3), dtype=np.uint8)
        _, report = attack([(zero, zero)], mode="byte")
        assert report.leaf_count == 1
        assert report.residual_log2 == approx(math.lgamma(7) / math.log(2))


class TestOracleEquivalence:
    @pytest.mark.parametrize("levels", [2, 4, 256])
    def test_leaf_partition_matches_candidate_intersection(self, levels):
        rng = np.random.default_rng(10)
        for trial in range(10):
            rows, cols = 4, 4
            size = rows * cols
            perm = rng.permutation(size)
            n0 = int(rng.integers(1, 4))
            plains, ciphers = [], []
            for _ in range(n0):
                plain = rng.integers(0, levels, size=(rows, cols), dtype=np.uint8)
                cipher = np.empty(size, dtype=np.uint8)
                cipher[perm] = plain.reshape(-1)
                plains.append(plain)
                ciphers.append(cipher.reshape(rows, cols))
            tree = RecoveryTree(rows, cols, levels)
            for plain, cipher in zip(plains, ciphers):
                tree.refine(plain, cipher)
            assert tree_partition(tree) == intersection_partition(plains, ciphers)


class TestGoldenOutputs:
    """Attack outputs recorded before the partition moved from a node tree to
    flat label arrays; they pin the in-order pairing inside each leaf."""

    @staticmethod
    def outcome(estimate, report):
        fields = (
            report.pairs_used,
            report.leaf_count,
            report.singleton_fraction,
            report.residual_log2,
            report.predicted_pb,
            report.positions_processed,
        )
        return fields, hashlib.sha256(estimate.target.astype("<i8").tobytes()).hexdigest()

    @pytest.mark.parametrize(
        "n0,fields,digest",
        [
            (
                8,
                (8, 256, 0.0, 4070.342638435262, 0.11115935735996527, 32768),
                "2c496b309b1a5a096d39526ed8c6f1d89356f31f4d9017b88aa50bbb3aa648e2",
            ),
            (
                12,
                (12, 1582, 0.5810546875, 513.7595281410422, 0.6667751912746215, 47060),
                "8037d44cba6ad91a58548c707736b94dd1f3ff871e436c30b0ea0a24d33cbe54",
            ),
        ],
    )
    def test_bit_mode_16x16(self, n0, fields, digest):
        rng = np.random.default_rng(2009)
        plains = [random_image(rng, 16, 16) for _ in range(n0)]
        pairs = [(p, encrypt(p, REFERENCE_KEY)) for p in plains]
        assert self.outcome(*attack(pairs, mode="bit")) == (fields, digest)

    def test_byte_mode_8x8(self):
        rng = np.random.default_rng(2009)
        stub = PermutationMap(8, 8, rng.permutation(64).astype(np.int64))
        plains = [rng.integers(0, 4, size=(8, 8), dtype=np.uint8) for _ in range(2)]
        pairs = [(p, apply_map(stub, p)) for p in plains]
        assert self.outcome(*attack(pairs, mode="byte")) == (
            (2, 15, 0.015625, 94.45786718453502, 0.9990396195063949, 256),
            "7c7fa87875ed4a6603784c41d439a5c3a7ee1fa3582a1e9daf3a77519f35522c",
        )
