import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from conftest import (
    intersection_partition,
    leaf_sets,
    random_image,
    reference_refine,
    tree_partition,
)
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


def permuted_pairs(seed, rows, cols, arity, count, density, repeat=1):
    """count pairs gathered through one random permutation of the rows x cols
    grid.  Each value is nonzero with chance density, and every value is
    repeated in `repeat` consecutive cells: a low density or a repeat keeps
    leaves open across many pairs."""
    rng = np.random.default_rng(seed)
    size = rows * cols
    perm = rng.permutation(size)
    pairs = []
    for _ in range(count):
        drawn = -(-size // repeat)
        values = np.where(rng.random(drawn) < density, rng.integers(1, arity, drawn), 0)
        plain = np.repeat(values, repeat)[:size].astype(np.uint8)
        cipher = np.empty(size, dtype=np.uint8)
        cipher[perm] = plain
        pairs.append((plain.reshape(rows, cols), cipher.reshape(rows, cols)))
    return pairs


@st.composite
def batches(draw):
    """(arity, rows, cols, pairs): bit batches of up to 130 pairs, byte
    batches of up to 20, and arities 3, 5 and 17, whose values leave spare
    bits in refine's uint16 sort keys.  Counts are also drawn at and one past
    a full first key (16/17 bit pairs, 2/3 byte pairs, 8/9, 5/6, 3/4), and
    at 63/64 bit and 7/8 byte pairs: several keys, the last partly filled or
    full."""
    arity, most, edge = draw(
        st.sampled_from([(2, 130, 63), (256, 20, 7), (3, 40, 8), (5, 30, 5), (17, 20, 3)])
    )
    step = 16 // (arity - 1).bit_length()
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 24))
    edges = [edge, edge + 1, step, step + 1, most]
    count = draw(st.one_of(st.sampled_from(edges), st.integers(1, most)))
    density = draw(st.sampled_from([0.005, 0.02, 0.1, 0.5]))
    repeat = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return arity, rows, cols, permuted_pairs(seed, rows, cols, arity, count, density, repeat)


def tree_state(tree):
    """Everything a tree reports, in comparable form."""
    return (
        [(plain.tolist(), cipher.tolist()) for plain, cipher in leaf_sets(tree)],
        tree.estimate_map().target.tolist(),
        tree.leaf_count,
        tree.residual_ambiguity(),
        tree.positions_processed,
    )


def refine_outcome(refine, tree, pairs):
    """The rejected pair's index, or None when the batch is accepted."""
    try:
        refine(tree, pairs)
    except InconsistentPair as exc:
        return exc.pair_index
    return None


class TestTreeInit:
    def test_single_row_of_bits(self):
        tree = RecoveryTree(1, 8, 2)
        assert tree.leaf_count == 1
        (plain, cipher), = leaf_sets(tree)
        assert plain.tolist() == list(range(8))
        assert cipher.tolist() == list(range(8))

    def test_full_scale_root_cardinality(self):
        tree = RecoveryTree(256, 2048, 2)
        assert tree.leaf_count == 1
        (plain, cipher), = leaf_sets(tree)
        assert len(plain) == len(cipher) == 2**19
        assert tree.singleton_fraction == 0.0

    def test_byte_arity_small_grid(self):
        tree = RecoveryTree(2, 2, 256)
        (plain, cipher), = leaf_sets(tree)
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
        tree.refine([(zero, zero)])
        assert tree_partition(tree) == before
        assert tree.leaf_count == 1
        assert tree.singleton_fraction == 0.0
        (plain, cipher), = leaf_sets(tree)  # one child leaf holding the whole grid
        assert plain.tolist() == cipher.tolist() == list(range(16))
        assert tree.positions_processed == 2 * 16

    def test_first_split_matches_value_counts(self):
        tree = RecoveryTree(2, 8, 2)
        rng = np.random.default_rng(0)
        plain = rng.integers(0, 2, size=(2, 8), dtype=np.uint8)
        perm = rng.permutation(16)
        cipher = plain.reshape(-1)[np.argsort(perm)].reshape(2, 8)
        tree.refine([(plain, cipher)])
        sizes = sorted(len(p) for p, _ in leaf_sets(tree))
        ones = int(plain.sum())
        assert sizes == sorted([16 - ones, ones])

    def test_genuine_pairs_never_raise(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            key = random_key(rng)
            tree = RecoveryTree(4, 32, 2)
            for plain, cipher in bit_pairs(rng, key, 4, 4, 6):
                tree.refine([(plain, cipher)])

    def test_corrupted_bit_raises_and_preserves_tree(self):
        rng = np.random.default_rng(2)
        key = random_key(rng)
        pairs = bit_pairs(rng, key, 4, 4, 3)
        tree = RecoveryTree(4, 32, 2)
        tree.refine([pairs[0]])
        snapshot = tree_partition(tree)
        processed = tree.positions_processed

        plain, cipher = pairs[1]
        corrupted = cipher.copy()
        corrupted[0, 0] ^= 1
        with pytest.raises(InconsistentPair):
            tree.refine([(plain, corrupted)])
        assert tree_partition(tree) == snapshot
        assert tree.positions_processed == processed

        # the untouched tree still accepts the genuine pair afterwards
        tree.refine([(plain, cipher)])
        tree.refine([pairs[2]])

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
        tree.refine([(first, cipher_of(first))])  # leaves: plain row 0, plain row 1
        snapshot = tree_partition(tree)
        processed = tree.positions_processed

        second = np.array([[0, high, 0, high], [0, high, 0, high]], dtype=np.uint8)
        cipher = cipher_of(second)
        swapped = second.copy()
        swapped[0, 1], swapped[1, 0] = second[1, 0], second[0, 1]  # across the two leaves
        assert sorted(swapped.reshape(-1).tolist()) == sorted(cipher.reshape(-1).tolist())
        with pytest.raises(InconsistentPair):
            tree.refine([(swapped, cipher)])
        assert tree_partition(tree) == snapshot
        assert tree.positions_processed == processed

        tree.refine([(second, cipher)])

    def test_rejects_values_outside_arity(self):
        tree = RecoveryTree(2, 2, 2)
        with pytest.raises(ValueError):
            tree.refine([(np.full((2, 2), 3, dtype=np.uint8), np.full((2, 2), 3, dtype=np.uint8))])

    def test_rejects_float_grid(self):
        # keyed as a value of its own, 0.5 would split the grid into 3 leaves
        tree = RecoveryTree(1, 4, 2)
        grid = np.array([[0.5, 0, 1, 0]])
        with pytest.raises(ShapeError):
            tree.refine([(grid, grid)])
        assert tree.leaf_count == 1

    def test_rejects_wrong_grid_shape(self):
        tree = RecoveryTree(2, 8, 2)
        with pytest.raises(ShapeError, match="^pair #0: "):
            tree.refine([(np.zeros((2, 9), dtype=np.uint8), np.zeros((2, 9), dtype=np.uint8))])

    def test_leaf_balance_and_soundness_against_ground_truth(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            key = random_key(rng)
            truth = compose_permutation(key, 3, 2)
            tree = RecoveryTree(3, 16, 2)
            for plain, cipher in bit_pairs(rng, key, 3, 2, 4):
                tree.refine([(plain, cipher)])
            for plain, cipher in leaf_sets(tree):
                assert len(plain) == len(cipher)
                # truth maps every leaf's plain set onto exactly its cipher set
                assert sorted(truth.target[plain].tolist()) == sorted(cipher.tolist())

    def test_residual_is_monotone_in_refinements(self):
        rng = np.random.default_rng(4)
        key = random_key(rng)
        tree = RecoveryTree(4, 32, 2)
        previous = tree.residual_ambiguity()
        for plain, cipher in bit_pairs(rng, key, 4, 4, 8):
            tree.refine([(plain, cipher)])
            current = tree.residual_ambiguity()
            assert current <= previous + 1e-9
            previous = current


class TestBatchRefine:
    """One batch sort against the pair-by-pair oracle in conftest."""

    @settings(max_examples=80, deadline=None)
    @given(case=batches())
    def test_batch_matches_pair_by_pair(self, case):
        arity, rows, cols, pairs = case
        batch, oracle = RecoveryTree(rows, cols, arity), RecoveryTree(rows, cols, arity)
        batch.refine(pairs)
        reference_refine(oracle, pairs)
        assert tree_state(batch) == tree_state(oracle)

    @settings(max_examples=40, deadline=None)
    @given(case=batches(), cut=st.floats(0.0, 1.0))
    def test_two_batches_equal_one(self, case, cut):
        arity, rows, cols, pairs = case
        split = round(cut * len(pairs))
        twice, once = RecoveryTree(rows, cols, arity), RecoveryTree(rows, cols, arity)
        twice.refine(pairs[:split])
        twice.refine(pairs[split:])
        once.refine(pairs)
        assert tree_state(twice) == tree_state(once)

    @settings(max_examples=80, deadline=None)
    @given(case=batches(), where=st.floats(0.0, 1.0), unpinned=st.booleans(), pick=st.integers(0, 10**6))
    def test_corrupted_pair_matches_oracle(self, case, where, unpinned, pick):
        # One changed cipher cell changes the pair's value counts in that
        # cell's leaf, pinned or not, so both must reject the pair.
        arity, rows, cols, pairs = case
        bad = min(int(where * len(pairs)), len(pairs) - 1)
        before = RecoveryTree(rows, cols, arity)
        reference_refine(before, pairs[:bad])
        leaves = [cipher.tolist() for _, cipher in leaf_sets(before)]
        open_cells = [cell for leaf in leaves if len(leaf) > 1 for cell in leaf]
        cells = open_cells if unpinned and open_cells else [cell for leaf in leaves for cell in leaf]
        cell = cells[pick % len(cells)]
        plain, cipher = pairs[bad]
        cipher = cipher.copy()
        cipher.reshape(-1)[cell] = (int(cipher.reshape(-1)[cell]) + 1) % arity
        pairs = pairs[:bad] + [(plain, cipher)] + pairs[bad + 1:]

        oracle, batch = RecoveryTree(rows, cols, arity), RecoveryTree(rows, cols, arity)
        fresh = tree_state(batch)
        assert refine_outcome(reference_refine, oracle, pairs) == bad
        assert tree_state(oracle) == tree_state(before)
        assert refine_outcome(RecoveryTree.refine, batch, pairs) == bad
        assert tree_state(batch) == fresh

    @pytest.mark.parametrize("pinned_in_chunk", [False, True])
    def test_corruption_in_later_chunk(self, pinned_in_chunk):
        # Pair 100 lies in the seventh of the batch's nine uint16 sort keys.
        # Corrupted at a cell in a multi-position leaf before it, or at a
        # cell that pairs 63-99 pinned, it fits no permutation, and the whole
        # batch is rejected.
        pairs = permuted_pairs(12, 2, 16, 2, 130, 0.03)
        bad = 100
        open_cells = {}
        for count in (63, bad):
            tree = RecoveryTree(2, 16, 2)
            reference_refine(tree, pairs[:count])
            open_cells[count] = {int(c) for _, leaf in leaf_sets(tree) if len(leaf) > 1 for c in leaf}
        cell = min(open_cells[63] - open_cells[bad] if pinned_in_chunk else open_cells[bad])
        plain, cipher = pairs[bad]
        cipher = cipher.copy()
        cipher.reshape(-1)[cell] ^= 1
        pairs[bad] = (plain, cipher)

        oracle, batch = RecoveryTree(2, 16, 2), RecoveryTree(2, 16, 2)
        assert refine_outcome(reference_refine, oracle, pairs) == bad
        assert refine_outcome(RecoveryTree.refine, batch, pairs) == bad
        assert tree_state(batch) == tree_state(RecoveryTree(2, 16, 2))

    def test_wide_label_at_chunk_edge(self):
        # 63 pairs leave over 2048 leaves, so the second batch of the split
        # one is sorted with a label of at least 12 bits as its primary key;
        # the single batch sorts all 130 pairs by nine uint16 keys.
        pairs = permuted_pairs(13, 64, 64, 2, 130, 0.1)
        first = RecoveryTree(64, 64, 2)
        first.refine(pairs[:63])
        assert int(first._label[-1]).bit_length() >= 12
        oracle = RecoveryTree(64, 64, 2)
        reference_refine(oracle, pairs)
        once, twice = RecoveryTree(64, 64, 2), RecoveryTree(64, 64, 2)
        once.refine(pairs)
        twice.refine(pairs[:63])
        twice.refine(pairs[63:])
        assert tree_state(once) == tree_state(oracle)
        assert tree_state(twice) == tree_state(oracle)


class TestStableOrder:
    """refine's lexsort over uint16 keys against one stable argsort of the
    whole int64 key, and the dtype of every key it sorts."""

    @settings(max_examples=200, deadline=None)
    @given(
        arity=st.sampled_from([2, 3, 5, 17, 256]),
        before=st.integers(0, 4),
        keys=st.integers(1, 4),
        offset=st.sampled_from([-1, 0, 1]),
        free=st.one_of(st.none(), st.integers(1, 63)),
        rows=st.integers(1, 4),
        cols=st.integers(1, 24),
        density=st.sampled_from([0.02, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_stable_argsort(self, arity, before, keys, offset, free, rows, cols, density, seed):
        # Unless drawn freely, the count is one below, at or one above a
        # whole number of full uint16 keys (16/17 bit pairs, 2/3 byte pairs,
        # ...).  Up to 4 pairs before the batch give the tree labels of its
        # own, and the count is capped where the int64 key reaches 63 bits.
        width = (arity - 1).bit_length()
        count = free or keys * (16 // width) + offset
        pairs = permuted_pairs(seed, rows, cols, arity, before + count, density)
        tree = RecoveryTree(rows, cols, arity)
        tree.refine(pairs[:before])
        count = max(1, min(count, (63 - (tree.leaf_count - 1).bit_length()) // width))
        batch = pairs[before : before + count]
        expected = []
        for side, positions in enumerate((tree._plain, tree._cipher)):
            key = tree._label.copy()
            for pair in batch:
                key = key << width | pair[side].reshape(-1)[positions].astype(np.int64)
            order = np.argsort(key, kind="stable")
            expected.append((positions[order], key[order]))
        (plain, pkey), (cipher, ckey) = expected
        assert np.array_equal(pkey, ckey)
        starts = np.ones(len(pkey), dtype=bool)
        np.not_equal(pkey[1:], pkey[:-1], out=starts[1:])

        tree.refine(batch)
        assert np.array_equal(tree._plain, plain)
        assert np.array_equal(tree._cipher, cipher)
        assert np.array_equal(tree._label, np.cumsum(starts) - 1)

    @pytest.mark.parametrize(
        "arity, grid, counts",
        [
            (2, (16, 128), [16]),  # the default sweep's largest batch: one key
            (2, (16, 128), [17]),  # two keys, the second holding one pair
            (2, (16, 128), [11, 9]),  # the second batch's primary key is a label
            (256, (32, 32), [3]),  # byte-known's batch: two keys
            (256, (32, 32), [7]),  # four keys
        ],
    )
    def test_refine_sorts_uint16_only(self, monkeypatch, arity, grid, counts):
        # A pair key wider than uint16 would fall back to a comparison sort
        # without failing any output check, so every lexsort refine makes is
        # recorded.
        rows, cols = grid
        pairs = permuted_pairs(15, rows, cols, arity, sum(counts), 0.5)
        lexsort, calls = np.lexsort, []

        def recording_lexsort(keys, *args, **kwargs):
            calls.append([key.dtype for key in keys])
            return lexsort(keys, *args, **kwargs)

        step = 16 // (arity - 1).bit_length()
        tree = RecoveryTree(rows, cols, arity)
        for start, count in zip(np.cumsum([0] + counts), counts):
            calls.clear()
            monkeypatch.setattr(np, "lexsort", recording_lexsort)
            tree.refine(pairs[start : start + count])
            monkeypatch.undo()
            # the label comes last, as lexsort's primary key
            assert calls == [[np.dtype(np.uint16)] * -(-count // step) + [np.dtype(np.int64)]] * 2


class TestBruteForce:
    """Every permutation of a tiny grid, against one pair at a time."""

    @pytest.mark.parametrize("arity", [2, 3])
    @pytest.mark.parametrize("rows,cols", [(1, 4), (1, 5), (2, 3), (1, 6)])
    def test_refine_keeps_exactly_the_fitting_permutations(self, rows, cols, arity):
        rng = np.random.default_rng(rows * 100 + cols * 10 + arity)
        size = rows * cols
        everything = np.array(list(itertools.permutations(range(size))))
        for trial in range(20):
            perm = rng.permutation(size)
            tree = RecoveryTree(rows, cols, arity)
            fitting = everything
            for _ in range(6):
                plain = rng.integers(0, arity, size)
                cipher = np.empty(size, dtype=np.int64)
                cipher[perm] = plain
                damage = rng.integers(0, 3)
                if damage == 1:  # one changed cell
                    cell = rng.integers(size)
                    cipher[cell] = (cipher[cell] + rng.integers(1, arity)) % arity
                elif damage == 2:  # two swapped cells
                    i, j = rng.choice(size, 2, replace=False)
                    cipher[i], cipher[j] = cipher[j], cipher[i]
                # target[p] = c sends plain position p to cipher position c
                fits = fitting[np.all(cipher[fitting] == plain, axis=1)]
                before = tree_state(tree)
                pair = (plain.reshape(rows, cols), cipher.reshape(rows, cols))
                if len(fits):
                    tree.refine([pair])
                    fitting = fits
                    assert round(2 ** tree.residual_ambiguity()) == len(fitting)
                    target = tree.estimate_map().target
                    assert np.all(fitting == target, axis=1).any()
                else:
                    with pytest.raises(InconsistentPair):
                        tree.refine([pair])
                    assert tree_state(tree) == before


class TestEstimateAndAmbiguity:
    def test_unrefined_tree_estimates_identity_ordering(self):
        tree = RecoveryTree(2, 8, 2)
        assert tree.estimate_map().target.tolist() == list(range(16))

    def test_estimate_is_always_a_bijection(self):
        rng = np.random.default_rng(5)
        key = random_key(rng)
        tree = RecoveryTree(4, 32, 2)
        for plain, cipher in bit_pairs(rng, key, 4, 4, 3):
            tree.refine([(plain, cipher)])
        estimate = tree.estimate_map()
        assert sorted(estimate.target.tolist()) == list(range(128))

    def test_fresh_tree_ambiguity_is_log2_factorial(self):
        assert RecoveryTree(1, 8, 2).residual_ambiguity() == approx(math.log2(40320))

    def test_three_element_leaf_ambiguity(self):
        tree = RecoveryTree(1, 4, 2)
        grid = np.array([[0, 1, 1, 1]], dtype=np.uint8)
        tree.refine([(grid, grid)])
        assert tree.residual_ambiguity() == approx(math.log2(6))

    def test_singletons_contribute_nothing(self):
        tree = RecoveryTree(1, 2, 2)
        grid = np.array([[0, 1]], dtype=np.uint8)
        tree.refine([(grid, grid)])
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

    @given(height=st.integers(1, 512), width=st.integers(1, 512))
    def test_min_known_plaintexts_is_least_n0_above_ceil_log2(self, height, width):
        # ceil(log2(8MN - 1)) + 1, exactly, as bit_length gives it
        assert min_known_plaintexts(height, width) == (8 * height * width - 2).bit_length() + 1

    @given(height=st.integers(1, 512), width=st.integers(1, 512))
    def test_pb_at_and_one_below_min_known_plaintexts(self, height, width):
        n0 = min_known_plaintexts(height, width)
        assert predicted_bit_accuracy(height, width, n0) > 2 / 3
        assert predicted_bit_accuracy(height, width, n0 - 1) > 1 / 2

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
        assert str(excinfo.value).startswith("inconsistent pair (pair #2): ")

    def test_junk_pair_after_chosen_set_is_rejected(self):
        # The chosen set pins every position, so pair #11 is checked on all
        # of them; two unrelated random images fit no permutation.
        rng = np.random.default_rng(13)
        key = random_key(rng)
        pairs = [(p, encrypt(p, key)) for p in construct_chosen_plaintexts(16, 16)]
        pairs.append((random_image(rng, 16, 16), random_image(rng, 16, 16)))
        with pytest.raises(InconsistentPair) as excinfo:
            attack(pairs, mode="bit")
        assert excinfo.value.pair_index == 11

    def test_linear_work_certificate(self):
        rng = np.random.default_rng(8)
        key = random_key(rng)
        n0 = 12
        plains = [random_image(rng, 16, 16) for _ in range(n0)]
        _, report = attack([(p, encrypt(p, key)) for p in plains], mode="bit")
        assert report.positions_processed <= 2 * n0 * 8 * 16 * 16
        assert report.pairs_used == n0
        assert report.predicted_pb == predicted_bit_accuracy(16, 16, n0)

    def test_one_refine_call_per_attack(self, monkeypatch):
        # perfbench's recovery.refine probe wraps RecoveryTree.refine by name.
        calls = []
        refine = RecoveryTree.refine
        monkeypatch.setattr(RecoveryTree, "refine", lambda tree, pairs: calls.append(1) or refine(tree, pairs))
        rng = np.random.default_rng(12)
        key = random_key(rng)
        # one uint16 sort key for 1 and 12 pairs, four for 63
        for count in (1, 12, 63):
            calls.clear()
            pairs = [(p, encrypt(p, key)) for p in (random_image(rng, 2, 2) for _ in range(count))]
            attack(pairs, mode="bit")
            assert len(calls) == 1

    def test_refine_gets_bool_bits_and_the_callers_byte_grids(self, monkeypatch):
        # Each grid is checked once, by refine: bit grids are 0/1 by
        # construction and come as bool, which _as_grid takes without reading
        # them; byte grids come as the caller passed them, not converted.
        handed, refine = [], RecoveryTree.refine

        def recording_refine(tree, pairs):
            handed.append(pairs)
            return refine(tree, pairs)

        monkeypatch.setattr(RecoveryTree, "refine", recording_refine)
        rng = np.random.default_rng(14)
        attack([(p, encrypt(p, REFERENCE_KEY)) for p in (random_image(rng, 4, 4) for _ in range(3))])
        (grids,) = handed
        assert [g.dtype for pair in grids for g in pair] == [np.dtype(bool)] * 6

        pairs = [(p.astype(np.int64), c) for p, c in permuted_pairs(14, 4, 4, 256, 3, 0.5)]
        copies = [(p.copy(), c.copy()) for p, c in pairs]
        handed.clear()
        attack(pairs, mode="byte")
        (grids,) = handed
        for got, given_pair, copy in zip(grids, pairs, copies):
            assert got[0] is given_pair[0] and got[1] is given_pair[1]
            assert np.array_equal(got[0], copy[0]) and np.array_equal(got[1], copy[1])
        assert [g.dtype for pair in grids for g in pair] == [np.dtype(np.int64), np.dtype(np.uint8)] * 3

    def test_report_fields_are_python_scalars(self):
        # perfbench serialises the report with json, which takes no NumPy scalars.
        rng = np.random.default_rng(13)
        pairs = [(p, encrypt(p, REFERENCE_KEY)) for p in (random_image(rng, 4, 4) for _ in range(6))]
        _, report = attack(pairs, mode="bit")
        assert [type(v) for v in (report.pairs_used, report.leaf_count, report.positions_processed)] == [int] * 3
        assert [type(v) for v in (report.singleton_fraction, report.residual_log2)] == [float] * 2

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
            tree.refine(list(zip(plains, ciphers)))
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

    def test_byte_mode_6x6_two_chunks(self):
        # 9 byte pairs: five uint16 sort keys, the last holding one pair.
        rng = np.random.default_rng(2009)
        stub = PermutationMap(6, 6, rng.permutation(36).astype(np.int64))
        plains = [rng.integers(0, 2, size=(6, 6), dtype=np.uint8) for _ in range(9)]
        pairs = [(p, apply_map(stub, p)) for p in plains]
        assert self.outcome(*attack(pairs, mode="byte")) == (
            (9, 34, 0.8888888888888888, 1.9999999999999991, 1.0, 470),
            "a2b9a20f9474ca9174385c60e85a227c08dc4220831af148ee58d325c92a4aa9",
        )
