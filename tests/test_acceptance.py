"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

Criteria 4 and 5 check the accuracy model the attack obeys, on a shared
Monte-Carlo of held-out decryptions.  They do not take the paper's
p_b = 1 / (1 + (8MN-1)/2**n0) as held-out bit accuracy: p_b is the Jensen
lower bound 1/(1+E[K]) of E[1/(1+K)] (K the binomial number of surviving
fake candidates), and a misplaced bit still matches a uniform random bit
half the time.  Criterion 4 checks the exact E[1/(1+K)] against the
partition's leaf count, and the 1/2 floor against each trial's permutation
accuracy.  Criterion 5 builds the expected error-bit histogram from the
estimated map itself, since misplaced bits cluster by pixel.
"""

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from conftest import (
    intersection_partition,
    pixel_error_bit_pmf,
    random_image,
    tree_partition,
)
from permbreak.analysis import bit_histogram, compare_images, perm_accuracy
from permbreak.cipher import (
    PermutationMap,
    apply_inverse,
    apply_map,
    compose_permutation,
    decrypt,
    encrypt,
    expand_to_bits,
    pack_to_image,
)
from permbreak.keystream import Key, random_key
from permbreak.recovery import (
    RecoveryTree,
    attack,
    chosen_plaintext_count,
    construct_chosen_plaintexts,
    expected_recovery_fraction,
    min_known_plaintexts,
    predicted_bit_accuracy,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _decrypt_with_estimate(estimate, cipher_img):
    return pack_to_image(apply_inverse(estimate, expand_to_bits(cipher_img)))


class _Trials(NamedTuple):
    bit_accuracy: np.ndarray  # held-out bit accuracy, one per trial
    perm_accuracy: np.ndarray
    leaf_count: np.ndarray
    histogram: np.ndarray  # observed per-pixel error-bit counts, summed over trials
    expected: np.ndarray  # the same histogram's expectation given each trial's map
    variance: np.ndarray


@pytest.fixture(scope="module")
def monte_carlo_16x16():
    """Shared Monte-Carlo for criteria 4 and 5: uniform-random plaintexts on a
    16x16 image, n0 in {8, 10, 12}, 20 trials each, held-out decryption."""
    height = width = 16
    trials = 20
    results = {}
    for n0 in (8, 10, 12):
        bit_acc, perm_acc, leaves = [], [], []
        histogram = np.zeros(9, dtype=np.int64)
        expected = np.zeros(9)
        variance = np.zeros(9)
        for trial in range(trials):
            rng = np.random.default_rng([1604, n0, trial])
            key = random_key(rng)
            plains = [random_image(rng, height, width) for _ in range(n0)]
            estimate, report = attack([(p, encrypt(p, key)) for p in plains], mode="bit")
            held_out = random_image(rng, height, width)
            recovered = _decrypt_with_estimate(estimate, encrypt(held_out, key))
            summary, hist = compare_images(recovered, held_out)
            truth = compose_permutation(key, height, width)
            bit_acc.append(summary.bit_accuracy)
            perm_acc.append(perm_accuracy(estimate, truth))
            leaves.append(report.leaf_count)
            histogram += hist
            # recovered bit q is held-out bit sigma[q], sigma = truth^-1 o estimate
            sigma = np.argsort(truth.target)[estimate.target]
            for first in range(0, sigma.size, 8):
                pmf = np.asarray(pixel_error_bit_pmf(sigma, range(first, first + 8)))
                expected += pmf
                variance += pmf * (1.0 - pmf)
        results[n0] = _Trials(
            np.asarray(bit_acc),
            np.asarray(perm_acc),
            np.asarray(leaves),
            histogram,
            expected,
            variance,
        )
    return results


def test_criterion_1_round_trip():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    cases = 0
    for height, width in ((8, 8), (16, 16)):
        for _ in range(50):
            key = random_key(rng)
            img = random_image(rng, height, width)
            assert np.array_equal(decrypt(encrypt(img, key), key), img)
            cases += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (round-trip, 100 random key/image cases)",
        cases == 100 and elapsed < 5.0,
        f"{cases} cases in {elapsed:.2f}s",
    )


def test_criterion_2_minimum_pair_bound():
    value = min_known_plaintexts(256, 256)
    _report(
        "criterion 2 (minimum known pairs at 256x256)",
        value == 20,
        f"min_known_plaintexts(256, 256) = {value}",
    )


def test_criterion_3_chosen_plaintext_exactness():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    ok = True
    for height, width in ((4, 4), (8, 8)):
        chosen = construct_chosen_plaintexts(height, width)
        assert len(chosen) == chosen_plaintext_count(height, width)
        for _ in range(20):
            key = random_key(rng)
            estimate, report = attack([(p, encrypt(p, key)) for p in chosen], mode="bit")
            truth = compose_permutation(key, height, width)
            ok = ok and report.residual_log2 == 0.0
            ok = ok and perm_accuracy(estimate, truth) == 1.0
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (chosen-plaintext exact recovery, 20 keys x 2 sizes)",
        ok and elapsed < 10.0,
        f"elapsed {elapsed:.2f}s",
    )


def test_criterion_4_pb_formula_validation(monte_carlo_16x16):
    # (a) E[1/(1+K)] = E[leaf_count] / grid: the leaves are the occupied
    # classes among 2**n0 value sequences.  The SE comes from the occupancy
    # model, since at n0 = 8 every trial fills all 256 classes.
    # (b) a misplaced bit matches half the time, so the held-out bit accuracy
    # of a trial averages 1/2 + perm_accuracy/2 given its map.
    grid = 8 * 16 * 16
    details = []
    ok = True
    for n0, mc in sorted(monte_carlo_16x16.items()):
        fraction = expected_recovery_fraction(grid, 2, n0)
        pb = predicted_bit_accuracy(16, 16, n0)
        classes = 2.0**n0
        variance = (
            classes * (1 - 1 / classes) ** grid
            + classes * (classes - 1) * (1 - 2 / classes) ** grid
            - classes**2 * (1 - 1 / classes) ** (2 * grid)
        )
        se = math.sqrt(variance / len(mc.leaf_count))
        mean_leaves = float(mc.leaf_count.mean())
        floor_gap = mc.bit_accuracy - (0.5 + mc.perm_accuracy / 2)
        sem = float(floor_gap.std(ddof=1)) / math.sqrt(len(floor_gap))
        ok_a = abs(mean_leaves - grid * fraction) <= 3 * se and pb < fraction
        ok_b = abs(float(floor_gap.mean())) <= 3 * sem
        ok = ok and ok_a and ok_b
        details.append(
            f"n0={n0}: (a) leaves {mean_leaves:.1f} vs {grid * fraction:.1f} +- 3*SE "
            f"{3 * se:.1f}, p_b {pb:.4f} < {fraction:.4f}; (b) bit accuracy minus "
            f"(1/2 + perm/2) = {floor_gap.mean():+.4f}, 3*SEM {3 * sem:.4f}"
        )
    _report(
        "criterion 4 (exact E[1/(1+K)] vs leaf count within 3 SE, above p_b; "
        "1/2 floor within 3 SEM)",
        ok,
        "; ".join(details),
    )


def test_criterion_5_error_bit_distribution(monte_carlo_16x16):
    details = []
    ok = True
    for n0, mc in sorted(monte_carlo_16x16.items()):
        histogram, expected = mc.histogram, mc.expected
        sigma = np.sqrt(mc.variance)
        outside = np.abs(histogram - expected) > 3.0 * sigma + 1e-9
        if outside.any():
            ok = False
            worst = int(np.argmax(np.abs(histogram - expected) - 3.0 * sigma))
            details.append(
                f"n0={n0}: {int(outside.sum())}/9 bins outside 3 sigma "
                f"(e.g. bin {worst}: observed {int(histogram[worst])}, "
                f"expected {expected[worst]:.1f} +- {3 * sigma[worst]:.1f})"
            )
        else:
            details.append(f"n0={n0}: all 9 bins inside 3 sigma")
    _report(
        "criterion 5 (error-bit histogram vs per-pixel model of the estimated map, "
        "per bin 3 sigma)",
        ok,
        "; ".join(details),
    )


def test_criterion_6_cipher_property_suite():
    rng = np.random.default_rng(106)
    zero_ok = mirror_ok = histogram_ok = True
    for _ in range(50):
        key = random_key(rng)
        zero = np.zeros((8, 8), dtype=np.uint8)
        zero_ok = zero_ok and np.array_equal(encrypt(zero, key), zero)

        key2 = random_key(rng)
        mirrored = Key(1.0 - key2.x0, key2.mu, key2.row_offset, key2.col_offset, key2.rounds)
        img = random_image(rng, 8, 8)
        mirror_ok = mirror_ok and np.array_equal(encrypt(img, key2), encrypt(img, mirrored))

        key3 = random_key(rng)
        img3 = random_image(rng, 8, 8)
        histogram_ok = histogram_ok and bit_histogram(img3) == bit_histogram(encrypt(img3, key3))
    _report(
        "criterion 6 (zero fixed point; x0 mirror; bit-histogram invariance; 50 cases each)",
        zero_ok and mirror_ok and histogram_ok,
        f"zero={zero_ok} mirror={mirror_ok} histogram={histogram_ok}",
    )


def test_criterion_7_linear_complexity_certificate():
    n0 = 12
    timings = {}
    counter_ok = True
    for size in (16, 32):
        rng = np.random.default_rng([107, size])
        key = random_key(rng)
        pairs = [
            (p, encrypt(p, key)) for p in (random_image(rng, size, size) for _ in range(n0))
        ]
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _, report = attack(pairs, mode="bit")
            best = min(best, time.perf_counter() - start)
        counter_ok = counter_ok and report.positions_processed <= 2 * n0 * 8 * size * size
        timings[size] = best
    ratio = timings[32] / max(timings[16], 1e-9)
    _report(
        "criterion 7 (linear work counter at 16x16/32x32; wall-time ratio <= 6)",
        counter_ok and ratio <= 6.0,
        f"counter ok={counter_ok}, t16={timings[16] * 1000:.1f}ms, "
        f"t32={timings[32] * 1000:.1f}ms, ratio={ratio:.2f}",
    )


def test_criterion_8_tree_equals_intersection_oracle():
    cases = 0
    ok = True
    for height in (1, 2, 3):
        for width in (1, 2, 3):
            rows, cols = height, 8 * width
            size = rows * cols
            for seed in range(6):
                rng = np.random.default_rng([108, height, width, seed])
                perm = rng.permutation(size)
                plains, ciphers = [], []
                for _ in range(1 + seed % 3):
                    plain = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
                    cipher = np.empty(size, dtype=np.uint8)
                    cipher[perm] = plain.reshape(-1)
                    plains.append(plain)
                    ciphers.append(cipher.reshape(rows, cols))
                tree = RecoveryTree(rows, cols, 2)
                tree.refine(list(zip(plains, ciphers)))
                ok = ok and tree_partition(tree) == intersection_partition(plains, ciphers)
                cases += 1
    _report(
        "criterion 8 (leaf partition equals candidate-set intersection oracle)",
        ok and cases >= 50,
        f"{cases} seeded cases over grids up to 3x3 pixels",
    )


def test_criterion_9_byte_level_generalized_attack():
    # one chosen plaintext suffices: 256**1 >= 64 distinct byte values > 256**0
    pairs_needed = 1
    assert 256**pairs_needed >= 64 > 256 ** (pairs_needed - 1)
    rng = np.random.default_rng(109)
    stub = PermutationMap(8, 8, rng.permutation(64).astype(np.int64))
    plain = np.arange(64, dtype=np.uint8).reshape(8, 8)
    cipher = apply_map(stub, plain)
    estimate, report = attack([(plain, cipher)], mode="byte")
    exact = (
        report.residual_log2 == 0.0
        and np.array_equal(estimate.target, stub.target)
        and np.array_equal(apply_inverse(estimate, cipher), plain)
    )
    _report(
        "criterion 9 (byte-level attack, 1 chosen plaintext on 8x8)",
        exact,
        f"residual_log2={report.residual_log2}, singleton_fraction={report.singleton_fraction}",
    )
