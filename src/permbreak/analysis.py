"""Recovery-quality metrics and demonstrations of the cipher's weak spots."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cipher import PermutationMap, ShapeError, _as_image, encrypt, expand_to_bits

# Bit count of every byte value, for per-pixel error-bit tallies.
_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


@dataclass(frozen=True)
class AccuracySummary:
    """Image-level recovery scores; the map-level score is perm_accuracy()."""

    bit_accuracy: float
    pixel_accuracy: float
    one_bit_error_fraction: float


def compare_images(recovered, original) -> tuple[AccuracySummary, np.ndarray]:
    """Score a recovered image against the original.

    Returns the summary plus the histogram of per-pixel error-bit counts
    (9 entries for 0..8 wrong bits, summing to the pixel count).  The
    one-bit-error fraction is taken among incorrect pixels only and is 0
    when there are none.
    """
    rec = _as_image(recovered)
    org = _as_image(original)
    if rec.shape != org.shape:
        raise ShapeError(f"image shapes differ: {rec.shape} vs {org.shape}")
    wrong_bits = _POPCOUNT[rec ^ org]
    histogram = np.bincount(wrong_bits.reshape(-1), minlength=9)
    pixels = org.size
    errors = pixels - int(histogram[0])
    summary = AccuracySummary(
        bit_accuracy=1.0 - float(wrong_bits.sum()) / (8 * pixels),
        pixel_accuracy=float(histogram[0]) / pixels,
        one_bit_error_fraction=float(histogram[1]) / errors if errors else 0.0,
    )
    return summary, histogram


def perm_accuracy(estimate: PermutationMap, truth: PermutationMap) -> float:
    """Fraction of grid positions the estimated map sends to the right place."""
    if (estimate.rows, estimate.cols) != (truth.rows, truth.cols):
        raise ShapeError(
            f"map shapes differ: {estimate.rows}x{estimate.cols} vs {truth.rows}x{truth.cols}"
        )
    return float(np.mean(estimate.target == truth.target))


def median_filter_3x3(img) -> np.ndarray:
    """3x3 median smoothing with edge replication; knocks out isolated
    wrong pixels in a recovered image.

    The median of 9 is the 5th order statistic of each window of the
    edge-padded image.
    """
    arr = _as_image(img)
    windows = sliding_window_view(np.pad(arr, 1, mode="edge"), (3, 3))
    return np.partition(windows.reshape(*arr.shape, 9), 4, axis=-1)[..., 4].copy()


def bit_histogram(img) -> tuple[int, int]:
    """(zero bits, one bits) of the image's bit expansion.

    The cipher only moves bits, so this pair is invariant under encryption;
    a cipher image still leaks it.
    """
    bits = expand_to_bits(img)
    ones = int(bits.sum())
    return bits.size - ones, ones


def demonstrate_equivalent_key(key, rng: np.random.Generator | None = None) -> bool:
    """Check that x0 and 1-x0 encrypt identically on a random probe image.

    The logistic map satisfies f(x) = f(1-x), so the two seeds generate one
    orbit and hence one schedule.  A constant probe would make the check
    vacuous, so the probe is redrawn until it is not.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    probe = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    while probe.min() == probe.max():
        probe = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    mirrored = replace(key, x0=1.0 - key.x0)
    return bool(np.array_equal(encrypt(probe, key), encrypt(probe, mirrored)))
