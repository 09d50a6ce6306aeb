"""Partition-refinement attack on permutation-only ciphers.

Every plaintext/ciphertext pair splits the position grid by element value: a
plain position showing value v can only have moved to a cipher position
showing value v in the same pair.  Iterating this over pairs refines two
matched partitions of the grid: the leaves of the paper's L-ary tree, whose
root holds the whole grid.  A leaf of cardinality one pins a plain position
to its cipher position with certainty; a leaf of cardinality c leaves c!
orderings open.  The leaves are kept as flat label arrays over the whole
grid, singletons included, and a batch of pairs is refined at once: each
side is ordered by one stable lexicographic sort of (leaf label, value in
every pair), and the leaves split where a pair's value changes along the
sorted arrays.  That is the partition refining pair by pair reaches, and no
position is compared pairwise.  A pair is rejected exactly when no
permutation fitting the pairs accepted before it maps its plaintext onto its
ciphertext, which is at the first pair whose values differ between the two
sorted sides.  ``positions_processed`` is the pair-by-pair algorithm's count
(2 x the positions in multi-position leaves before each pair), read off the
sorted arrays: it certifies the paper's O(n0 * grid) bound.  The work done
is one lexsort per side, a radix pass per uint16 key of packed values, plus
a few passes over the grid per pair.

The binary case (L = 2) attacks the bit-permutation cipher after bit-plane
expansion; the general case (any L up to 256 here) breaks any
permutation-only scheme over L-valued elements.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb, expm1, lgamma, log, log1p
from typing import ClassVar

import numpy as np

from .cipher import PermutationMap, ShapeError, _as_grid, _as_image, expand_to_bits, pack_to_image


class InconsistentPair(ValueError):
    """A pair that no position permutation fitting the earlier pairs can
    produce.

    That is the first pair of a batch whose sorted plain values differ from
    its sorted cipher values.  Raised before any leaf of the tree is
    modified, so the tree still reflects exactly the batches accepted so
    far.  ``pair_index`` names the pair by its index in the batch given to
    :meth:`RecoveryTree.refine`, and so in the pairs given to :func:`attack`;
    the error's text names it too: ``inconsistent pair (pair #t): ...``.
    """

    def __init__(self, message: str, pair_index: int):
        super().__init__(f"inconsistent pair (pair #{pair_index}): {message}")
        self.pair_index = pair_index


class RecoveryTree:
    """Partition refinement over matched plain/cipher position sets.

    The leaves of the paper's L-ary tree are held as three flat int64 arrays
    over the whole grid.  ``_plain`` and ``_cipher`` list the positions of
    every leaf, singletons included, leaf after leaf, ascending (row-major)
    inside each leaf; ``_label`` numbers the leaf of each entry 0..K-1 and
    never decreases along the arrays.
    """

    def __init__(self, rows: int, cols: int, arity: int = 2):
        if rows < 1 or cols < 1:
            raise ShapeError(f"grid must be at least 1x1, got {rows}x{cols}")
        if not 2 <= arity <= 256:
            raise ValueError(f"arity must be in [2, 256], got {arity}")
        self.rows = rows
        self.cols = cols
        self.arity = arity
        self._plain = np.arange(rows * cols, dtype=np.int64)
        self._cipher = self._plain.copy()
        self._label = np.zeros(rows * cols, dtype=np.int64)
        self.positions_processed = 0

    def refine(self, pairs) -> None:
        """Split every leaf by the values of a batch of pairs.

        Each side is ordered by one stable ``np.lexsort`` over (leaf label,
        value in pair 0, value in pair 1, ...), with the values packed
        16 // bits-per-value pairs to a uint16 key, the first pair most
        significant, so that NumPy sorts each key with a radix sort.  That
        order ends at the leaves refining pair by pair reaches: in
        lexicographic order of value sequence, row-major inside each leaf.
        One pass over the pairs then reads the split off the sorted arrays:
        a new leaf starts wherever a pair's value changes.  Pair t's sorted
        plain and cipher values must agree, or some leaf would send different
        numbers of plain and cipher positions to one value sequence, and no
        permutation fitting the pairs before t maps pair t's plaintext onto
        its ciphertext.  Then InconsistentPair is raised with index t before
        the tree is touched, so the whole batch is rejected.  Every pair's
        shape is checked before any sort.
        """
        flats = []
        for index, (p, c) in enumerate(pairs):
            try:
                pgrid, cgrid = _as_grid(p, self.arity), _as_grid(c, self.arity)
                if not pgrid.shape == cgrid.shape == (self.rows, self.cols):
                    raise ShapeError(
                        f"plain/cipher grid shapes {pgrid.shape}/{cgrid.shape} do not "
                        f"match tree grid {self.rows}x{self.cols}"
                    )
            except ShapeError as exc:
                raise ShapeError(f"pair #{index}: {exc}") from None
            # Values lie below arity <= 256, so uint8 holds them exactly.
            flats.append(tuple(g.reshape(-1).astype(np.uint8, copy=False) for g in (pgrid, cgrid)))

        width = (self.arity - 1).bit_length()  # bits per value
        step = 16 // width  # pairs per uint16 sort key
        label = self._label
        sides = []
        for side, positions in enumerate((self._plain, self._cipher)):
            keys = [label]
            for first in range(0, len(flats), step):
                key = np.zeros(len(label), dtype=np.uint16)
                for flat in flats[first : first + step]:
                    key <<= width
                    key |= flat[side]
                keys.append(key[positions])
            # np.lexsort's last key is its primary one.  Stable, so each new
            # leaf keeps ascending (row-major) order, which the in-order
            # pairing of estimate_map relies on.
            sides.append(positions[np.lexsort(keys[::-1])])
        plain, cipher = sides

        # The sorted labels are the labels: they never decrease.
        starts = np.ones(len(label), dtype=bool)
        np.not_equal(label[1:], label[:-1], out=starts[1:])
        processed = 0
        for index, (pflat, cflat) in enumerate(flats):
            values = pflat[plain]
            if not (values == cflat[cipher]).all():
                raise InconsistentPair(
                    "plain/cipher value counts disagree inside a leaf; the pair "
                    "was not produced by a pure position permutation consistent "
                    "with the earlier pairs",
                    index,
                )
            # The count refining pair by pair makes: 2 x the positions in
            # multi-position leaves before each pair.
            singletons = int(np.count_nonzero(starts[:-1] & starts[1:]) + starts[-1])
            processed += 2 * (len(starts) - singletons)
            starts[1:] |= values[1:] != values[:-1]

        self._plain, self._cipher, self._label = plain, cipher, np.cumsum(starts) - 1
        self.positions_processed += processed

    def leaf_sets(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Copies of every leaf's (plain positions, cipher positions), in
        leaf order, singletons included."""
        bounds = np.cumsum(np.bincount(self._label))[:-1]
        plain, cipher = self._plain.copy(), self._cipher.copy()
        return list(zip(np.split(plain, bounds), np.split(cipher, bounds)))

    @property
    def leaf_count(self) -> int:
        return int(self._label[-1]) + 1

    @property
    def singleton_fraction(self) -> float:
        """Fraction of grid positions already pinned with certainty."""
        return int(np.count_nonzero(np.bincount(self._label) == 1)) / len(self._label)

    def residual_ambiguity(self) -> float:
        """log2 of the number of permutations consistent with all pairs.

        That count is the product over leaves of cardinality!, accumulated in
        log space; zero means unique recovery.
        """
        # Summed in leaf order: reports and sweep CSVs are compared byte for
        # byte.  Singletons add lgamma(2) = 0.0 and are skipped.
        sizes = np.bincount(self._label)
        total = 0.0
        for cardinality in sizes[sizes > 1].tolist():
            total += lgamma(cardinality + 1)
        return total / log(2.0)

    def estimate_map(self) -> PermutationMap:
        """Pick one consistent permutation: pair each leaf's k-th plain
        position with its k-th cipher position, both in row-major order."""
        target = np.empty(len(self._plain), dtype=np.int64)
        target[self._plain] = self._cipher
        return PermutationMap(self.rows, self.cols, target)


@dataclass
class AttackReport:
    """Outcome summary of one attack run."""

    pairs_used: int
    leaf_count: int
    singleton_fraction: float
    residual_log2: float
    predicted_pb: float
    positions_processed: int
    elapsed: float  # seconds

    CSV_HEADER: ClassVar[str] = (
        "n0,P,singleton_fraction,residual_log2,predicted_pb,positions_processed,elapsed_ms"
    )

    def to_csv_row(self) -> str:
        return (
            f"{self.pairs_used},{self.leaf_count},{self.singleton_fraction:.6f},"
            f"{self.residual_log2:.6f},{self.predicted_pb:.6f},"
            f"{self.positions_processed},{self.elapsed * 1000.0:.3f}"
        )


def min_known_plaintexts(height: int, width: int) -> int:
    """Smallest pair count for which the paper's p_b exceeds 1/2.

    p_b (see :func:`predicted_bit_accuracy`) is a per-position lower bound on
    placing one bit right, not the held-out bit accuracy, which never falls
    below 1/2.  This is the least n0 strictly greater than
    ceil(log2(8*M*N - 1)), computed exactly via bit_length.
    """
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be >= 1")
    return (8 * height * width - 2).bit_length() + 1


def recovery_probability(grid_size: int, levels: int, n0: int) -> float:
    """The paper's p_b: a lower bound on the chance that one grid element is
    placed correctly.

    Each of the grid_size - 1 wrong candidates survives n0 independent
    uniform pairs with probability levels**-n0, so the survivor count K is
    binomial and a uniform pick among the 1 + K candidates is right with
    chance E[1/(1+K)].  p_b = 1/(1 + E[K]) is the Jensen lower bound of that
    expectation; :func:`expected_recovery_fraction` gives it exactly.
    Neither is a held-out accuracy: a misplaced element can still carry the
    right value by chance.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    return 1.0 / (1.0 + (grid_size - 1) / (levels**n0))


def expected_recovery_fraction(grid_size: int, levels: int, n0: int) -> float:
    """Exact E[1/(1+K)], K ~ Binomial(grid_size - 1, q), q = levels**-n0.

    Closed form (1 - (1-q)**G) / (G*q) with G = grid_size.  It also equals
    E[leaf_count] / G: n0 uniform pairs give each element one of levels**n0
    value sequences, and the leaves are the sequences that occur.  So it is
    the expected permutation accuracy of a uniformly drawn consistent map.
    Strictly above :func:`recovery_probability` whenever G > 1 (Jensen).
    Evaluated with expm1/log1p, and 1.0 once q underflows, so large n0
    gives 1.0 rather than 0 or NaN.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    q = levels**-n0
    if q == 0.0:  # no wrong candidate can survive
        return 1.0
    return -expm1(grid_size * log1p(-q)) / (grid_size * q)


def predicted_bit_accuracy(height: int, width: int, n0: int) -> float:
    """p_b on the bit grid, 1 / (1 + (8*M*N - 1) / 2**n0).

    The per-position Jensen lower bound on placing one bit right, see
    :func:`recovery_probability`.  It has no 1/2 floor, so it is not the
    held-out bit accuracy: a misplaced bit still matches half the time.
    """
    return recovery_probability(8 * height * width, 2, n0)


def error_bit_pmf(height: int, width: int, n0: int) -> np.ndarray:
    """The paper's model of the number of misplaced bits in one pixel.

    Binomial over the 8 bit planes with per-bit success p_b =
    predicted_bit_accuracy(height, width, n0), the per-position Jensen lower
    bound; entries i = 0..8 sum to one.
    It assumes the bits of a pixel are placed independently and counts every
    misplaced bit as wrong, with no 1/2 floor.  The attack delivers neither:
    misplacements cluster by pixel, and a misplaced bit still matches half
    the time.
    """
    pb = predicted_bit_accuracy(height, width, n0)
    return np.array([comb(8, i) * (1.0 - pb) ** i * pb ** (8 - i) for i in range(9)])


def chosen_plaintext_count(height: int, width: int) -> int:
    """ceil(log2(8*M*N)): images needed to give every position a distinct label."""
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be >= 1")
    return (8 * height * width - 1).bit_length()


def construct_chosen_plaintexts(height: int, width: int) -> list[np.ndarray]:
    """Images whose bit-planes spell out a distinct label per grid position.

    Labelling the M x 8N grid 0..8MN-1 in row-major order, image t carries
    bit t of every label in its bit grid.  Any position's value sequence
    across the encrypted set is then unique, so refinement drives every leaf
    down to a singleton and recovery is exact.
    """
    count = chosen_plaintext_count(height, width)
    labels = np.arange(height * 8 * width, dtype=np.int64).reshape(height, 8 * width)
    return [pack_to_image(((labels >> t) & 1).astype(np.uint8)) for t in range(count)]


def attack(pairs, mode: str = "bit") -> tuple[PermutationMap, AttackReport]:
    """Recover the permutation from plaintext/ciphertext image pairs.

    mode "bit": pairs are expanded to M x 8N bit grids and refined with
    L = 2, breaking the bit-permutation cipher.  mode "byte": pixel grids
    are refined directly with L = 256, which breaks any permutation-only
    scheme on bytes.  All pairs are refined as one batch, one sort per
    side.  Returns the estimated map plus an AttackReport; positions_processed
    in the report is the pair-by-pair algorithm's count, read off the sorted
    arrays, and certifies the linear work bound (at most 2 * n0 * grid
    positions) without tallying the work done.
    """
    if mode not in ("bit", "byte"):
        raise ValueError(f"mode must be 'bit' or 'byte', got {mode!r}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("attack needs at least one plain/cipher pair")

    start = time.perf_counter()
    if mode == "bit":
        grids = [(expand_to_bits(p), expand_to_bits(c)) for p, c in pairs]
        arity = 2
    else:
        grids = [(_as_image(p), _as_image(c)) for p, c in pairs]
        arity = 256
    rows, cols = grids[0][0].shape
    # refine rejects every grid whose shape differs from the first one's.
    tree = RecoveryTree(rows, cols, arity)
    tree.refine(grids)
    estimate = tree.estimate_map()
    report = AttackReport(
        pairs_used=len(pairs),
        leaf_count=tree.leaf_count,
        singleton_fraction=tree.singleton_fraction,
        residual_log2=tree.residual_ambiguity(),
        predicted_pb=recovery_probability(rows * cols, arity, len(pairs)),
        positions_processed=tree.positions_processed,
        elapsed=time.perf_counter() - start,
    )
    return estimate, report
