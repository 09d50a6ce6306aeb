"""Partition-refinement attack on permutation-only ciphers.

Every plaintext/ciphertext pair splits the position grid by element value: a
plain position showing value v can only have moved to a cipher position
showing value v in the same pair.  Iterating this over pairs refines two
matched partitions of the grid: the leaves of the paper's L-ary tree, whose
root holds the whole grid.  A leaf of cardinality one pins a plain position
to its cipher position with certainty; a leaf of cardinality c leaves c!
orderings open.  The leaves are kept as flat label arrays, so one pair is a
few whole-array passes (key by leaf and value, stable sort, split where the
key changes).  Each unpinned position is touched once per side, never
compared pairwise, so the work per pair is linear in the grid.

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
    """A pair whose value multisets cannot come from one position permutation.

    Raised before any leaf of the tree is modified, so the tree still
    reflects exactly the pairs accepted so far.  When raised through
    :func:`attack`, ``pair_index`` names the offending pair.
    """

    def __init__(self, message: str, pair_index: int | None = None):
        super().__init__(message)
        self.pair_index = pair_index


class RecoveryTree:
    """Partition refinement over matched plain/cipher position sets.

    The leaves of the paper's L-ary tree are held as flat int64 arrays.
    ``_plain`` and ``_cipher`` list the positions of every leaf with more than
    one position, leaf after leaf, ascending (row-major) inside each leaf;
    ``_label`` numbers the leaf of each entry 0..K-1 and never decreases along
    the arrays.  ``_pinned`` maps each plain position already pinned by a
    singleton leaf to its cipher position, and holds -1 everywhere else.
    """

    def __init__(self, rows: int, cols: int, arity: int = 2):
        if rows < 1 or cols < 1:
            raise ShapeError(f"grid must be at least 1x1, got {rows}x{cols}")
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.rows = rows
        self.cols = cols
        self.arity = arity
        size = rows * cols
        self._pinned = np.full(size, -1, dtype=np.int64)
        self._plain = np.arange(size, dtype=np.int64)
        if size == 1:  # the whole grid is already a singleton leaf
            self._pinned[0] = 0
            self._plain = self._plain[:0]
        self._cipher = self._plain.copy()
        self._label = np.zeros(len(self._plain), dtype=np.int64)
        self.positions_processed = 0

    def refine(self, plain, cipher) -> None:
        """Split every multi-position leaf by element value, using one pair.

        Each unpinned position is keyed by (leaf, value) on its own side and
        both sides are sorted by key.  The sorted keys must agree, or some
        leaf would send different numbers of plain and cipher positions to
        one value, the pair cannot be a permutation of the accepted history,
        and InconsistentPair is raised with the tree untouched.  Pinned
        positions are skipped: they can never split again.
        """
        pgrid, cgrid = _as_grid(plain, self.arity), _as_grid(cipher, self.arity)
        if not pgrid.shape == cgrid.shape == (self.rows, self.cols):
            raise ShapeError(
                f"plain/cipher grid shapes {pgrid.shape}/{cgrid.shape} do not match "
                f"tree grid {self.rows}x{self.cols}"
            )
        pflat, cflat = pgrid.reshape(-1), cgrid.reshape(-1)

        base = self._label * self.arity
        pkey = base + pflat[self._plain]
        ckey = base + cflat[self._cipher]
        # Stable sorts keep ascending (row-major) order inside each new leaf,
        # which the in-order pairing of estimate_map relies on.
        porder = np.argsort(pkey, kind="stable")
        corder = np.argsort(ckey, kind="stable")
        pkey = pkey[porder]
        if not np.array_equal(pkey, ckey[corder]):
            raise InconsistentPair(
                "plain/cipher value counts disagree inside a leaf; the pair "
                "was not produced by a pure position permutation consistent "
                "with the earlier pairs"
            )

        starts = np.ones(len(pkey), dtype=bool)
        np.not_equal(pkey[1:], pkey[:-1], out=starts[1:])
        leaf = np.cumsum(starts) - 1
        multi = np.bincount(leaf) > 1
        keep = multi[leaf]
        plain_sorted = self._plain[porder]
        cipher_sorted = self._cipher[corder]
        self._pinned[plain_sorted[~keep]] = cipher_sorted[~keep]
        self._plain = plain_sorted[keep]
        self._cipher = cipher_sorted[keep]
        self._label = (np.cumsum(multi) - 1)[leaf[keep]]
        self.positions_processed += 2 * len(pkey)

    def leaf_sets(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Copies of every leaf's (plain positions, cipher positions):
        singletons in plain-position order, then the larger leaves."""
        pinned = np.flatnonzero(self._pinned >= 0)
        plain = np.concatenate((pinned, self._plain))
        cipher = np.concatenate((self._pinned[pinned], self._cipher))
        sizes = np.concatenate((np.ones(len(pinned), dtype=np.int64), np.bincount(self._label)))
        bounds = np.cumsum(sizes)[:-1]
        return list(zip(np.split(plain, bounds), np.split(cipher, bounds)))

    @property
    def leaf_count(self) -> int:
        active_leaves = int(self._label[-1]) + 1 if len(self._label) else 0
        return self.rows * self.cols - len(self._plain) + active_leaves

    @property
    def singleton_fraction(self) -> float:
        """Fraction of grid positions already pinned with certainty."""
        size = self.rows * self.cols
        return (size - len(self._plain)) / size

    def residual_ambiguity(self) -> float:
        """log2 of the number of permutations consistent with all pairs.

        That count is the product over leaves of cardinality!, accumulated in
        log space; zero means unique recovery.
        """
        # Summed in leaf order: reports and sweep CSVs are compared byte for byte.
        total = 0.0
        for cardinality in np.bincount(self._label).tolist():
            total += lgamma(cardinality + 1)
        return total / log(2.0)

    def estimate_map(self) -> PermutationMap:
        """Pick one consistent permutation: pair each leaf's k-th plain
        position with its k-th cipher position, both in row-major order."""
        target = self._pinned.copy()
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
    scheme on bytes.  Returns the estimated map plus an AttackReport;
    positions_processed in the report certifies the linear work bound
    (at most 2 * n0 * grid positions).
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
    for index, (plain_grid, cipher_grid) in enumerate(grids):
        try:
            tree.refine(plain_grid, cipher_grid)
        except InconsistentPair as exc:
            exc.pair_index = index
            raise
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
