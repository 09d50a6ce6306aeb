"""Shared test oracles, kept deliberately naive and independent of the package
code paths they check."""

from __future__ import annotations

from dataclasses import replace
from math import comb

import numpy as np

from permbreak.keystream import build_schedule
from permbreak.recovery import InconsistentPair


def random_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def naive_median_3x3(img) -> np.ndarray:
    """Per-pixel 3x3 median: the window is clamped to the image, so edge
    pixels repeat, and the median is the middle of the 9 sorted values."""
    height, width = img.shape
    out = np.empty_like(img)
    for i in range(height):
        for j in range(width):
            window = [
                int(img[min(max(i + di, 0), height - 1), min(max(j + dj, 0), width - 1)])
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
            ]
            out[i, j] = sorted(window)[4]
    return out


def folded_step(x: float, mu: float) -> float:
    """One logistic-map step mu*x*(1-x), taken at the upper member of
    {x, 1-x} as the keystream does, so mirrored seeds agree bit-exactly."""
    y = 1.0 - x
    if x < y < 1.0:
        x = y
    return mu * x * (1.0 - x)


def reference_round(bits, row_perm, col_perms) -> list[list[int]]:
    """One round of the cipher's definition on a list-of-rows bit grid:
    output row i is input row row_perm[i], then output bit (i, l) is bit
    col_perms[i][l] of that gathered row."""
    gathered = [list(bits[int(r)]) for r in row_perm]
    return [[row[int(c)] for c in col_perms[i]] for i, row in enumerate(gathered)]


def reference_encrypt(img, key) -> np.ndarray:
    """The cipher as the paper defines it, round by round.

    Bit l = 8j+k of row i is bit k (weight 2**k) of pixel (i, j).  Round 1
    is scheduled from the key; every later round reseeds x0 from the final
    orbit state that build_schedule returned for the round before.
    """
    pixels = np.asarray(img, dtype=np.uint8)
    height, width = pixels.shape
    bits = [
        [(int(pixels[i, l // 8]) >> (l % 8)) & 1 for l in range(8 * width)]
        for i in range(height)
    ]
    x0 = key.x0
    for _ in range(key.rounds):
        row_perm, col_perms, x0 = build_schedule(replace(key, x0=x0), height, 8 * width)
        bits = reference_round(bits, row_perm, col_perms)
    return np.array(
        [[sum(row[8 * j + k] << k for k in range(8)) for j in range(width)] for row in bits],
        dtype=np.uint8,
    )


def reference_refine(tree, pairs) -> None:
    """Refine a RecoveryTree one pair at a time, the way the attack did
    before it sorted whole batches: key every position by (leaf, value),
    stable-sort each side, check the sorted keys agree, split.  Every
    position, singleton leaves included, is checked against every pair.  A
    disagreeing pair raises InconsistentPair with its index, leaving the tree
    as the pairs before it left it.  Grids are assumed valid."""
    for index, (plain, cipher) in enumerate(pairs):
        pflat, cflat = np.asarray(plain).reshape(-1), np.asarray(cipher).reshape(-1)
        base = tree._label * tree.arity
        pkey = base + pflat[tree._plain]
        ckey = base + cflat[tree._cipher]
        porder = np.argsort(pkey, kind="stable")
        corder = np.argsort(ckey, kind="stable")
        pkey = pkey[porder]
        if not np.array_equal(pkey, ckey[corder]):
            raise InconsistentPair("sorted keys disagree", index)
        sizes = np.bincount(tree._label)
        tree.positions_processed += 2 * int(np.count_nonzero(sizes[tree._label] > 1))
        starts = np.ones(len(pkey), dtype=bool)
        np.not_equal(pkey[1:], pkey[:-1], out=starts[1:])
        tree._plain = tree._plain[porder]
        tree._cipher = tree._cipher[corder]
        tree._label = np.cumsum(starts) - 1


def naive_rank(segment) -> list[int]:
    """Selection-based ranking: repeatedly pick the largest remaining sample,
    earliest index first on ties."""
    seg = list(segment)
    remaining = list(range(len(seg)))
    order = []
    while remaining:
        best = remaining[0]
        for idx in remaining[1:]:
            if seg[idx] > seg[best]:
                best = idx
        order.append(best)
        remaining.remove(best)
    return order


def candidate_sets(plain_grids, cipher_grids) -> list[frozenset]:
    """For each plain position, intersect over pairs the cipher positions
    showing the same value.  Quadratic on purpose: this is the slow method
    the refinement tree replaces, used as an independent cross-check."""
    size = plain_grids[0].size
    cands = []
    for p in range(size):
        candidates: set | None = None
        for plain, cipher in zip(plain_grids, cipher_grids):
            value = plain.reshape(-1)[p]
            matching = {int(q) for q in np.flatnonzero(cipher.reshape(-1) == value)}
            candidates = matching if candidates is None else candidates & matching
        cands.append(frozenset(candidates))
    return cands


def intersection_partition(plain_grids, cipher_grids) -> set:
    """Partition induced by the candidate-set method, as a set of
    (plain position class, common cipher candidate set) pairs."""
    cands = candidate_sets(plain_grids, cipher_grids)
    groups: dict[frozenset, list[int]] = {}
    for position, candidates in enumerate(cands):
        groups.setdefault(candidates, []).append(position)
    return {(frozenset(positions), candidates) for candidates, positions in groups.items()}


def tree_partition(tree) -> set:
    """The tree's leaf partition in the same shape as intersection_partition."""
    return {
        (frozenset(int(p) for p in plain), frozenset(int(c) for c in cipher))
        for plain, cipher in tree.leaf_sets()
    }


def pixel_error_bit_pmf(sigma, positions) -> list[float]:
    """Distribution of the wrong-bit count of one recovered pixel, given the
    position map sigma = truth^-1 o estimate and the pixel's 8 bit positions.

    Decrypting a uniformly random held-out image h with the estimate reads
    h[sigma[q]] into position q, so bit q is wrong exactly when
    h[q] != h[sigma[q]].  A bit with sigma[q] == q is never wrong.  The
    misplaced bits are wrong independently with chance 1/2, except along a
    sigma-cycle that lies entirely inside the pixel: the differences around
    a cycle cancel, so its wrong-bit count is even, each even pattern
    equally likely.  Returns 9 probabilities for 0..8 wrong bits.
    """
    inside = set(int(q) for q in positions)
    pmf = [1.0]
    done: set[int] = set()
    for start in inside:
        if int(sigma[start]) == start or start in done:
            continue
        cycle = [start]
        q = int(sigma[start])
        while q != start and q in inside:
            cycle.append(q)
            q = int(sigma[q])
        if q == start:  # the whole cycle stays in the pixel
            done.update(cycle)
            c = len(cycle)
            factor = [comb(c, k) / 2 ** (c - 1) if k % 2 == 0 else 0.0 for k in range(c + 1)]
        else:
            factor = [0.5, 0.5]
        pmf = [
            sum(pmf[i] * factor[k - i] for i in range(len(pmf)) if 0 <= k - i < len(factor))
            for k in range(len(pmf) + len(factor) - 1)
        ]
    return pmf + [0.0] * (9 - len(pmf))
