"""The bit-permutation image cipher and its equivalent-key representation.

An 8-bit grayscale image of height M and width N is expanded into an
M x 8N binary matrix (least-significant bit first inside each byte).  The
cipher is defined by rounds: each round gathers whole rows by the row
ranking, then gathers bits inside every row by that row's column ranking;
the pass is repeated ``key.rounds`` times, reseeding the orbit from its own
final state between rounds.  Because the scheme only moves bits and never
changes them, its entire effect is one fixed bijection on the M x 8N
position grid, captured here as a :class:`PermutationMap` and usable as an
equivalent decryption key.  That map is also the implementation:
:func:`compose_permutation` runs the rounds once per key and shape, and
:func:`encrypt` and :func:`decrypt` are a single pass through the map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .keystream import Key, build_schedule
from .pgm import _path_in_errors

# Lines of a map file built per write: large enough that the per-chunk cost
# vanishes (65536 was no faster), small enough that one chunk's buffer is tens
# of kilobytes.
MAP_CHUNK_LINES = 4096


class ShapeError(ValueError):
    """Operands with incompatible or invalid dimensions."""


def _as_grid(grid, levels: int) -> np.ndarray:
    """The one check of a grid of L-level values: the M x 8N bit grid
    (L = 2), the M x N pixel grid (L = 256) or a recovery-tree grid.

    Accepts only a non-empty 2-D array of integer dtype (bool counts as 0/1)
    with every entry in [0, levels), and returns it uncopied.
    """
    arr = np.asarray(grid)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"grid must be a non-empty 2-D array, got shape {arr.shape}")
    kind = arr.dtype.kind
    # Bool is 0/1 already and uint8 cannot pass 255: no pass over the data.
    if kind == "b" or (levels > 255 and arr.dtype == np.uint8):
        return arr
    if kind not in "iu" or (kind == "i" and arr.min() < 0) or arr.max() >= levels:
        raise ShapeError(f"grid values must be integers in [0, {levels})")
    return arr


def _as_image(img) -> np.ndarray:
    return _as_grid(img, 256).astype(np.uint8, copy=False)


def expand_to_bits(img) -> np.ndarray:
    """M x N image -> M x 8N bit matrix, bit l = 8j+k carrying weight 2**k."""
    return np.unpackbits(_as_image(img), axis=1, bitorder="little")


def pack_to_image(bits) -> np.ndarray:
    """Exact inverse of :func:`expand_to_bits`."""
    arr = _as_grid(bits, 2)
    if arr.shape[1] % 8 != 0:
        raise ShapeError(f"bit matrix width must be a multiple of 8, got {arr.shape[1]}")
    return np.packbits(arr, axis=1, bitorder="little")


@dataclass(frozen=True)
class PermutationMap:
    """Bijection on the rows x cols position grid.

    target[i*cols + l] is the flat destination of position (i, l): applying
    the map moves the value at (i, l) there.  Ground-truth maps come from
    :func:`compose_permutation`; estimated ones from the recovery tree.
    """

    rows: int
    cols: int
    target: np.ndarray

    def __post_init__(self):
        n = self.rows * self.cols
        t = self.target
        if t.dtype.kind not in "iu":
            raise ShapeError(f"target must hold integers, got dtype {t.dtype}")
        if t.shape != (n,):
            raise ShapeError(f"target must be flat of length {n}, got shape {t.shape}")
        if ((t < 0) | (t >= n)).any():
            raise ShapeError(f"target has an entry outside [0, {n})")
        # n in-range entries that hit every cell hit each cell exactly once.
        seen = np.zeros(n, dtype=bool)
        seen[t] = True
        if not seen.all():
            raise ShapeError("target does not define a bijection on the grid")


@lru_cache(maxsize=1)
def compose_permutation(key: Key, height: int, width: int) -> PermutationMap:
    """Collapse the full multi-round cipher into a single position bijection.

    The returned map W satisfies: for every image, the cipher bit at W(i, l)
    equals the plain bit at (i, l).  The last map built is cached, so
    encrypting many images under one key and shape builds it once; its
    target is read-only because every caller shares it.
    """
    cols = 8 * width
    size = height * cols
    # Each round is a gather out[q] = in[src[q]]; compose the gathers, then
    # invert to express "where does plain position p end up".  Round 1 is
    # seeded by the key, every later round by its predecessor's final state.
    gather = np.arange(size, dtype=np.int64)
    x0 = key.x0
    for _ in range(key.rounds):
        row_perm, col_perms, x0 = build_schedule(replace(key, x0=x0), height, cols)
        gather = gather[(row_perm[:, None] * cols + col_perms).reshape(-1)]
    target = np.empty(size, dtype=np.int64)
    target[gather] = np.arange(size, dtype=np.int64)
    target.flags.writeable = False
    return PermutationMap(height, cols, target)


def encrypt(img, key: Key) -> np.ndarray:
    """Encrypt a grayscale image under ``key``: one scatter through its map."""
    bits = expand_to_bits(img)
    return pack_to_image(apply_map(compose_permutation(key, *np.shape(img)), bits))


def decrypt(img, key: Key) -> np.ndarray:
    """Invert :func:`encrypt`: one gather back through the same map."""
    bits = expand_to_bits(img)
    return pack_to_image(apply_inverse(compose_permutation(key, *np.shape(img)), bits))


def _flat_on(pmap: PermutationMap, grid) -> np.ndarray:
    """The grid flattened, once its shape is checked against the map's."""
    g = np.asarray(grid)
    if g.shape != (pmap.rows, pmap.cols):
        raise ShapeError(f"grid shape {g.shape} does not match map {pmap.rows}x{pmap.cols}")
    return g.reshape(-1)


def apply_map(pmap: PermutationMap, grid) -> np.ndarray:
    """Scatter a value grid through the map: out[W(p)] = in[p]."""
    flat = _flat_on(pmap, grid)
    out = np.empty_like(flat)
    out[pmap.target] = flat
    return out.reshape(pmap.rows, pmap.cols)


def apply_inverse(pmap: PermutationMap, grid) -> np.ndarray:
    """Gather back through the map: out[p] = in[W(p)].

    With an estimated map this is decryption by equivalent key.
    """
    return _flat_on(pmap, grid)[pmap.target].reshape(pmap.rows, pmap.cols)


def _digit_table(count: int, end: bytes) -> np.ndarray:
    """Row v holds the decimal digits of v (NumPy's integer-to-bytes cast),
    then the byte ``end``, then NUL padding up to the widest row; one raw
    (void) item per row."""
    table = np.char.add(np.arange(count).astype(f"S{len(str(count - 1))}"), end)
    return table.view(f"V{table.itemsize}")


def save_permutation(pmap: PermutationMap, path) -> None:
    """Write a map as text: header ``rows cols``, then one ``i l i' l'`` per line.

    The bytes are those ``np.savetxt(fmt="%d")`` writes (single spaces, ``\\n``
    endings, no padding).  Each chunk of lines is gathered from per-shape digit
    tables into one fixed-width record per line; every field's NUL padding
    sits after its separator, and all NULs are dropped from the bytes.
    """
    rows, cols = pmap.rows, pmap.cols
    row, col = _digit_table(rows, b" "), _digit_table(cols, b" ")
    tables = (row, col, row, _digit_table(cols, b"\n"))
    line = np.dtype([(f"f{k}", table.dtype) for k, table in enumerate(tables)])
    with open(path, "wb") as fh:
        fh.write(b"%d %d\n" % (rows, cols))
        for start in range(0, pmap.target.size, MAP_CHUNK_LINES):
            dst = pmap.target[start : start + MAP_CHUNK_LINES]
            src = np.arange(start, start + dst.size)
            buf = np.empty(dst.size, dtype=line)
            for name, table, index in zip(
                line.names, tables, (src // cols, src % cols, dst // cols, dst % cols)
            ):
                buf[name] = table[index]
            fh.write(buf.tobytes().replace(b"\0", b""))


@_path_in_errors
def load_permutation(path) -> PermutationMap:
    """Inverse of :func:`save_permutation`."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline()
        header = line.split()
        if len(header) != 2 or not all(f.isdigit() and int(f) >= 1 for f in header):
            raise ShapeError(
                f"permutation file must start with a 'rows cols' header of two integers >= 1, "
                f"got {line.strip()!r}"
            )
        rows, cols = int(header[0]), int(header[1])
        # loadtxt warns on input without data, so look for a data line first.
        first = next((text for text in fh if text.strip()), None)
        quads = (
            np.empty((0, 4), dtype=np.int64)
            if first is None
            else np.loadtxt(itertools.chain([first], fh), dtype=np.int64, ndmin=2, comments=None)
        )
    if quads.shape != (rows * cols, 4):
        raise ShapeError(
            f"expected {rows * cols} quadruples of 4 fields, got shape {quads.shape}"
        )
    # An index outside the grid would alias another cell (or fall off the
    # end), and a repeated source cell would leave another cell unfilled.
    outside = ((quads < 0) | (quads >= [rows, cols, rows, cols])).any(axis=1)
    source = quads[:, 0] * cols + quads[:, 1]
    repeated = np.ones(len(source), dtype=bool)
    repeated[np.unique(source, return_index=True)[1]] = False
    for flags, problem in (
        (outside, f"has an index outside the {rows}x{cols} grid"),
        (repeated, "repeats an earlier source cell"),
    ):
        if flags.any():
            bad = int(np.argmax(flags))
            quad = " ".join(str(v) for v in quads[bad].tolist())
            raise ShapeError(f"quadruple {bad + 1} ({quad}) {problem}")
    target = np.empty(rows * cols, dtype=np.int64)
    target[source] = quads[:, 2] * cols + quads[:, 3]
    return PermutationMap(rows, cols, target)
