"""Binary PGM (P5, maxval 255) reading and writing, and the error rule of
every file reader: a bad file raises a ValueError that starts with its path."""

from __future__ import annotations

import functools
import re

import numpy as np


def _path_in_errors(read):
    """Make every ValueError of ``read(path)`` start with the path, keeping its
    class; a decoding error, whose message is fixed, becomes a ValueError."""

    @functools.wraps(read)
    def reader(path):
        try:
            return read(path)
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise ValueError(f"{path}: not {exc.encoding} text: byte {bad:#04x}") from None
        except ValueError as exc:
            exc.args = (f"{path}: {exc}",)
            raise

    return reader


# Whitespace and '#' comments (to end of line), then one token.  In a bytes
# pattern, \s is exactly the set of bytes that bytes.isspace() accepts.
_TOKEN = re.compile(rb"\s*(?:#[^\n]*\s*)*(\S*)")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise ValueError("truncated PGM header")
    return match.group(1), match.end()


@_path_in_errors
def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into an M x N uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise ValueError(f"not a binary PGM (P5) file: magic {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_token(data, pos)
        if not token.isdigit():  # bytes: ASCII digits only, no sign or '_'
            raise ValueError(f"PGM {name} must be ASCII digits, got {token!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"invalid PGM dimensions {width}x{height}")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise ValueError("PGM raster shorter than header promises")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, img) -> None:
    """Write an M x N uint8 array as binary PGM, maxval 255."""
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError(f"need a 2-D uint8 array, got {arr.dtype} of shape {arr.shape}")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())
