"""Logistic-map keystream and the rank-order permutation schedules built from it.

The cipher draws all of its secret material from one real-valued orbit of the
logistic map x -> mu*x*(1-x).  A contiguous segment of the orbit is turned
into a permutation by ranking: position of the largest sample first, then the
second largest, and so on.  One segment orders the image rows, and one
segment per row orders the bits inside that row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Control parameters below this threshold leave the map's periodic window;
# the cipher's key space is the chaotic band up to (but excluding) 4.
MU_MIN = 3.569945672
MU_MAX = 4.0
# Key lines come from outside the program; these caps keep a key from
# demanding an unbounded orbit (memory) or round count (time).
MAX_OFFSET = 2**20
MAX_ROUNDS = 64


class InvalidKeyDomain(ValueError):
    """A key component lies outside its admissible interval."""


@dataclass(frozen=True)
class Key:
    """Five-component secret key of the permutation cipher.

    x0          initial condition of the logistic map, in the open (0, 1)
    mu          control parameter, in the open (MU_MIN, 4)
    row_offset  orbit samples skipped before the row-ranking segment, in [1, MAX_OFFSET]
    col_offset  orbit samples skipped before the per-row bit segments, in [1, MAX_OFFSET]
    rounds      number of times the whole permutation pass is repeated, in [1, MAX_ROUNDS]

    The on-disk key line ``x0 mu m n T`` maps onto the fields in this order
    (see :func:`parse_key`).
    """

    x0: float
    mu: float
    row_offset: int
    col_offset: int
    rounds: int

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise InvalidKeyDomain(f"x0 must lie strictly inside (0, 1), got {self.x0}")
        if not MU_MIN < self.mu < MU_MAX:
            raise InvalidKeyDomain(
                f"mu must lie strictly inside ({MU_MIN}, {MU_MAX}), got {self.mu}"
            )
        for name, cap in (
            ("row_offset", MAX_OFFSET),
            ("col_offset", MAX_OFFSET),
            ("rounds", MAX_ROUNDS),
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or not 1 <= value <= cap:
                raise InvalidKeyDomain(f"{name} must be an integer in [1, {cap}], got {value!r}")


def generate_sequence(key: Key, length: int) -> np.ndarray:
    """The first ``length`` iterates of the map from ``key.x0``, seed excluded.

    Element 0 is already one step past the seed, so seeds x0 and 1-x0 yield
    identical sequences (the map is symmetric about 1/2).
    """
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    mu = key.mu
    x = key.x0
    out = np.empty(length, dtype=np.float64)
    for k in range(length):
        # f(x) = f(1-x) holds exactly in real arithmetic.  Evaluating every
        # step at the upper representative of {x, 1-x} makes it hold
        # bit-exactly in floats too: 1-x is exact for x in [0.5, 1]
        # (Sterbenz), so both members of a mirrored pair fold to one double.
        y = 1.0 - x
        if x < y < 1.0:
            x = y
        x = mu * x * (1.0 - x)
        out[k] = x
    return out


def build_schedule(key: Key, rows: int, cols: int):
    """Derive one round's permutation schedule for a rows x cols grid.

    Returns ``(row_perm, col_perms, final_state)``: the row ranking (length
    ``rows``), one ranking of length ``cols`` per row (a ``rows x cols``
    array), and the orbit's last state for reseeding the next round.  The
    orbit is generated to length max(row_offset + rows, col_offset +
    rows*cols), exactly long enough for both segment families.
    """
    if rows < 1 or cols < 1:
        raise ValueError("schedule needs rows >= 1 and cols >= 1")
    length = max(key.row_offset + rows, key.col_offset + rows * cols)
    v = generate_sequence(key, length)
    # Rank from largest to smallest sample; ties keep left-to-right order.
    row_perm = np.argsort(-v[key.row_offset : key.row_offset + rows], kind="stable")
    col_segments = v[key.col_offset : key.col_offset + rows * cols].reshape(rows, cols)
    col_perms = np.argsort(-col_segments, axis=1, kind="stable")
    return row_perm, col_perms, float(v[-1])


def trajectory_histogram(x0: float, mu: float, count: int, bins: int) -> np.ndarray:
    """Histogram of the first ``count`` iterates over (0, 1).

    Bin b covers [b/bins, (b+1)/bins).  Chaotic-band orbits are visibly
    non-uniform, which is what makes the ranking schedule weak randomness.
    """
    if bins < 1 or count < bins:
        raise ValueError("need count >= bins >= 1")
    values = generate_sequence(Key(x0, mu, 1, 1, 1), count)
    counts, _ = np.histogram(values, bins=bins, range=(0.0, 1.0))
    return counts


def random_key(rng: np.random.Generator, max_offset: int = 64, max_rounds: int = 4) -> Key:
    """Draw a uniformly random key, for experiments.

    Offsets and round count stay small so that orbit generation, the cost of
    which is linear in offset + grid size, does not dominate experiment time.
    """
    x0 = float(rng.uniform(0.0, 1.0))
    while x0 == 0.0:
        x0 = float(rng.uniform(0.0, 1.0))
    mu = float(rng.uniform(MU_MIN, MU_MAX))
    while mu <= MU_MIN:
        mu = float(rng.uniform(MU_MIN, MU_MAX))
    return Key(
        x0=x0,
        mu=mu,
        row_offset=int(rng.integers(1, max_offset + 1)),
        col_offset=int(rng.integers(1, max_offset + 1)),
        rounds=int(rng.integers(1, max_rounds + 1)),
    )


def parse_key(text: str) -> Key:
    """Parse the one-line key format ``x0 mu m n T``."""
    fields = text.split()
    if len(fields) != 5:
        raise InvalidKeyDomain(
            f"key line must hold exactly 5 fields 'x0 mu m n T', got {len(fields)}"
        )
    try:
        x0, mu = float(fields[0]), float(fields[1])
    except ValueError as exc:
        raise InvalidKeyDomain(f"malformed key line: {exc}") from exc
    # int() would also take '+1', '1_0' and non-ASCII digits.
    if not all(f.isascii() and f.isdigit() for f in fields[2:]):
        raise InvalidKeyDomain(f"malformed key line: m n T must be ASCII digits, got {fields[2:]}")
    m, n, t = (int(f) for f in fields[2:])
    return Key(x0=x0, mu=mu, row_offset=m, col_offset=n, rounds=t)


def format_key(key: Key) -> str:
    """Inverse of :func:`parse_key`."""
    return f"{key.x0!r} {key.mu!r} {key.row_offset} {key.col_offset} {key.rounds}"
