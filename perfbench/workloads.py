"""The benchmark's workloads: input generation, CLI command lists and output checks.

Every input is drawn from the workload seed with plain NumPy, so the program
under test receives only files.  The checks compare the program's outputs with
ground truth the harness holds: the key's composed map for the chosen-plaintext
break, the harness's own byte permutation for the known-plaintext break, and
row invariants plus a recorded sha256 for the sweep CSV.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# Workload sizes: "full" is what the benchmark measures, "tiny" is the smoke test's.
SIZES = {
    "chosen-break": {"full": (128, 128), "tiny": (16, 16)},
    "byte-known": {"full": (512, 512), "tiny": (32, 32)},
    "sweep": {"full": 20, "tiny": 1},  # trials per n0 cell
}
BYTE_KNOWN_PAIRS = 3
CHOSEN_ROUNDS = 4  # T is fixed so the orbit work does not vary 4x between seeds
MU_MIN, MU_MAX = 3.569945672, 4.0  # the cipher's key domain for mu
SWEEP_N0 = range(4, 17)  # `permbreak sweep` defaults: 16x16 image, n0 4..16
SWEEP_GRID = 16 * 16 * 8
SWEEP_HEADER = (
    "seed,n0,trial,bit_accuracy,pixel_accuracy,perm_accuracy,"
    "singleton_fraction,residual_log2,predicted_pb,positions_processed"
)


@dataclass
class Pass:
    """One pass of a workload: the CLI argv lists, run in order in ``cwd``."""

    cwd: Path
    commands: list[list[str]]
    # Failed output checks, keyed by the index of the command they blame.
    failures: dict[int, list[str]] = field(default_factory=dict)
    perm_accuracy: float = 0.0

    def fail(self, command: int, message: str) -> None:
        self.failures.setdefault(command, []).append(message)


def write_pgm(path: Path, img: np.ndarray) -> None:
    height, width = img.shape
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + img.tobytes())


def read_pgm(path: Path) -> np.ndarray:
    """Reads the exact header layout `permbreak` writes (no comments)."""
    magic, dims, maxval, raster = path.read_bytes().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: unexpected PGM header")
    width, height = (int(v) for v in dims.split())
    if len(raster) != width * height:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {width * height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def read_map(path: Path) -> tuple[int, int, np.ndarray]:
    """Parse a `map.txt` (header ``rows cols``, then ``i l i' l'`` lines) into a
    flat target array, rejecting anything that is not a bijection."""
    header, body = path.read_text(encoding="ascii").split("\n", 1)
    rows, cols = (int(v) for v in header.split())
    quads = np.array(body.split(), dtype=np.int64).reshape(-1, 4)
    size = rows * cols
    if quads.shape[0] != size:
        raise ValueError(f"{path}: {quads.shape[0]} lines for a {rows}x{cols} grid")
    src = quads[:, 0] * cols + quads[:, 1]
    dst = quads[:, 2] * cols + quads[:, 3]
    if not (np.array_equal(np.sort(src), np.arange(size)) and np.array_equal(np.sort(dst), np.arange(size))):
        raise ValueError(f"{path}: not a bijection on the grid")
    target = np.empty(size, dtype=np.int64)
    target[src] = dst
    return rows, cols, target


def read_report(path: Path) -> dict[str, float]:
    header, row = path.read_text(encoding="ascii").split("\n")[:2]
    return dict(zip(header.split(","), (float(v) for v in row.split(","))))


def bits_of(img: np.ndarray) -> np.ndarray:
    """M x N bytes -> M x 8N bits, least significant bit first (the cipher's layout)."""
    return np.unpackbits(img, axis=1, bitorder="little")


class Workload:
    """Base: ``prepare`` writes the inputs, ``new_pass`` lays out one pass, ``check`` scores it."""

    name = ""
    stream = 0  # keeps the workloads' random streams apart for one seed

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng([seed, self.stream])

    def prepare(self, inputs: Path) -> None:
        raise NotImplementedError

    def new_pass(self, inputs: Path, out: Path) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass, inputs: Path) -> None:
        raise NotImplementedError


class ChosenBreak(Workload):
    """gen-chosen with a key, attack-known on its manifest, one single-image decrypt."""

    name = "chosen-break"
    stream = 1

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.height, self.width = SIZES[self.name][scale]
        self.grid = self.height * self.width * 8
        self.count = (self.grid - 1).bit_length()  # ceil(log2(8MN)) chosen images
        x0 = mu = 0.0
        while not (0.0 < x0 < 1.0 and MU_MIN < mu < MU_MAX):  # uniform() may return the low end
            x0, mu = float(self.rng.uniform(0.0, 1.0)), float(self.rng.uniform(MU_MIN, MU_MAX))
        m, n = (int(v) for v in self.rng.integers(1, 65, size=2))
        self.key_line = f"{x0!r} {mu!r} {m} {n} {CHOSEN_ROUNDS}"
        self.pick = int(self.rng.integers(self.count))  # the image decrypted and re-checked

    def prepare(self, inputs: Path) -> None:
        (inputs / "key.txt").write_text(self.key_line + "\n", encoding="ascii")

    def new_pass(self, inputs: Path, out: Path) -> Pass:
        key = str(inputs / "key.txt")
        return Pass(out, [
            ["gen-chosen", str(self.height), str(self.width), "--key", key, "--out", "gen"],
            ["attack-known", "gen/manifest.tsv", "--mode", "bit", "--out", "attack"],
            ["decrypt", f"gen/cipher_{self.pick:02d}.pgm", "decrypted.pgm", "--key", key],
        ])

    def truth(self) -> np.ndarray:
        # The program's own composition is the reference the issue names; it is
        # tied to `encrypt` by the ciphertext check below.
        from permbreak.cipher import compose_permutation
        from permbreak.keystream import parse_key

        return compose_permutation(parse_key(self.key_line), self.height, self.width).target

    def check(self, p: Pass, inputs: Path) -> None:
        truth = self.truth()
        gen = p.cwd / "gen"
        try:
            lines = (gen / "manifest.tsv").read_text(encoding="utf-8").split()
            if len(lines) != 2 * self.count:
                p.fail(0, f"manifest lists {len(lines) // 2} pairs, expected {self.count}")
            plain = bits_of(read_pgm(gen / f"chosen_{self.pick:02d}.pgm")).reshape(-1)
            cipher = bits_of(read_pgm(gen / f"cipher_{self.pick:02d}.pgm")).reshape(-1)
            if not np.array_equal(cipher[truth], plain):
                p.fail(0, f"cipher_{self.pick:02d} is not the composed map applied to its plaintext")
        except (OSError, ValueError) as exc:
            p.fail(0, f"gen-chosen output unreadable: {exc}")
        try:
            rows, cols, target = read_map(p.cwd / "attack" / "map.txt")
            if (rows, cols) != (self.height, 8 * self.width):
                raise ValueError(f"map.txt is {rows}x{cols}, expected the {self.height}x{8 * self.width} bit grid")
            p.perm_accuracy = float(np.mean(target == truth))
            if not np.array_equal(target, truth):
                p.fail(1, "map.txt differs from compose_permutation(K)")
            report = read_report(p.cwd / "attack" / "report.csv")
            if report["residual_log2"] != 0.0:
                p.fail(1, f"residual_log2 is {report['residual_log2']}, expected 0")
            if report["positions_processed"] > 2 * self.count * self.grid:
                p.fail(1, f"positions_processed {report['positions_processed']:.0f} exceeds 2*n0*grid")
        except (OSError, ValueError, KeyError) as exc:
            p.fail(1, f"attack-known output unreadable: {exc}")
        try:
            expected = (gen / f"chosen_{self.pick:02d}.pgm").read_bytes()
            if (p.cwd / "decrypted.pgm").read_bytes() != expected:
                p.fail(2, f"decrypted image differs from chosen_{self.pick:02d}.pgm")
        except OSError as exc:
            p.fail(2, f"decrypt output unreadable: {exc}")


class ByteKnown(Workload):
    """attack-known --mode byte on random pairs gathered through a random byte permutation."""

    name = "byte-known"
    stream = 2

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.height, self.width = SIZES[self.name][scale]
        size = self.height * self.width
        self.src = self.rng.permutation(size)  # cipher[q] = plain[src[q]]
        self.target = np.empty(size, dtype=np.int64)
        self.target[self.src] = np.arange(size)
        self.plains = self.rng.integers(0, 256, size=(BYTE_KNOWN_PAIRS, self.height, self.width), dtype=np.uint8)

    def prepare(self, inputs: Path) -> None:
        lines = []
        for t, plain in enumerate(self.plains):
            cipher = plain.reshape(-1)[self.src].reshape(plain.shape)
            write_pgm(inputs / f"plain_{t}.pgm", plain)
            write_pgm(inputs / f"cipher_{t}.pgm", cipher)
            lines.append(f"plain_{t}.pgm\tcipher_{t}.pgm\n")
        (inputs / "manifest.tsv").write_text("".join(lines), encoding="utf-8")

    def new_pass(self, inputs: Path, out: Path) -> Pass:
        return Pass(out, [["attack-known", str(inputs / "manifest.tsv"), "--mode", "byte", "--out", "attack"]])

    def check(self, p: Pass, inputs: Path) -> None:
        try:
            rows, cols, estimate = read_map(p.cwd / "attack" / "map.txt")
        except (OSError, ValueError) as exc:
            p.fail(0, f"attack-known output unreadable: {exc}")
            return
        if (rows, cols) != (self.height, self.width):
            p.fail(0, f"map.txt is {rows}x{cols}, expected the {self.height}x{self.width} byte grid")
            return
        p.perm_accuracy = float(np.mean(estimate == self.target))
        for t, plain in enumerate(self.plains):
            cipher = read_pgm(inputs / f"cipher_{t}.pgm").reshape(-1)
            # apply_inverse(estimate, cipher): out[p] = cipher[W(p)]
            if not np.array_equal(cipher[estimate], plain.reshape(-1)):
                p.fail(0, f"the recovered map does not decrypt known pair {t}")


class Sweep(Workload):
    """`permbreak sweep` at its defaults, seeded with the workload seed."""

    name = "sweep"
    stream = 3

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.trials = SIZES[self.name][scale]

    def prepare(self, inputs: Path) -> None:
        pass  # the sweep draws its own images and keys from --seed

    def new_pass(self, inputs: Path, out: Path) -> Pass:
        extra = [] if self.scale == "full" else ["--trials", str(self.trials)]
        return Pass(out, [["sweep", "--seed", str(self.seed), "--out", "sweep", *extra]])

    def check(self, p: Pass, inputs: Path) -> None:
        path = p.cwd / "sweep" / "sweep.csv"
        try:
            data = path.read_bytes()
        except OSError as exc:
            p.fail(0, f"sweep output unreadable: {exc}")
            return
        lines = data.decode("ascii").splitlines()
        if lines[:1] != [SWEEP_HEADER]:
            p.fail(0, "sweep.csv header differs")
            return
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(SWEEP_N0) * self.trials:
            p.fail(0, f"sweep.csv has {len(rows)} rows, expected {len(SWEEP_N0) * self.trials}")
        accuracies = []
        for line_no, row in enumerate(rows, 2):
            try:
                seed, n0, _ = (int(v) for v in row[:3])
                bit_acc, pixel_acc, perm_acc = (float(v) for v in row[3:6])
                processed = int(row[9])
            except (ValueError, IndexError):
                p.fail(0, f"sweep.csv:{line_no}: malformed row")
                continue
            if seed != self.seed or n0 not in SWEEP_N0:
                p.fail(0, f"sweep.csv:{line_no}: seed {seed} / n0 {n0} out of place")
            if not all(0.0 <= a <= 1.0 for a in (bit_acc, pixel_acc, perm_acc)):
                p.fail(0, f"sweep.csv:{line_no}: accuracy outside [0, 1]")
            if processed > 2 * n0 * SWEEP_GRID:
                p.fail(0, f"sweep.csv:{line_no}: positions_processed exceeds 2*n0*grid")
            accuracies.append(perm_acc)
        p.perm_accuracy = float(np.mean(accuracies)) if accuracies else 0.0
        recorded = json.loads((HERE / "sweep_sha256.json").read_text()).get(str(self.seed))
        if self.scale == "full" and recorded is not None and hashlib.sha256(data).hexdigest() != recorded:
            p.fail(0, f"sweep.csv sha256 differs from the value recorded for seed {self.seed}")


WORKLOADS = {w.name: w for w in (ChosenBreak, Sweep, ByteKnown)}
