"""Command-line front end: cipher I/O, attack pipelines, and experiment sweeps.

Subcommands: encrypt, decrypt, attack-known, gen-chosen, sweep, diagnostics.
Images travel as binary PGM, keys as one-line text files ``x0 mu m n T``,
pair manifests as tab-separated ``plain<TAB>cipher`` lines, and results as
CSV.  Every command validates the key domain before doing any work, and all
randomness flows from an explicit ``--seed`` so outputs are reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (
    bit_histogram,
    compare_images,
    demonstrate_equivalent_key,
    perm_accuracy,
)
from .cipher import (
    ShapeError,
    apply_inverse,
    compose_permutation,
    decrypt,
    encrypt,
    expand_to_bits,
    pack_to_image,
    save_permutation,
)
from .keystream import Key, parse_key, random_key, trajectory_histogram
from .pgm import _path_in_errors, read_pgm, write_pgm
from .recovery import InconsistentPair, attack, construct_chosen_plaintexts

# Trajectory defaults: a classic weak control parameter with two probe seeds.
TRAJECTORY_MU = 3.5786
TRAJECTORY_SEEDS = (0.3333, 0.5656)
TRAJECTORY_COUNT = 10_000
TRAJECTORY_BINS = 50

SWEEP_CSV_HEADER = (
    "seed,n0,trial,bit_accuracy,pixel_accuracy,perm_accuracy,"
    "singleton_fraction,residual_log2,predicted_pb,positions_processed"
)


@_path_in_errors
def _load_key(path: str) -> Key:
    with open(path, "r", encoding="ascii") as fh:
        return parse_key(fh.read())


@_path_in_errors
def _read_manifest(path: str) -> list[tuple[str, str]]:
    base = os.path.dirname(os.path.abspath(path))
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"line {line_no}: expected 'plain<TAB>cipher', got {line!r}")
            pairs.append(tuple(os.path.join(base, f) if not os.path.isabs(f) else f for f in fields))
    return pairs


def _decrypt_with_map(estimate, cipher_img) -> np.ndarray:
    return pack_to_image(apply_inverse(estimate, expand_to_bits(cipher_img)))


def _random_image(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    return rng.integers(0, 256, size=(height, width), dtype=np.uint8)


def cmd_encrypt(args) -> int:
    key = _load_key(args.key)
    write_pgm(args.output, encrypt(read_pgm(args.input), key))
    return 0


def cmd_decrypt(args) -> int:
    key = _load_key(args.key)
    write_pgm(args.output, decrypt(read_pgm(args.input), key))
    return 0


def cmd_attack_known(args) -> int:
    pairs = _read_manifest(args.manifest)
    if not pairs:
        print(f"error: manifest {args.manifest} lists no pairs", file=sys.stderr)
        return 2
    images = [(read_pgm(p), read_pgm(c)) for p, c in pairs]
    estimate, report = attack(images, mode=args.mode)
    os.makedirs(args.out, exist_ok=True)
    map_path = os.path.join(args.out, "map.txt")
    report_path = os.path.join(args.out, "report.csv")
    save_permutation(estimate, map_path)
    with open(report_path, "w", encoding="ascii") as fh:
        fh.write(report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    print(f"map: {map_path}")
    print(f"report: {report_path}")
    print(report.CSV_HEADER)
    print(report.to_csv_row())
    return 0


def cmd_gen_chosen(args) -> int:
    key = _load_key(args.key) if args.key else None
    os.makedirs(args.out, exist_ok=True)
    plains = construct_chosen_plaintexts(args.height, args.width)
    manifest_lines = []
    for t, img in enumerate(plains):
        plain_name = f"chosen_{t:02d}.pgm"
        write_pgm(os.path.join(args.out, plain_name), img)
        if key is not None:
            cipher_name = f"cipher_{t:02d}.pgm"
            write_pgm(os.path.join(args.out, cipher_name), encrypt(img, key))
            manifest_lines.append(f"{plain_name}\t{cipher_name}")
    if key is not None:
        manifest_path = os.path.join(args.out, "manifest.tsv")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(manifest_lines) + "\n")
        print(f"manifest: {manifest_path}")
    print(f"wrote {len(plains)} chosen plaintexts to {args.out}")
    return 0


def run_sweep(
    *,
    height: int,
    width: int,
    n0_min: int,
    n0_max: int,
    trials: int,
    seed: int,
    key_file: str | None = None,
    corpus_dir: str | None = None,
) -> list[str]:
    """Run the sweep and return the CSV rows (header excluded).

    ``key_file`` fixes the key (None draws a fresh key per trial) and
    ``corpus_dir`` supplies the plaintexts (None means synthetic uniform).
    Each (n0, trial) cell draws everything from its own seed sequence, so
    rows do not depend on execution order and reruns are byte-identical.
    """
    if height < 1 or width < 1:
        raise ValueError("image dimensions must be >= 1")
    if n0_max < n0_min or n0_min < 1:
        raise ValueError("need 1 <= n0_min <= n0_max")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fixed_key = _load_key(key_file) if key_file else None
    corpus = None
    if corpus_dir is not None:
        names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".pgm"))
        corpus = [read_pgm(os.path.join(corpus_dir, f)) for f in names]
        for img in corpus:
            if img.shape != (height, width):
                raise ShapeError(
                    f"corpus image shape {img.shape} does not match configured "
                    f"{height}x{width}"
                )
        if len(corpus) < n0_max + 1:
            raise ValueError(
                f"corpus holds {len(corpus)} images but the sweep needs up to "
                f"{n0_max + 1} (n0_max plus one held-out)"
            )

    rows = []
    for n0 in range(n0_min, n0_max + 1):
        for trial in range(trials):
            rng = np.random.default_rng([seed, n0, trial])
            key = fixed_key if fixed_key is not None else random_key(rng)
            if corpus is None:
                plains = [_random_image(rng, height, width) for _ in range(n0 + 1)]
            else:
                picks = rng.choice(len(corpus), size=n0 + 1, replace=False)
                plains = [corpus[i] for i in picks]
            held_out = plains.pop()
            pairs = [(p, encrypt(p, key)) for p in plains]
            estimate, report = attack(pairs, mode="bit")
            recovered = _decrypt_with_map(estimate, encrypt(held_out, key))
            summary, _ = compare_images(recovered, held_out)
            truth = compose_permutation(key, height, width)
            rows.append(
                f"{seed},{n0},{trial},"
                f"{summary.bit_accuracy:.6f},{summary.pixel_accuracy:.6f},"
                f"{perm_accuracy(estimate, truth):.6f},"
                f"{report.singleton_fraction:.6f},{report.residual_log2:.6f},"
                f"{report.predicted_pb:.6f},{report.positions_processed}"
            )
    return rows


def cmd_sweep(args) -> int:
    rows = run_sweep(
        height=args.height,
        width=args.width,
        n0_min=args.n0_min,
        n0_max=args.n0_max,
        trials=args.trials,
        seed=args.seed,
        key_file=args.key,
        corpus_dir=args.corpus,
    )
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "sweep.csv")
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        fh.write("\n".join(rows) + "\n")
    print(f"sweep: {out_path} ({len(rows)} rows)")
    by_n0: dict[int, list[list[float]]] = {}
    for row in rows:
        fields = row.split(",")
        by_n0.setdefault(int(fields[1]), []).append([float(v) for v in fields[3:6]])
    print("n0,mean_bit_accuracy,mean_pixel_accuracy,mean_perm_accuracy")
    for n0, scores in by_n0.items():
        bit, pixel, perm = np.mean(scores, axis=0)
        print(f"{n0},{bit:.4f},{pixel:.4f},{perm:.4f}")
    return 0


def cmd_diagnostics(args) -> int:
    key = _load_key(args.key)
    rng = np.random.default_rng(args.seed)

    zero = np.zeros((16, 16), dtype=np.uint8)
    zero_fixed = bool(np.array_equal(encrypt(zero, key), zero))
    mirrored_equal = demonstrate_equivalent_key(key, rng)
    probe = _random_image(rng, 16, 16)
    histogram_invariant = bit_histogram(probe) == bit_histogram(encrypt(probe, key))

    print("check,result")
    print(f"zero_image_fixed_point,{str(zero_fixed).lower()}")
    print(f"equivalent_key_x0_mirror,{str(mirrored_equal).lower()}")
    print(f"bit_histogram_invariant,{str(histogram_invariant).lower()}")

    os.makedirs(args.out, exist_ok=True)
    counts = [
        trajectory_histogram(x0, TRAJECTORY_MU, TRAJECTORY_COUNT, TRAJECTORY_BINS)
        for x0 in TRAJECTORY_SEEDS
    ]
    trajectory_path = os.path.join(args.out, "trajectory.csv")
    with open(trajectory_path, "w", encoding="ascii") as fh:
        fh.write("bin_lo,bin_hi," + ",".join(f"count_x0_{x0}" for x0 in TRAJECTORY_SEEDS) + "\n")
        for b in range(TRAJECTORY_BINS):
            cells = ",".join(str(int(c[b])) for c in counts)
            fh.write(f"{b / TRAJECTORY_BINS:.6f},{(b + 1) / TRAJECTORY_BINS:.6f},{cells}\n")
    print(f"trajectory: {trajectory_path}")
    return 0 if zero_fixed and mirrored_equal and histogram_invariant else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permbreak",
        description="Bit-permutation image cipher and the attacks that break it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt a PGM image")
    p.add_argument("input", help="plain image (PGM)")
    p.add_argument("output", help="cipher image (PGM)")
    p.add_argument("--key", required=True, help="key file: one line 'x0 mu m n T'")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a PGM image")
    p.add_argument("input", help="cipher image (PGM)")
    p.add_argument("output", help="recovered image (PGM)")
    p.add_argument("--key", required=True, help="key file: one line 'x0 mu m n T'")
    p.set_defaults(func=cmd_decrypt)

    p = sub.add_parser("attack-known", help="recover the permutation from known pairs")
    p.add_argument("manifest", help="pair list, one 'plain<TAB>cipher' line per pair")
    p.add_argument("--mode", choices=("bit", "byte"), default="bit")
    p.add_argument("--out", default=".", help="directory for map.txt and report.csv")
    p.set_defaults(func=cmd_attack_known)

    p = sub.add_parser("gen-chosen", help="generate the chosen-plaintext image set")
    p.add_argument("height", type=int)
    p.add_argument("width", type=int)
    p.add_argument("--key", help="also encrypt the set and write a manifest")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_gen_chosen)

    p = sub.add_parser("sweep", help="accuracy versus number of known pairs")
    p.add_argument("--height", type=int, default=16)
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--n0-min", type=int, default=4)
    p.add_argument("--n0-max", type=int, default=16)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--key", help="fixed key file; omitted means fresh random key per trial")
    p.add_argument("--corpus", help="directory of PGM plaintexts; omitted means synthetic uniform")
    p.add_argument("--out", default=".", help="directory for sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnostics", help="cipher property checks and trajectory histogram")
    p.add_argument("--key", required=True, help="key file: one line 'x0 mu m n T'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="directory for trajectory.csv")
    p.set_defaults(func=cmd_diagnostics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InconsistentPair as exc:
        where = f" (pair #{exc.pair_index})" if exc.pair_index is not None else ""
        print(f"error: inconsistent pair{where}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
