import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_image
from permbreak.analysis import perm_accuracy
from permbreak.cipher import compose_permutation, load_permutation
from permbreak.cli import _read_manifest, main, run_sweep
from permbreak.keystream import parse_key
from permbreak.pgm import read_pgm, write_pgm

KEY_LINE = "0.2009 3.98 20 51 4"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def key_file(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text(KEY_LINE + "\n")
    return str(path)


@pytest.fixture
def sample_image(tmp_path):
    img = random_image(np.random.default_rng(0), 8, 8)
    path = tmp_path / "plain.pgm"
    write_pgm(path, img)
    return str(path), img


class TestEncryptDecrypt:
    def test_round_trip_is_byte_identical(self, tmp_path, key_file, sample_image):
        plain_path, img = sample_image
        enc_path = str(tmp_path / "enc.pgm")
        dec_path = str(tmp_path / "dec.pgm")
        assert main(["encrypt", plain_path, enc_path, "--key", key_file]) == 0
        assert main(["decrypt", enc_path, dec_path, "--key", key_file]) == 0
        assert (tmp_path / "dec.pgm").read_bytes() == (tmp_path / "plain.pgm").read_bytes()
        assert not np.array_equal(read_pgm(enc_path), img)

    def test_rejects_out_of_domain_mu(self, tmp_path, sample_image, capsys):
        plain_path, _ = sample_image
        bad_key = tmp_path / "bad.txt"
        bad_key.write_text("0.2009 4.1 20 51 4\n")
        code = main(["encrypt", plain_path, str(tmp_path / "out.pgm"), "--key", str(bad_key)])
        assert code != 0
        assert "mu" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, field",
        [("0.3 3.9 1 99999999999999 1", "col_offset"), ("0.3 3.9 1 1 100000000", "rounds")],
    )
    def test_rejects_unbounded_key_line(self, tmp_path, sample_image, capsys, line, field):
        # either key would otherwise exhaust memory or run without bound
        plain_path, _ = sample_image
        bad_key = tmp_path / "bad.txt"
        bad_key.write_text(line + "\n")
        code = main(["encrypt", plain_path, str(tmp_path / "out.pgm"), "--key", str(bad_key)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and field in err and "Traceback" not in err
        assert not (tmp_path / "out.pgm").exists()

    def test_rejects_missing_image(self, tmp_path, key_file, capsys):
        code = main(["encrypt", str(tmp_path / "nope.pgm"), str(tmp_path / "o.pgm"), "--key", key_file])
        assert code != 0


class TestGenChosenAndAttack:
    def test_chosen_set_counts(self, tmp_path):
        out = tmp_path / "chosen"
        assert main(["gen-chosen", "1", "1", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "chosen_00.pgm",
            "chosen_01.pgm",
            "chosen_02.pgm",
        ]

    def test_manifest_feeds_exact_recovery(self, tmp_path, key_file, capsys):
        out = tmp_path / "chosen"
        assert main(["gen-chosen", "4", "4", "--key", key_file, "--out", str(out)]) == 0
        manifest = out / "manifest.tsv"
        assert manifest.exists()

        attack_out = tmp_path / "attack"
        assert main(["attack-known", str(manifest), "--out", str(attack_out)]) == 0
        report_text = (attack_out / "report.csv").read_text().splitlines()
        header = report_text[0].split(",")
        row = dict(zip(header, report_text[1].split(",")))
        assert float(row["residual_log2"]) == 0.0
        assert float(row["singleton_fraction"]) == 1.0

        estimate = load_permutation(attack_out / "map.txt")
        truth = compose_permutation(parse_key(KEY_LINE), 4, 4)
        assert perm_accuracy(estimate, truth) == 1.0

    def test_empty_manifest_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "empty.tsv"
        manifest.write_text("\n")
        assert main(["attack-known", str(manifest)]) == 2
        assert "no pairs" in capsys.readouterr().err

    def test_mismatched_sizes_fail_cleanly(self, tmp_path, key_file, capsys):
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_pgm(a, np.zeros((4, 4), dtype=np.uint8))
        write_pgm(b, np.zeros((4, 5), dtype=np.uint8))
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("a.pgm\ta.pgm\nb.pgm\tb.pgm\n")
        assert main(["attack-known", str(manifest), "--out", str(tmp_path)]) == 1
        assert "shape" in capsys.readouterr().err.lower()

    def test_corrupted_pair_names_its_index(self, tmp_path, key_file, capsys):
        out = tmp_path / "chosen"
        main(["gen-chosen", "2", "2", "--key", key_file, "--out", str(out)])
        # flip one bit in the second cipher image
        img = read_pgm(out / "cipher_01.pgm")
        img[0, 0] ^= 1
        write_pgm(out / "cipher_01.pgm", img)
        assert main(["attack-known", str(out / "manifest.tsv"), "--out", str(tmp_path)]) == 1
        assert "pair #1" in capsys.readouterr().err


class TestFileErrors:
    """A bad input file makes one error line that starts with its path."""

    def test_short_image_in_manifest_is_named(self, tmp_path, capsys):
        good, bad = tmp_path / "good.pgm", tmp_path / "bad.pgm"
        write_pgm(good, np.zeros((2, 2), dtype=np.uint8))
        bad.write_bytes(good.read_bytes()[:-1])
        manifest = tmp_path / "pairs.tsv"
        manifest.write_text("good.pgm\tbad.pgm\n")
        assert main(["attack-known", str(manifest), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: PGM raster shorter than header promises\n"

    @pytest.mark.parametrize(
        "content", [b"0.5 3.9 1\xd9 1 1\n", b"0.5 3.9 1_0 1 1\n", b"0.5 4.1 1 1 1\n"]
    )
    def test_bad_key_file_is_named(self, tmp_path, sample_image, capsys, content):
        key = tmp_path / "key.txt"
        key.write_bytes(content)
        plain_path, _ = sample_image
        assert main(["encrypt", plain_path, str(tmp_path / "out.pgm"), "--key", str(key)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, message",
        [(b"a.pgm\tb\xff.pgm\n", "not utf-8 text"), (b"a.pgm\tb.pgm\nc.pgm\n", "line 2: expected")],
    )
    def test_bad_manifest_is_named(self, tmp_path, capsys, content, message):
        manifest = tmp_path / "pairs.tsv"
        manifest.write_bytes(content)
        assert main(["attack-known", str(manifest), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: {message}")


@st.composite
def mutated_manifest(draw):
    """A valid manifest with one mutation: truncation, an inserted byte (not
    UTF-8, NUL, tab or line break), or a duplicated, dropped or split line."""
    names = st.sampled_from(["a.pgm", "sub/b.pgm", "/abs/c.pgm", "d e.pgm"])
    lines = [f"{p}\t{c}".encode() for p, c in draw(st.lists(st.tuples(names, names), min_size=1))]
    kind = draw(st.sampled_from(["truncate", "byte", "duplicate", "drop", "field"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        lines.insert(at, lines[at])
    elif kind == "drop":
        del lines[at]
    elif kind == "field":
        lines[at] = lines[at].replace(b"\t", b"", 1)
    data = b"\n".join(lines) + b"\n"
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data)))]
    if kind == "byte":
        cut = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\xd9", b"\x00", b"\t", b"\r", b"\n"]))
        return data[:cut] + byte + data[cut:]
    return data


class TestReadManifestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(content=mutated_manifest())
    def test_mutated_manifest_is_rejected_or_lists_pairs(self, tmp_path_factory, content):
        path = tmp_path_factory.mktemp("fuzz") / "pairs.tsv"
        path.write_bytes(content)
        try:
            pairs = _read_manifest(str(path))
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        for pair in pairs:
            assert len(pair) == 2 and all(os.path.isabs(f) for f in pair)


class TestSweep:
    def test_fixed_seed_is_byte_stable(self, tmp_path):
        args = [
            "sweep", "--height", "4", "--width", "4", "--n0-min", "3", "--n0-max", "4",
            "--trials", "2", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_threshold_row_beats_coin_flipping(self):
        # at the minimum useful pair count the recovered bits are mostly right
        rows = run_sweep(height=8, width=8, n0_min=10, n0_max=10, trials=20, seed=42)
        accuracies = [float(r.split(",")[3]) for r in rows]
        assert np.mean(accuracies) > 0.5

    def test_mean_accuracies_rise_with_more_pairs(self):
        rows = run_sweep(height=8, width=8, n0_min=6, n0_max=10, trials=20, seed=42)
        by_n0: dict[int, list[list[float]]] = {}
        for row in rows:
            fields = row.split(",")
            by_n0.setdefault(int(fields[1]), []).append(
                [float(fields[3]), float(fields[4]), float(fields[5])]
            )
        means = [np.mean(by_n0[n0], axis=0) for n0 in sorted(by_n0)]
        for earlier, later in zip(means, means[1:]):
            assert np.all(later >= earlier)

    def test_fixed_key_file_is_honoured(self, tmp_path, key_file):
        rows = run_sweep(height=4, width=4, n0_min=3, n0_max=3, trials=2, seed=1, key_file=key_file)
        assert len(rows) == 2

    def test_corpus_mode_reads_directory(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rng = np.random.default_rng(11)
        for i in range(6):
            write_pgm(corpus / f"img_{i}.pgm", random_image(rng, 4, 4))
        rows = run_sweep(
            height=4, width=4, n0_min=3, n0_max=3, trials=2, seed=1, corpus_dir=str(corpus)
        )
        assert len(rows) == 2

    def test_corpus_too_small_is_rejected(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_pgm(corpus / "only.pgm", np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError, match="corpus"):
            run_sweep(
                height=4, width=4, n0_min=3, n0_max=3, trials=1, seed=1, corpus_dir=str(corpus)
            )

    @pytest.mark.parametrize(
        "bad",
        [
            dict(trials=0),
            dict(n0_min=5, n0_max=4),
            dict(n0_min=0),
            dict(height=0),
        ],
    )
    def test_config_validation(self, bad, monkeypatch):
        # the checks run before any work: a trial would have to build a key
        monkeypatch.setattr(
            "permbreak.cli.random_key", lambda rng: pytest.fail("sweep ran before its checks")
        )
        fields = dict(height=4, width=4, n0_min=3, n0_max=4, trials=2, seed=0)
        fields.update(bad)
        with pytest.raises(ValueError):
            run_sweep(**fields)


class TestDiagnostics:
    def test_checks_pass_and_output_is_csv(self, tmp_path, key_file, capsys):
        assert main(["diagnostics", "--key", key_file, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        table = list(csv.reader(io.StringIO(out.split("trajectory:")[0].strip())))
        assert table[0] == ["check", "result"]
        results = {name: value for name, value in table[1:]}
        assert results == {
            "zero_image_fixed_point": "true",
            "equivalent_key_x0_mirror": "true",
            "bit_histogram_invariant": "true",
        }

    def test_trajectory_csv_shape(self, tmp_path, key_file, capsys):
        main(["diagnostics", "--key", key_file, "--out", str(tmp_path)])
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count_x0_0.3333", "count_x0_0.5656"]
        assert len(rows) == 51
        total_a = sum(int(r[2]) for r in rows[1:])
        total_b = sum(int(r[3]) for r in rows[1:])
        assert total_a == total_b == 10_000


class TestStartup:
    @staticmethod
    def loaded_packages(statement: str) -> set[str]:
        """Top-level packages loaded by a fresh interpreter that runs statement."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        code = f"import sys; {statement}; print(*sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return {name.split(".")[0] for name in result.stdout.split()}

    def test_cli_import_loads_nothing_beyond_numpy(self):
        # a NumPy-only interpreter absorbs what the site hooks load
        extra = (
            self.loaded_packages("import permbreak.cli")
            - self.loaded_packages("import numpy")
            - set(sys.stdlib_module_names)
        )
        assert extra == {"permbreak"}
