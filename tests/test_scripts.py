import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from permbreak.analysis import median_filter_3x3
from permbreak.cli import main
from permbreak.pgm import read_pgm

ROOT = Path(__file__).resolve().parents[1]

# `demo --size 8 --seed 5`, recorded from the standalone demo script that
# `permbreak demo` replaced; the last stdout line names the output directory.
DEMO_STDOUT = """\
grid 8x8: useful recovery needs more than 9 pairs
n0,bit_accuracy,pixel_accuracy,perm_accuracy,one_bit_error_fraction
6,0.5664,0.0156,0.0938,0.0635
10,0.8750,0.3125,0.7598,0.6591
15,0.9922,0.9375,0.9844,1.0000
images written to {out}/
"""
DEMO_SHA256 = {
    "recovered_n06.pgm": "b6686f59402b325cd2ba0ac6cb54c88578365c81255f68c832e64a472201dfa9",
    "recovered_n06_median.pgm": "af5dff4c9902762225d528060b44da4653264a14c72c35da958be7e713ff9967",
    "recovered_n10.pgm": "4ae71ab66a880094876ea3d06c1aaedbeb04431454a57c1ca014b52051e36c24",
    "recovered_n10_median.pgm": "cddc23c0a3ebc739dd4580f7b2a7061df6eb433bf5f0605960825c0cfa6d9f1f",
    "recovered_n15.pgm": "8c804fe514fcfcbad97d08a97d4afa493d25afc324f8b682f5f31d7a1d1ef7e9",
    "recovered_n15_median.pgm": "fb959fdd09c8d91a98a0be56add8e902aacfa08e27639b161b20a3b60ba9c91a",
    "scene.pgm": "997b1961a76eb4c028038cc4c179921b8a165a4a3e121bec946c81a3f846b5e6",
    "scene_cipher.pgm": "8ef7c891d499d9c2a0c59708e80561b132156e62b3f2703d95d0df56482d2381",
}

# `demo --size 8 --seed 5 --key K` with K the line "0.2009 3.98 20 51 4".
DEMO_KEY_LINE = "0.2009 3.98 20 51 4"
DEMO_KEY_STDOUT = """\
grid 8x8: useful recovery needs more than 9 pairs
n0,bit_accuracy,pixel_accuracy,perm_accuracy,one_bit_error_fraction
6,0.5508,0.0000,0.1191,0.1094
10,0.8398,0.2812,0.7559,0.4130
15,1.0000,1.0000,0.9922,0.0000
images written to {out}/
"""
DEMO_KEY_SHA256 = {
    "recovered_n06.pgm": "06b5a89376c13cb8e757e69ea4fd7b4c971485ecce767a2222f0b84f0d388a2a",
    "recovered_n06_median.pgm": "c6e55e1b6b79b458eefd4818a71ca1c382af3a8f0538312708b51ed6459712d7",
    "recovered_n10.pgm": "192ee6b3f106f4ed48094291bfd42e0cc313958827e8706996886f3797c6d245",
    "recovered_n10_median.pgm": "3f5e6c32147dd4987a4d79c5496a87343afc8e1730db3b02bfb694bad11908a2",
    "recovered_n15.pgm": "997b1961a76eb4c028038cc4c179921b8a165a4a3e121bec946c81a3f846b5e6",
    "recovered_n15_median.pgm": "cd4e46e1e77c0f0bab35dedf6651e013b2d18d5ed5ec3c487db390bc16d0d409",
    "scene.pgm": "997b1961a76eb4c028038cc4c179921b8a165a4a3e121bec946c81a3f846b5e6",
    "scene_cipher.pgm": "a071e04a8210075bdb5eba457a96c254a9bb26e4f626769390846500040256dc",
}


def run_demo(*args):
    return subprocess.run(
        [sys.executable, "-m", "permbreak.cli", "demo", *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )


def test_known_plaintext_demo_writes_median_images(tmp_path):
    out = tmp_path / "demo"
    result = run_demo("--size", "8", "--out", str(out))
    assert result.returncode == 0, result.stderr
    medians = sorted(out.glob("recovered_n*_median.pgm"))
    assert len(medians) == 3
    for path in medians:
        recovered = read_pgm(path.with_name(path.name.replace("_median", "")))
        assert np.array_equal(read_pgm(path), median_filter_3x3(recovered))


def test_known_plaintext_demo_matches_golden_output(tmp_path):
    out = tmp_path / "demo"
    result = run_demo("--size", "8", "--seed", "5", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_STDOUT.format(out=out)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == DEMO_SHA256


def test_demo_with_key_file_matches_golden_output(tmp_path):
    key = tmp_path / "key.txt"
    key.write_text(DEMO_KEY_LINE + "\n")
    out = tmp_path / "demo"
    result = run_demo("--size", "8", "--seed", "5", "--key", str(key), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout == DEMO_KEY_STDOUT.format(out=out)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == DEMO_KEY_SHA256


def test_demo_scene_too_large_to_allocate_is_one_error_line(tmp_path, capsys, monkeypatch):
    # stands in for NumPy's allocation failure; nothing is allocated for real
    def out_of_memory(size):
        raise MemoryError(f"Unable to allocate 37.3 GiB for an array with shape ({size}, {size})")

    monkeypatch.setattr("permbreak.cli._structured_scene", out_of_memory)
    out = tmp_path / "demo"
    assert main(["demo", "--size", "200000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_demo_key_file_error_names_the_file(tmp_path, capsys):
    key = tmp_path / "key.txt"
    key.write_bytes(b"0.5 3.9 1\xd9 1 1\n")
    out = tmp_path / "demo"
    assert main(["demo", "--size", "2", "--key", str(key), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {key}: not ascii text: byte 0xd9\n"


@pytest.mark.parametrize("size", [1, 0, -3])
def test_demo_rejects_size_below_two_before_writing(tmp_path, capsys, size):
    out = tmp_path / "demo"
    assert main(["demo", "--size", str(size), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_demo_smallest_size_runs(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "--size", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("2,")
    assert len(list(out.glob("*.pgm"))) == 8
