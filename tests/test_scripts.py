import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from permbreak.analysis import median_filter_3x3
from permbreak.pgm import read_pgm

ROOT = Path(__file__).resolve().parents[1]


def test_known_plaintext_demo_writes_median_images(tmp_path):
    out = tmp_path / "demo"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_known_plaintext_demo.py"),
         "--size", "8", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    medians = sorted(out.glob("recovered_n*_median.pgm"))
    assert len(medians) == 3
    for path in medians:
        recovered = read_pgm(path.with_name(path.name.replace("_median", "")))
        assert np.array_equal(read_pgm(path), median_filter_3x3(recovered))
