"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py

For every workload and both modes it asserts that the run passes every output
check and prints every metric BENCHMARK.json declares, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_and_every_check_passes(workload, trace):
    result = run(workload, trace)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace and workload == "byte-known":
        assert all(v["value"] == 0 for k, v in result["metrics"].items() if k.startswith("keystream."))
    if trace and workload == "chosen-break":
        record = json.loads((ROOT / ".perfbench" / "last-chosen-break-trace1.json").read_text())
        for phase in record["phases"]:
            if phase["command"] in ("gen-chosen", "decrypt"):
                assert all(v == 0 for k, v in phase["metrics"].items() if k.startswith("recovery."))


def test_every_per_layer_metric_names_what_it_should_move():
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYERS["per_layer_moves"])
