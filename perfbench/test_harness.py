"""Toy-size smoke test of the benchmark harness (a few seconds per mode).

Runs every workload on tiny inputs with tracing off and on, and checks the
result line against BENCHMARK.json; then checks that the command fails
without printing a result where the package sources are absent.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_toy_run_reports_every_metric(trace, section):
    out = _run(ROOT, "--workload", "all", "--toy", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        assert result["correct"] is True, (name, out.stdout)
        assert result["attempted"] >= 1 and result["failed"] == 0, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "train-c6", "--toy")
    assert out.returncode != 0
    assert not out.stdout.strip()
