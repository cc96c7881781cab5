"""Each workload, run once with ``--seconds 0`` at the default seed, prints
every metric BENCHMARK.json names and matches the stored token digest.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run(tmp_path, "gen_uniform_controlled", 0)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
