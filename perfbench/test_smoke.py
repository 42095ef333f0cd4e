"""Smoke test of the benchmark on tiny inputs.

Not part of the package's test suite (pytest collects ``tests/`` only). Run it
from the repository root with::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_and_passes_its_checks(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    full = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    assert set(full["per_layer" if trace else "end_to_end"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_repeat_runs_share_the_determinism_digest() -> None:
    out = ROOT / "perfbench" / "out"
    _run("dense-dest", 0)
    _run("dense-dest", 1)
    first = json.loads((out / "dense-dest-seed3-trace0-smoke.json").read_text())
    traced = json.loads((out / "dense-dest-seed3-trace1-smoke.json").read_text())
    assert first["digest"] == traced["digest"]
    assert traced["digest_flags"] == []
    its = traced["traced_vs_untraced"]
    assert its["iterations"][0] == its["iterations"][1]
    assert its["explored_nodes"][0] == its["explored_nodes"][1]


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-dest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
