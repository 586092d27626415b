"""The benchmark's own test, at a tiny size: ``python3 -m pytest tzbench``.

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that a corrupted answer makes the run exit non-zero without a
result line, and that the benchmark refuses to run without the source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "4", "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_units_match_the_spec():
    """The units the code prints are the ones ``BENCHMARK.json`` names."""
    sys.path.insert(0, str(HERE))
    try:
        import common
    finally:
        sys.path.remove(str(HERE))
    for group, names in (("end_to_end", common.END_TO_END),
                         ("per_layer", common.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[group]} == {
            n: common.UNITS[n] for n in names
        }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    """Each mode prints exactly its group of metrics, with units."""
    proc = _run(workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_answer_fails_the_run(workload):
    """A wrong answer exits non-zero and prints no result."""
    proc = _run(workload, "--corrupt")
    assert proc.returncode != 0
    assert "check failed" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_refuses_to_run_without_the_source(tmp_path):
    """Only BENCHMARK.json and tzbench/: exit non-zero, print nothing."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
