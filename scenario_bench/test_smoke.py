"""Smoke test of the benchmark harness at tiny size (2 jobs per pass).

    python3 -m pytest scenario_bench/test_smoke.py -q

Every workload runs untraced and traced with the reference check on;
each must pass its check and print exactly the metrics BENCHMARK.json
names, with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))


def run_harness(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "scenario_bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    done = run_harness(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--jobs", "2",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    expected = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "scenario_bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = run_harness(
        tmp_path, "--workload", "policy_grid", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_check_flags_mismatches():
    from reference import mismatch

    expected = {"peak_temperature_c": 80.0, "chip_energy_j": 10.0}
    names = tuple(expected)
    assert mismatch(expected, dict(expected), names) is None
    assert mismatch(expected, {**expected, "chip_energy_j": 10.01}, names)
    assert mismatch(expected, {"error": "CoolingDryoutError"}, names)
    assert mismatch({"error": "CoolingDryoutError"}, expected, names)
    assert mismatch(None, expected, names)


def test_self_times_sum_to_root_duration():
    from ledger import SpanRecorder

    recorder = SpanRecorder()
    with recorder.span("root"):
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("a"):
            pass
    self_times = recorder.self_times()
    assert set(self_times) == {"root", "a", "b"}
    assert sum(self_times.values()) == pytest.approx(recorder.root_time())
    assert recorder.counts() == {"root": 1, "a": 2, "b": 1}
