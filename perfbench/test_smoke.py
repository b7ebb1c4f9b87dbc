"""Smoke test of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs at a tiny size; a planted failing op must show in
``failed_ratio``; a traced run must reproduce the untraced digests; and a
directory holding only the benchmark must fail without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from tracer import unit_of  # noqa: E402


def _run(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc


def _printed_metrics(stdout: str, workload: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload and parts[2] == "=":
            out[parts[1]] = float(parts[3])
    return out


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_reports_every_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    printed = _printed_metrics(proc.stdout, workload)
    assert set(END_TO_END) <= set(printed)
    assert printed["failed_ratio"] == 0.0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_planted_failure_raises_failed_ratio():
    proc = _run("--workload", "proven-corpus", "--seed", "5", "--seconds", "0",
                "--trace", "0", "--tiny", "--plant-failure")
    assert proc.returncode == 0, proc.stderr
    assert _printed_metrics(proc.stdout, "proven-corpus")["failed_ratio"] > 0.0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]


def test_traced_run_matches_untraced_digests():
    proc = _run("--workload", "search-exact", "--seed", "5", "--seconds", "0",
                "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    info = next(json.loads(line[5:]) for line in proc.stdout.splitlines()
                if line.startswith("info "))
    assert info["digests_match"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(m["unit"] == unit_of(m["name"]) for m in declared)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.main.calls"] == result["attempted"]
    assert metrics["inequalities.evaluate.calls"] > 0
    assert metrics["trace.overhead_ratio"] > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "proven-corpus", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
