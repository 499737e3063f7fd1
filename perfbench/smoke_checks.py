"""Smoke checks of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/smoke_checks.py

The file name keeps these checks out of the repository's own test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parsed(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert WORKLOADS == sorted(w["name"] for w in spec()["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    info, result = parsed(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, info["notes"]
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics_and_same_outputs(workload):
    info, result = parsed(workload, 1)
    assert result["correct"] and result["failed"] == 0, info["notes"]
    want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert info["passes"] >= 1 and info["traced_passes"] >= 1
    # one digest: the traced and untraced passes produced the same outputs
    assert len(info["digests"]) == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("charsum-sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_frozen_cli_lines_match_readme():
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = tuple(l.strip() for l in fh if l.strip().startswith("congruence-lab "))
    assert lines == workloads.README_LINES


def test_tracer_patches_every_namespace_and_restores_them():
    lib = workloads.load_library()
    original = lib.charsums.kloosterman_closed
    tracer = Tracer()
    tracer.install(lib.package)
    try:
        assert lib.counting.kloosterman_closed is lib.charsums.kloosterman_closed is lib.package.kloosterman_closed
        assert lib.charsums.kloosterman_closed is not original
        mod = lib.modmath.PrimePowerModulus(5, 3)
        value = lib.counting.kloosterman_closed(2, 3, mod).to_complex()
    finally:
        tracer.uninstall()
    assert lib.counting.kloosterman_closed is original
    assert value == original(2, 3, mod).to_complex()
    aggs = tracer.aggregates()
    calls, total, self_s = aggs["charsums.kloosterman_closed"]
    assert calls == 1 and 0 <= self_s <= total
    assert aggs["modmath.jacobi_symbol"][0] >= 1
