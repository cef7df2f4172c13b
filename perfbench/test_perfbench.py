"""Tests of the benchmark itself; they take a few minutes.  Run from the root
of a checkout with ``python3 -m pytest perfbench -s`` (``-s`` shows the
tracing overhead of each workload)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]
SEEDED = {"formula-check"}  # workloads whose population depends on the seed


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=200)


def result(workload: str, seed: int, trace: int) -> dict:
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out


def counts(out: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in out["metrics"].items() if v["unit"] in ("count", "ratio")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = result(workload, 1, 1)
    assert counts(first) == counts(result(workload, 1, 1))
    if workload not in SEEDED:
        assert counts(first) == counts(result(workload, 2, 1))
    m = first["metrics"]
    print(f"\n{workload}: tracing overhead {m['trace.overhead_s']['value']:.3f} s "
          f"on an untraced pass of {m['trace.untraced_pass_s']['value']:.3f} s")


def test_metric_names_match_benchmark_json():
    traced = result("bfs-large", 1, 1)["metrics"]
    assert {k: v["unit"] for k, v in traced.items()} == {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    untraced = result("bfs-large", 1, 0)["metrics"]
    assert {k: v["unit"] for k, v in untraced.items()} == {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("route-sweep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_functions_are_recorded_as_absent(monkeypatch):
    package = types.ModuleType("fakepkg")
    oracle = types.ModuleType("fakepkg.oracle")
    oracle.rank = lambda p: 0
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.oracle", oracle)
    tracer = layertrace.Tracer.for_package("fakepkg")
    tracer.install()
    oracle.rank((1, 2, 3))
    tracer.remove()
    assert "oracle.rank" not in tracer.absent
    assert "routing._oriented_pick" in tracer.absent
    metrics = layertrace.layer_metrics(tracer, route_pairs=0, distance_pairs=1)
    assert metrics["oracle.rank.calls"] == (1, "count")
    assert metrics["routing._oriented_pick.calls"] == (0, "count")
    assert metrics["trace.absent"] == (len(layertrace.TRACED) - 1, "count")
