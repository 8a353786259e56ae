"""Minimal-budget runs of every workload through the real measurement code."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "probe-k16": dict(pretrain_steps=2, max_steps=3),
    "lora-k4": dict(pretrain_steps=2, max_steps=2),
    "pretrain": dict(pretrain_steps=3),
}


def test_benchmark_lists_workloads_defined_here():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    res = workloads.measure(w, seed=1, seconds=0.0, trace=trace, workdir=tmp_path,
                               setup_reps=2, setup_min_s=0.0)
    assert res.checks == []
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res.metrics) == {m["name"] for m in wanted}
    assert all(isinstance(v, (int, float)) for v in res.metrics.values())
    assert res.attempted == len(res.outcomes) * (1 if w.mode is None else 3 * len(w.lr_grid))
    assert len(res.outcomes) == (3 if trace else 1)
    if trace:
        assert res.metrics["train.steps"] > 0 and res.metrics["tensor.linear.calls"] > 0
    if w.mode is None:
        # three steps cannot reach the learnability floor: the output check must say so
        assert res.failed == len(res.outcomes)
        assert any("floor" in r for r in res.failures)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "pretrain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
