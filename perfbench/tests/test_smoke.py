"""Smoke tests for the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_grid_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    info = json.loads(proc.stdout.splitlines()[-2])
    assert {"nproc", "cpu_model", "python", "gmpy2"} <= set(info["machine"])
    assert info["seed"] == 1 and info["grid"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_wraps_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import quadcong.cli
        import quadcong.quadfield
        import quadcong.suite
        from quadcong.suite import run_instance
        from tracer import Tracer
    finally:
        del sys.path[:2]
    original = quadcong.quadfield.fundamental_unit
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (quadcong.quadfield, quadcong.suite, quadcong.cli):
            assert mod.fundamental_unit is not original
        quadcong.suite.run_instance(("THM1", 14, 7, None))
    finally:
        tracer.restore()
    assert quadcong.quadfield.fundamental_unit is original
    assert quadcong.suite.run_instance is run_instance
    m = tracer.layer_metrics(cache_entries=0, stream_bytes=0)
    # check_theorem1 and class_number each compute the unit of d = 14
    assert m["quadfield.fundamental_unit.calls"] == 2
    assert m["quadfield.fundamental_unit.distinct_d"] == 1
    assert m["suite.run_instance.calls"] == 1
    for name in ("bernoulli.gen", "quadfield.class_number", "suite.run_instance"):
        assert m[f"{name}.self_s"] >= 0
