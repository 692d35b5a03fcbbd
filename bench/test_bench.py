"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest -q bench/test_bench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit, that per-layer self times sum to no more than the
traced wall time, and that the benchmark refuses to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, out_dir, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace), "--scale", "tiny", "--out", str(out_dir)])
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    record = json.loads((out_dir / f"{workload}-seed3-trace{trace}.json").read_text())
    return last, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(capsys, tmp_path, workload):
    last, record = bench(capsys, tmp_path, workload, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in last["metrics"].values())
    if workload != "protocol":  # the tiny decoder does not learn
        assert last["correct"] and last["failed"] == 0
    assert record["manifest"]["seed"] == 3
    assert record["digest_all_equal"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(capsys, tmp_path, workload):
    last, record = bench(capsys, tmp_path, workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    own = [s["self_s"] for s in record["spans"]]
    assert own and min(own) >= -1e-9
    assert sum(own) <= sum(record["traced_setups"]) + sum(record["traced_passes"]) + 1e-9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
