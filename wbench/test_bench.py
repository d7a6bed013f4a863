"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest wbench/test_bench.py

Checks that every workload runs without a failed op, that the result line
carries exactly the metrics BENCHMARK.json lists with their units, that the
report names every end-to-end metric with a unit, and that the traced runs
record spans for every layer.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPORTED = ("setup_s", "wall_per_probe", "probe_s", "wall_s", "synth_s", "lower_s",
            "simulate_s", "verify_s", "analyze_s", "sweep_s", "peak_rss_mb", "error_rate")
LAYERS = {"synthesis", "gates", "lowering", "circuit_io", "simulator", "analysis", "cli"}
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = {m[1]: (m[2], m[3]) for m in map(METRIC_LINE.match, lines) if m}
    return json.loads(lines[-1]), report, lines


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload, seed):
    result, report, _ = bench(workload, seed, 0)
    check_result(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(REPORTED) <= set(report)
    assert report["error_rate"] == ("0", "ratio")


def test_traced_runs_cover_every_layer():
    layers = set()
    for workload in WORKLOADS:
        result, _, lines = bench(workload, 11, 1)
        check_result(result, SPEC["per_layer"])
        spans_file = next(line.split(" ", 1)[1] for line in lines if line.startswith("spans "))
        for traced_pass in json.loads((ROOT / spans_file).read_text()):
            layers |= {span["name"].split(".", 1)[0] for span in traced_pass}
    assert LAYERS <= layers


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "wbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "wbench" / f.name).write_bytes(f.read_bytes())
    (bare / "wbench" / "golden.json").write_bytes((HERE / "golden.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "wbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
