"""Tests of the benchmark itself: each workload runs a few steps and reports
every declared metric with its unit and no failed operation.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
from tracer import SELF_TIME_METRICS  # noqa: E402  (needs relpe on the path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ANNOTATIONS = json.loads((BENCH_DIR / "annotations.json").read_text(encoding="utf-8"))


def run(cwd, workload, trace=0, steps=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--steps", str(steps)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc, lines = run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 3
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {f[0]: (float(f[1]), f[2]) for f in map(str.split, lines[:-1])
               if not f[0].startswith("#")}
    assert {k: unit for k, (_, unit) in printed.items()} == {**units, "fail_frac": "ratio"}
    assert printed["fail_frac"][0] == 0.0


def test_traced_run_accounts_for_step_time():
    proc, lines = run(ROOT, "mlm_mixed", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {p["name"] for p in SPEC["per_layer"]}
    assert abs(m["trace.accounted_frac"] - 1.0) <= 0.10
    assert max(SELF_TIME_METRICS, key=m.get) == "optim.round_half_ms"


def test_every_per_layer_metric_is_annotated():
    layer_metrics = {p["name"] for p in SPEC["per_layer"]}
    assert layer_metrics == set(ANNOTATIONS["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(ANNOTATIONS["workloads"])
    for note in ANNOTATIONS["per_layer"].values():
        assert set(note["on"]) <= workloads
        assert set(note["moves"]) <= {m["name"] for m in SPEC["end_to_end"]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc, lines = run(tmp_path, "mlm_full")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
