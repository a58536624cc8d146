"""Smoke test of the benchmark itself, each workload at its smallest size.

    python3 -m pytest bench/test_smoke.py -q

Run from the repository root.  It checks that every metric BENCHMARK.json
names is emitted with its unit, that a wrong expected value is counted as a
failed command, and that the benchmark refuses to run without the program.
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

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_matches_benchmark():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == [w for w in run.NOMINAL_PASS_S if w not in run.UNLISTED]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.NOMINAL_PASS_S))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_wrong_expected_value_counts_as_failed():
    work = os.path.join(ROOT, ".bench_work", "smoke-wrong-value")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    args = run.parse_args(["--workload", "scenarios-cli", "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--smoke"])
    _, plan, _ = run.setup(ROOT, work, args)
    theta_chsh = plan["commands"][0]
    assert theta_chsh["argv"][:3] == ["theta", "--scenario", "chsh"]
    theta_chsh["check"]["theta"] = 3.0  # the classical bound, not 2 + sqrt(2)
    plan["commands"] = plan["commands"][:2]
    result = run.measure_cli(ROOT, work, plan, passes=1)
    assert [f["id"] for f in result["failures"]] == [theta_chsh["id"]]
    assert "closed form" in result["failures"][0]["reason"]
    assert len(result["failures"]) / len(result["samples"]) == 0.5


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run_bench(bare, "scenarios-cli", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
