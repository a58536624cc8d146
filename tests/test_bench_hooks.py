"""The benchmark's tracer still finds the functions it hooks.

`bench/spans.py` wraps package functions by name (each public function `cli`
calls, `theta.solve_sdp`, `graphs.maximal_cliques`, `sdp._restore_cone`), and
`bench/run.py` sums their spans into per-layer figures.  A renamed function
makes its figure read 0 without failing anything, so this runs the traced
smoke benchmark and asserts that every figure its plan exercises is positive.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# The per-layer figures the scenarios-cli smoke plan exercises: it computes
# alpha, alpha* and theta, certifies, tests uniqueness, and self-tests.
EXERCISED = (
    "graphs.alpha_s",
    "graphs.alpha_star_s",
    "graphs.cliques",
    "theta.solve_s.total",
    "sdp.iterations",
    "theta.nondegenerate_s",
    "theta.certify_s",
    "selftest.run_s",
    "scenarios.build_s",
)


def test_traced_smoke_run_fills_every_hooked_layer():
    pytest.importorskip("scipy")  # bench/run.py reads scipy's betainc
    proc = subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), "--workload", "scenarios-cli",
         "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    metrics = result["metrics"]
    assert [name for name in EXERCISED if not metrics[name]["value"] > 0] == []
