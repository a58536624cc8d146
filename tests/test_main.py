"""The process entry point: one BLAS thread, the default count in the solver.

`theta_selftest.__main__.main` starts the OpenBLAS bundled with numpy at one
thread (unless the user chose a count) and `sdp.default_blas_threads` gives
the solver, the dense SVD of the uniqueness test and the clique LP of alpha*
OpenBLAS's default count back while they run.  That is safe only if every
command prints what it prints at the default count, and if the count goes
back to one however a scoped kernel ends.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_USER_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**overrides) -> dict:
    """The test environment with no thread count of the user's, and buffered
    output, so a missing flush before the hard exit loses output."""
    env = {k: v for k, v in os.environ.items()
           if k not in _USER_THREADS + ("OPENBLAS_THREAD_TIMEOUT", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(overrides)
    return env


def _python(*args: str, env: dict | None = None, text: bool = False) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env() if env is None else env,
                            text=text)


@functools.cache
def _bundled() -> tuple[str, int]:
    """bundled_openblas() as a fresh process with default settings sees it."""
    proc = _python("-c", "import json; from theta_selftest.__main__ import bundled_openblas; "
                         "print(json.dumps(bundled_openblas()))", text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    blas = json.loads(out)
    if blas is None:
        pytest.skip("numpy bundles no scipy-openblas library here")
    return tuple(blas)


# --- the entry point prints what cli.main prints at the default count --------


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solver_commands(workload: str, tmp_path) -> list[list[str]]:
    """The theta and uniqueness commands of a bench plan at seed 1; of
    random-theta, the first two n = 30 graphs of seed 2000."""
    if workload == "random-theta":
        plan = _bench_gen().generate(workload, 2000, str(tmp_path))
        return sorted(cmd["argv"] for cmd in plan["commands"] if "-n30-" in cmd["argv"][2])[:2]
    plan = _bench_gen().generate(workload, 1, str(tmp_path))
    return [cmd["argv"] for cmd in plan["commands"] if cmd["argv"][0] in ("theta", "uniqueness")]


_CLI_MAIN = "import sys; from theta_selftest.cli import main; sys.exit(main(sys.argv[1:]))"


def _prints_what_cli_main_prints(argv: list[str]) -> bool:
    """Whether `python -m theta_selftest` prints the stdout, stderr and exit
    code of a fresh `cli.main` run at OpenBLAS's default thread count."""
    # Both at once: their outputs, not their timings, are compared.
    procs = [_python("-m", "theta_selftest", *argv), _python("-c", _CLI_MAIN, *argv)]
    module, reference = ((p.communicate(), p.returncode) for p in procs)
    return module == reference


@pytest.mark.parametrize("workload", ["scenarios-cli", "chained-uniqueness", "random-theta"])
def test_module_prints_what_cli_main_prints_at_the_default_thread_count(workload, tmp_path):
    commands = _solver_commands(workload, tmp_path)
    assert commands
    assert [argv for argv in commands if not _prints_what_cli_main_prints(argv)] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["uniqueness", "--scenario=chained:4", "--json"],
        ["uniqueness", "--json", "--scenario", "chsh"],
        ["uniqueness", "--sc", "chained:4"],
        ["uniqueness", "--scenario", "chained:4", "--json", "--json"],
        ["uniqueness", "--scenario"],
    ],
    ids=" ".join,
)
def test_other_uniqueness_spellings_keep_the_default(argv):
    # Any spelling argparse accepts, and a usage error, prints the same too.
    assert _prints_what_cli_main_prints(argv)


# --- a user's thread count: output does not depend on it --------------------

_NON_SOLVER_COMMANDS = [
    ["certify", "--scenario", "chsh", "--json"],
    ["certify", "--scenario", "chained:16", "--json"],
    ["uniqueness", "--scenario", "chained:3", "--json"],
    ["uniqueness", "--scenario", "chained:16", "--json"],
    ["selftest", "--scenario", "mermin", "--json"],
    ["scenario", "--scenario", "chained:16"],
    ["export", "--scenario", "as4", "--format", "json"],
    ["export", "--scenario", "chsh", "--format", "dot"],
]


@pytest.mark.parametrize("argv", _NON_SOLVER_COMMANDS, ids=" ".join)
def test_non_solver_output_does_not_depend_on_blas_threads(argv):
    procs = [_python("-m", "theta_selftest", *argv, env=_env(OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    results = [(p.communicate()[0], p.returncode) for p in procs]
    assert results[0] == results[1]
    assert results[0][1] == 0


# --- the scoped kernels and the thread count around them --------------------

_SCOPE_PROBE = """
import ctypes, os, sys
path = sys.argv[1]
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
from theta_selftest import cli, graphs, sdp
get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
sdp.blas_default = (path, 2)
seen = {}

def spy(name, fn):
    def wrapped(*args, **kwargs):
        seen.setdefault(name, set()).add(get())
        return fn(*args, **kwargs)
    return wrapped

sdp._restore_cone = spy("solve_sdp", sdp._restore_cone)
np.linalg.svd = spy("svd", np.linalg.svd)
np.linalg.qr = spy("clique LP", np.linalg.qr)
for argv in (["theta", "--scenario", "chsh"], ["uniqueness", "--scenario", "mermin"]):
    cli.main(argv)
after_commands = get()
try:
    sdp.solve_sdp(np.eye(2), np.eye(2)[None], np.ones(1), (np.eye(2), np.ones(1), np.zeros((2, 2))))
except sdp.SolverError:
    pass
print(sorted((k, sorted(v)) for k, v in seen.items()), after_commands, get())
"""


def test_scoped_kernels_run_at_the_recorded_count_and_return_to_one():
    proc = _python("-c", _SCOPE_PROBE, _bundled()[0], text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    # The solver, the dense SVD and the LP ran at the recorded 2 threads; after
    # two commands, and after a solve that failed (singular start), it is 1.
    assert out.split("\n")[-2] == (
        "[('clique LP', [2]), ('solve_sdp', [2]), ('svd', [2])] 1 1"
    )


_MAIN_PROBE = """
import os, sys
from theta_selftest import __main__, cli, sdp

def report(argv):
    print(*(os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "OPENBLAS_THREAD_TIMEOUT")), sdp.blas_default is None)
    return 5

cli.main = report
__main__.main([])
"""


@pytest.mark.parametrize(
    "user, expected",
    [
        ({}, "1 None 4 False"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2 None None True"),
        ({"OMP_NUM_THREADS": "2"}, "None 2 None True"),
        ({"GOTO_NUM_THREADS": "2"}, "None None None True"),
    ],
    ids=["default", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"],
)
def test_a_users_thread_count_leaves_environment_and_helper_alone(user, expected):
    _bundled()
    proc = _python("-c", _MAIN_PROBE, env=_env(**user), text=True)
    out, err = proc.communicate()
    assert (proc.returncode, err) == (5, "")
    assert out.split() == expected.split()


def test_recorded_count_is_openblas_default():
    path, threads = _bundled()
    probe = ("import ctypes, sys, numpy; "
             "print(ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_())")
    proc = _python("-c", probe, path, text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    assert int(out) == threads


# --- lazy import -------------------------------------------------------------

_LAZY_PROBE = """
import sys
import theta_selftest
assert "numpy" not in sys.modules, "import theta_selftest loaded numpy"
for name in theta_selftest.__all__:
    obj = getattr(theta_selftest, name)
    assert getattr(sys.modules[obj.__module__], obj.__name__) is obj, name
print("ok")
"""


def test_package_import_loads_no_numpy():
    proc = _python("-c", _LAZY_PROBE, text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    assert out == "ok\n"
