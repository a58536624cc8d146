"""The process entry point: OpenBLAS's idle timeout, then a hard exit.

`theta_selftest.__main__.main` sets ``OPENBLAS_THREAD_TIMEOUT`` unless the
user did, sets no thread count, runs `cli.main` and ends the process with
`os._exit`.  So every command prints what `cli.main` prints at OpenBLAS's
default thread count, provided nothing buffered is lost at the hard exit.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
              "OPENBLAS_THREAD_TIMEOUT")


def _env(**overrides) -> dict:
    """The test environment with no OpenBLAS setting of the user's, and
    buffered output, so a missing flush before the hard exit loses output."""
    env = {k: v for k, v in os.environ.items()
           if k not in _BLAS_VARS + ("PYTHONUNBUFFERED",)}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(overrides)
    return env


def _python(*args: str, env: dict | None = None, text: bool = False) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env() if env is None else env,
                            text=text)


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


@pytest.mark.parametrize("argv", [["uniqueness", "--scenario"]], ids=" ".join)
def test_other_uniqueness_spellings_keep_the_default(argv):
    # A usage error leaves through os._exit with exit code 1, as cli.main does.
    procs = [_python("-m", "theta_selftest", *argv), _python("-c", _CLI_MAIN, *argv)]
    module, reference = ((p.communicate(), p.returncode) for p in procs)
    assert module == reference
    assert module[1] == 1


# --- a user's thread count: output does not depend on it --------------------

# Commands whose every LU solve is below OpenBLAS's threaded-LU cut: it
# factors an m x m matrix on one thread while m^2 < 10^4, and the theta
# solve's Schur matrix has order m, the program's row count (mermin 89,
# chained:N 10N + 1, as4 104).  The last digits of theta on chained:10 and
# on as4 follow the thread count.
_BELOW_THREADED_LU_CUT = [
    ["certify", "--scenario", "chsh", "--json"],
    ["certify", "--scenario", "chained:16", "--json"],
    ["theta", "--scenario", "mermin", "--json"],
    ["theta", "--scenario", "chained:9", "--json"],
    ["uniqueness", "--scenario", "chained:3", "--json"],
    ["uniqueness", "--scenario", "chained:16", "--json"],
    ["uniqueness", "--scenario", "mermin", "--json"],
    ["selftest", "--scenario", "mermin", "--json"],
    ["scenario", "--scenario", "chained:16"],
    ["export", "--scenario", "as4", "--format", "json"],
    ["export", "--scenario", "chsh", "--format", "dot"],
]


@pytest.mark.parametrize("argv", _BELOW_THREADED_LU_CUT, ids=" ".join)
def test_output_below_the_threaded_lu_cut_does_not_depend_on_blas_threads(argv):
    procs = [_python("-m", "theta_selftest", *argv, env=_env(OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    results = [(p.communicate()[0], p.returncode) for p in procs]
    assert results[0] == results[1]
    assert results[0][1] == 0


# --- the environment main leaves to OpenBLAS ----------------------------------

_MAIN_PROBE = """
import json, os, sys
from theta_selftest import __main__, cli

def report(argv):
    print(json.dumps({v: os.environ.get(v) for v in sys.argv[1:]}))
    return 5

cli.main = report
__main__.main([])
"""


@pytest.mark.parametrize(
    "user",
    [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"},
     {"OPENBLAS_THREAD_TIMEOUT": "7"}],
    ids=["default", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS",
         "OPENBLAS_THREAD_TIMEOUT"],
)
def test_main_sets_only_the_idle_timeout(user):
    proc = _python("-c", _MAIN_PROBE, *_BLAS_VARS, env=_env(**user), text=True)
    out, err = proc.communicate()
    assert (proc.returncode, err) == (5, "")
    expected = {v: user.get(v) for v in _BLAS_VARS}
    expected["OPENBLAS_THREAD_TIMEOUT"] = user.get("OPENBLAS_THREAD_TIMEOUT", "4")
    assert json.loads(out) == expected


# --- package import ----------------------------------------------------------

_LAZY_PROBE = """
import sys
import theta_selftest
assert "numpy" not in sys.modules, "import theta_selftest loaded numpy"
print("ok")
"""


def test_package_import_loads_no_numpy():
    # OpenBLAS reads the idle timeout that main sets only if numpy loads later.
    proc = _python("-c", _LAZY_PROBE, text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    assert out == "ok\n"
