"""The process entry point: which commands start BLAS with one thread.

`theta_selftest.__main__.main` sets ``OPENBLAS_NUM_THREADS=1`` (unless the
user set it) for a whitelist of command lines that cannot reach the SDP
solver.  That is safe only if those commands print the same at any thread
count, and if the predicate never puts a solver run on one thread: the
solver's last digits, and as4's uniqueness verdict, change with the thread
count.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from theta_selftest import cli, graphs, sdp, theta
from theta_selftest.__main__ import runs_solver
from theta_selftest.scenarios import parse_scenario_name

ROOT = Path(__file__).resolve().parents[1]


def _env(**overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(overrides)
    return env


# --- output does not depend on the thread count -----------------------------

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
    assert not runs_solver(argv)
    results = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "theta_selftest", *argv],
            capture_output=True, env=_env(OPENBLAS_NUM_THREADS=threads),
        )
        results.append((proc.returncode, proc.stdout))
    assert results[0] == results[1]
    assert results[0][0] == 0


# --- the predicate never puts a solver run on one thread --------------------


class _SolverReached(Exception):
    pass


def _reaches_solver(argv: list[str], monkeypatch) -> bool:
    """Whether `cli.main(argv)` calls `solve_sdp`; the call is cut short."""

    def spy(*args, **kwargs):
        raise _SolverReached

    # theta calls the solver by the name it imported.
    for module in (sdp, theta):
        monkeypatch.setattr(module, "solve_sdp", spy)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv)
    except _SolverReached:
        return True
    finally:
        monkeypatch.undo()
    return False


def _write_c5(tmp_path) -> str:
    path = tmp_path / "c5.json"
    path.write_text(graphs.canonical_json(graphs.to_json_dict(graphs.circulant(5, (1,)))),
                    encoding="utf-8")
    return str(path)


def _table(graph: str) -> list[list[str]]:
    return [
        ["theta", "--scenario", "chsh"],
        ["theta", "--graph", graph, "--json"],
        *(["uniqueness", "--scenario", s, "--json"]
          for s in ("chsh", "chained:8", "mermin", "as4")),
        ["uniqueness", "--graph", graph],
        ["uniqueness", "--scenario=chained:4"],
        ["uniqueness", "--sc", "mermin"],
        ["uniqueness", "--scenario", "chsh", "--scenario", "mermin"],
        ["uniqueness", "--scenario", " CHSH "],
        ["certify", "--scenario", "chained:5"],
        ["selftest", "--scenario", "chsh"],
        ["scenario", "--scenario", "mermin"],
        ["export", "--scenario", "as4", "--format", "dot"],
        # bad argv
        [],
        ["frobnicate"],
        ["--help"],
        ["theta"],
        ["uniqueness"],
        ["uniqueness", "--scenario"],
        ["uniqueness", "--scenario", "chsh", "--graph", graph],
        ["uniqueness", "--scenario", "chained:x"],
        ["certify", "--scenario", "mermin"],
    ]


def test_every_solver_run_is_predicted(tmp_path, monkeypatch):
    table = _table(_write_c5(tmp_path))
    reached = {tuple(argv): _reaches_solver(argv, monkeypatch) for argv in table}
    missed = [argv for argv, hit in reached.items() if hit and not runs_solver(list(argv))]
    assert missed == []
    # The table reaches the solver on both routes, so the check above bites.
    assert reached[("theta", "--scenario", "chsh")]
    assert reached[("uniqueness", "--scenario", "chsh", "--scenario", "mermin")]
    assert not reached[("uniqueness", "--scenario", "chsh", "--json")]


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
    # Only the exact spellings start one thread; the rest cost CPU, not output.
    assert runs_solver(argv)


def test_whitelist_and_parser_name_the_same_selectors():
    # A selector starts one thread exactly when the parser reads it as chsh or
    # chained:N and it is spelled as the parser normalizes it.
    for selector in ("chsh", "chained:0", "chained:16", "chained:016", "chained:1_6",
                     "chained:+3", "chained: 3", "chained:\u0663", "chained:", "chained:x",
                     "CHSH", " chsh", "Chained:4", "mermin", "as4"):
        try:
            kind, _ = parse_scenario_name(selector)
        except ValueError:
            kind = None
        canonical = kind in ("chsh", "chained") and selector == selector.strip().lower()
        assert runs_solver(["uniqueness", "--scenario", selector]) is not canonical, selector


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["scenarios-cli", "chained-uniqueness"])
def test_predicate_matches_the_solver_on_the_bench_plans(workload, tmp_path, monkeypatch):
    plan = _bench_gen().generate(workload, 1, str(tmp_path))
    wrong = [
        cmd["argv"] for cmd in plan["commands"]
        if _reaches_solver(cmd["argv"], monkeypatch) != runs_solver(cmd["argv"])
    ]
    assert wrong == []


# --- lazy import and the environment main() sets ----------------------------

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
    proc = subprocess.run([sys.executable, "-c", _LAZY_PROBE], capture_output=True,
                          text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


_ENV_PROBE = """
import contextlib, io, os, sys
from theta_selftest.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize(
    "argv, user, expected",
    [
        (["certify", "--scenario", "chsh"], None, "0 1"),
        (["theta", "--scenario", "chsh"], None, "0 None"),
        (["certify", "--scenario", "chsh"], "2", "0 2"),
    ],
)
def test_main_sets_one_thread_only_without_the_solver(argv, user, expected):
    env = _env() if user is None else _env(OPENBLAS_NUM_THREADS=user)
    proc = subprocess.run([sys.executable, "-c", _ENV_PROBE, *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected.split()
