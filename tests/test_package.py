"""The package's metadata, its tolerance policy and its import footprint."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import theta_selftest
from theta_selftest import cli, graphs, sdp, selftest, theta
from theta_selftest.graphs import circulant
from theta_selftest.scenarios import reference_realization


def test_version_has_a_single_source():
    # pyproject.toml reads the version from the package, so the two agree.
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    version = config["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "theta_selftest.__version__"}


def test_console_script_is_the_module_entry_point():
    # `theta-selftest` and `python -m theta_selftest` both run __main__.main,
    # which sets OpenBLAS's idle timeout before numpy loads and ends the
    # process with a hard exit.
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert config["project"]["scripts"] == {"theta-selftest": "theta_selftest.__main__:main"}


def _package_modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(Path(theta_selftest.__file__).parent.glob("*.py"))
    ]


def test_only_the_entry_point_runs_as_a_script():
    """__main__.py is the one module with an `if __name__ == "__main__"`
    block: `python -m theta_selftest.cli` would skip __main__.main's idle
    timeout and hard exit, so no other module offers a second entry."""
    guards = [
        f"{name}:{node.lineno}"
        for name, tree in _package_modules()
        if name != "__main__.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__name__"
    ]
    assert guards == []


def test_no_module_imports_another_modules_private_name():
    """Each module imports only the public names of the others: a helper
    that two modules share is public where it is defined."""
    private = [
        f"{name}:{node.lineno}: {alias.name}"
        for name, tree in _package_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("theta_selftest"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_readme_python_examples_run():
    """Each Python example of the README runs as written (imports included),
    with the chsh reference as the `candidate` it leaves to the reader."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    for block in blocks:
        exec(block, {"candidate": reference_realization("chsh")})


@pytest.mark.parametrize("module", ["cli", "graphs", "theta", "scenarios", "selftest"])
def test_small_float_literals_are_named_constants(module):
    """Every tolerance-sized float (0 < |x| < 1e-3) is the value of a
    module-level ``NAME = ...`` assignment, so each threshold is stated once
    and every use refers to it by name.

    ``sdp`` is exempt: its small literals are internal epsilons of the
    solver (its step length and cone nudge), not verdicts a caller reads or
    sets.
    """
    path = Path(theta_selftest.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = {
        id(node.value)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, ast.Constant)
    }
    loose = [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-3
        and id(node) not in named
    ]
    assert loose == []


def test_selftest_reads_no_kets():
    """A candidate is judged by its state and projectors alone: selftest.py
    never reads a realization's optional `kets`.  Its product kets come from
    batched per-party products, so it names no `kron` or `kron_all` either."""
    tree = ast.parse(Path(selftest.__file__).read_text(encoding="utf-8"))
    kron = {"kron", "kron_all"}
    reads = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in kron | {"kets"})
        or (isinstance(node, ast.Name) and node.id in kron)
        or (isinstance(node, ast.alias) and node.name in kron)
    ]
    assert reads == []


def test_theta_imports_nothing_from_scenarios():
    """theta.py is the theta layer over graphs and sdp alone: a scenario's
    facts, its closed-form certificate and the selector bound among them,
    live in scenarios.py, and theta imports nothing from it."""
    tree = ast.parse(Path(theta.__file__).read_text(encoding="utf-8"))
    imports = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and node.module == "scenarios")
        or (isinstance(node, ast.alias) and "scenarios" in node.name)
    ]
    assert imports == []


def test_package_never_reads_a_realizations_kets():
    """No module reads the attribute `kets` or names the document key
    "kets": only the Realization field and _rank_one_realization, which
    passes them positionally, touch a realization's kets."""
    reads = [
        f"{name}:{node.lineno}"
        for name, tree in _package_modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "kets")
        or (isinstance(node, ast.Constant) and node.value == "kets")
    ]
    assert reads == []


def test_each_default_has_a_single_source():
    # No subcommand and no function or method of the package takes a
    # tolerance: each decision reads the owning module's constant when it
    # runs, and cli keeps no copy of one.
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    dests = [a.dest for p in (parser, *sub.choices.values()) for a in p._actions]
    assert [d for d in dests if "tol" in d] == []
    params = [
        f"{name}:{node.name}({arg.arg})"
        for name, tree in _package_modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and "tol" in arg.arg
    ]
    assert params == []
    copies = [name for name, value in vars(cli).items()
              if type(value) is float and value in (sdp.SOLVER_TOL, selftest.SELFTEST_TOL)]
    assert copies == []


_MODULES_PROBE = """
import contextlib, io, sys
import theta_selftest
from theta_selftest import cli
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(" ".join(sorted(sys.modules)))
"""


def _modules_after(commands: list[list[str]]) -> list[set[str]]:
    """The modules loaded after each of `commands`, run in turn in one fresh
    interpreter (this pytest process has loaded scipy and selftest already)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE.format(commands=commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return [set(line.split()) for line in proc.stdout.splitlines()]


def test_no_command_loads_scipy(tmp_path):
    """The package depends on numpy alone: alpha* comes from its own LP
    solver.  The modules are read after the last command, so they cover the
    two theta commands and the five that never reach the alpha* LP."""
    graph = tmp_path / "c5.json"
    doc = graphs.canonical_json(graphs.to_json_dict(circulant(5, (1,))))
    graph.write_text(doc, encoding="utf-8")
    commands = [
        ["theta", "--scenario", "chsh"],
        ["theta", "--graph", str(graph), "--json"],
        ["certify", "--scenario", "chsh"],
        ["uniqueness", "--scenario", "chained:3"],
        ["selftest", "--scenario", "chsh"],
        ["scenario", "--scenario", "chsh"],
        ["export", "--scenario", "chsh", "--format", "dot"],
    ]
    loaded = _modules_after(commands)[-1]
    assert {m for m in loaded if m == "scipy" or m.startswith("scipy.")} == set()


def test_only_selftest_loads_the_selftest_layer():
    """The other commands never import selftest.py, so without cached
    bytecode they do not compile it either."""
    commands = [
        ["theta", "--scenario", "chsh"],
        ["certify", "--scenario", "chsh"],
        ["uniqueness", "--scenario", "chained:3"],
        ["scenario", "--scenario", "chsh"],
        ["export", "--scenario", "chsh", "--format", "dot"],
        ["selftest", "--scenario", "chsh"],
    ]
    loaded = ["theta_selftest.selftest" in modules for modules in _modules_after(commands)]
    assert loaded == [False] * 5 + [True]


def test_cli_import_loads_no_dataclasses():
    """The records are NamedTuples, so importing the command line does not
    pay for the dataclasses module; numpy, argparse and json do not load it
    either."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, theta_selftest.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
