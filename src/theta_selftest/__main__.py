"""Process entry point: ``python -m theta_selftest`` and the ``theta-selftest``
script both run `main`.

Unless the user set ``OPENBLAS_NUM_THREADS``, `main` asks OpenBLAS for one
thread before numpy loads it, so the process starts no idle BLAS worker, for
the command lines that never run the SDP solver: `certify`, `selftest`,
`scenario`, `export`, and exactly ``uniqueness --scenario S [--json]`` with
S chsh or chained:N, whose certificates are closed-form.  Every other command
line keeps OpenBLAS's default, which costs CPU time, never output.  Solver
runs must keep it: the solver's last digits, and so as4's uniqueness verdict,
depend on the thread count.  In-process callers use `cli.main`, which leaves
the environment alone.
"""

import os
import re
import sys

_NO_SOLVER = ("certify", "selftest", "scenario", "export")
# The selectors scenarios.parse_scenario_name reads as chsh or chained:N,
# in their canonical spelling.
_CLOSED_FORM = re.compile(r"chsh|chained:[0-9]+")


def runs_solver(argv: list[str]) -> bool:
    """Whether `argv` keeps OpenBLAS's default thread count: True for every
    command line but those the module docstring lists."""
    if argv and argv[0] in _NO_SOLVER:
        return False
    return not (
        len(argv) in (3, 4)
        and argv[:2] == ["uniqueness", "--scenario"]
        and argv[3:] in ([], ["--json"])
        and _CLOSED_FORM.fullmatch(argv[2]) is not None
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not runs_solver(argv):
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
