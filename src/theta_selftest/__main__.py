"""Process entry point: ``python -m theta_selftest`` and the ``theta-selftest``
script both run `main`.

Only `theta` and `uniqueness` without a closed-form certificate run the SDP
solver; every other command does a few milliseconds of numpy work.  For
those, `main` asks OpenBLAS for one thread before numpy loads it, so the
process starts no idle BLAS worker.  A user's own ``OPENBLAS_NUM_THREADS``
is kept.  Solver runs keep OpenBLAS's default: the solver's last digits, and
so as4's uniqueness verdict, depend on the thread count.  In-process callers
use `cli.main`, which leaves the environment alone.
"""

import os
import re
import sys

_NO_SOLVER = ("certify", "selftest", "scenario", "export")
_CLOSED_FORM = re.compile(r"chsh|chained:[0-9]+")


def runs_solver(argv: list[str]) -> bool:
    """Whether the command line `argv` may reach `sdp.solve_sdp`.

    True for `theta`, for `uniqueness` unless every scenario it names is
    chsh or chained:N (their certificates are closed-form), and for any
    argv this does not recognise.
    """
    command = argv[0] if argv else None
    if command in _NO_SOLVER:
        return False
    if command != "uniqueness":
        return True
    # argparse keeps the last --scenario and accepts an unambiguous prefix
    # ("--sc"), with the value in the next argument or after "=".
    scenarios = []
    for arg, following in zip(argv, [*argv[1:], ""]):
        option, eq, value = arg.partition("=")
        if len(option) > 3 and "--scenario".startswith(option):
            scenarios.append(value if eq else following)
    return not scenarios or not all(_CLOSED_FORM.fullmatch(s) for s in scenarios)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not runs_solver(argv):
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
