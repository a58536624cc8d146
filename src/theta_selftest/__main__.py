"""Process entry point: ``python -m theta_selftest`` and the ``theta-selftest``
script both run `main`.

`main` sets ``OPENBLAS_THREAD_TIMEOUT=4`` unless the user set it, before numpy
loads, so that OpenBLAS's idle workers sleep at once instead of spinning.  It
sets no thread count: every kernel runs at OpenBLAS's default.  It then runs
`cli.main` and ends the process without interpreter teardown.  In-process
callers use `cli.main`, which leaves the environment alone.
"""

import os
import sys
from typing import NoReturn


def main(argv: list[str] | None = None) -> NoReturn:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    from . import cli

    code = cli.main(sys.argv[1:] if argv is None else argv)
    # Skip the interpreter's teardown, which frees what the exit frees anyway
    # (mypy's hard_exit does the same); only buffered output needs writing.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
