"""Process entry point: ``python -m theta_selftest`` and the ``theta-selftest``
script both run `main`.

Unless the user chose a BLAS thread count (``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``), `main` starts the OpenBLAS
that numpy's wheel bundles with one thread, whose workers sleep as soon as
they are idle (``OPENBLAS_THREAD_TIMEOUT=4``), and records the count OpenBLAS
would have chosen.  `sdp.default_blas_threads` restores that count around the
kernels whose rounding depends on it (the SDP solver, the dense SVD of the
uniqueness test and the clique LP of alpha*), so every command prints what
it prints at OpenBLAS's default.  `main` then ends the process without
interpreter teardown.  In-process callers use `cli.main`, which leaves the
environment and the thread count alone.
"""

import glob
import importlib.util
import os
import sys
from typing import NoReturn

_USER_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_MAX_THREADS = 64  # OpenBLAS's MAX_THREADS in numpy's wheels


def bundled_openblas() -> tuple[str, int] | None:
    """The path of the OpenBLAS that numpy's Linux wheel bundles and the thread
    count it starts with by default (the CPUs this process may run on, at most
    64), found without loading numpy; None when the user chose a thread count
    or there is no such library."""
    spec = importlib.util.find_spec("numpy")
    if (any(var in os.environ for var in _USER_THREADS) or spec is None
            or spec.origin is None or not hasattr(os, "sched_getaffinity")):
        return None
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(spec.origin)),
                                  "numpy.libs", "libscipy_openblas64_*"))
    if len(libs) != 1:
        return None
    return libs[0], min(len(os.sched_getaffinity(0)), _MAX_THREADS)


def main(argv: list[str] | None = None) -> NoReturn:
    blas = bundled_openblas()
    if blas is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    from . import cli, sdp

    sdp.blas_default = blas
    code = cli.main(sys.argv[1:] if argv is None else argv)
    # Skip the interpreter's teardown, which frees what the exit frees anyway
    # (mypy's hard_exit does the same); only buffered output needs writing.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
