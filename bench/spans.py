"""Spans around the package's public functions, recorded from outside.

The program is not edited: ``instrumented`` swaps module attributes for
wrappers while a traced call runs and puts the originals back afterwards.
Each span records its name, start, end, parent span and command id; spans
stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

LAYERS = ("cli", "scenarios", "graphs", "sdp", "theta", "selftest")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.cmd_id: int | None = None
        self._open: list[dict] = []
        # Interior-point iterations completed, counted by a per-iteration hook.
        self.iterations = 0

    def wrap(self, name: str, fn, annotate=None):
        """`fn` recording one span per call; `annotate(span, result)` may
        add attributes from the return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "cmd": self.cmd_id,
                    "parent": self._open[-1]["id"] if self._open else None,
                    "iter0": self.iterations}
            self.spans.append(span)
            self._open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                span["gap"] = getattr(exc, "gap", None)
                raise
            finally:
                self._open.pop()
                span["iterations"] = self.iterations - span.pop("iter0")
            span["end"] = time.perf_counter()
            if isinstance(result, bool):
                span["result"] = result
            if annotate is not None:
                annotate(span, result)
            return result

        return traced

    def count_iteration(self, fn, calls_per_iteration: int):
        calls = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % calls_per_iteration == 0:
                self.iterations += 1
            return fn(*args, **kwargs)

        return counted


def _layer(fn) -> str | None:
    parts = getattr(fn, "__module__", "").split(".")
    if len(parts) == 2 and parts[0] == "theta_selftest" and parts[1] in LAYERS:
        return parts[1]
    return None


def _annotate_cliques(span, result):
    span["count"] = len(result)


def _annotate_solve(span, result):
    span["converged"] = True
    span["solver_iterations"] = result.iterations


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap, for the duration of the block:

    - every public package function the ``cli`` module calls by name;
    - ``theta.solve_theta_problem`` and the ``solve_sdp`` name ``theta``
      calls, so each start of the ladder is a child span;
    - ``graphs.maximal_cliques``, whose spans carry the clique count;
    - ``sdp._restore_cone``, called twice per interior-point iteration (once
      for X, once for Z), as the iteration counter.
    """
    from theta_selftest import cli, graphs, sdp, theta

    saved = []

    def swap(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    try:
        for attr, fn in list(vars(cli).items()):
            layer = _layer(fn)
            if (inspect.isfunction(fn) and layer not in (None, "cli")
                    and not attr.startswith("_")):
                swap(cli, attr, tracer.wrap(f"{layer}.{fn.__name__}", fn))
        swap(theta, "solve_theta_problem",
             tracer.wrap("theta.solve_theta_problem", theta.solve_theta_problem))
        swap(theta, "solve_sdp",
             tracer.wrap("sdp.solve_sdp", theta.solve_sdp, _annotate_solve))
        swap(graphs, "maximal_cliques",
             tracer.wrap("graphs.maximal_cliques", graphs.maximal_cliques,
                         _annotate_cliques))
        if hasattr(sdp, "_restore_cone"):
            swap(sdp, "_restore_cone", tracer.count_iteration(sdp._restore_cone, 2))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_time(spans: list[dict], span: dict) -> float:
    """Duration of `span` minus the time its child spans cover."""
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return (span["end"] - span["start"]) - children
