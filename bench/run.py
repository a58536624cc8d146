"""Benchmark of the theta-selftest command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is run from ``src`` as it is.

--trace 0 runs the workload's CLI commands as a closed loop with one
client: each command is a fresh ``python -m theta_selftest`` process and
the next starts when it has ended.  It reports the end-to-end metrics.

--trace 1 replays the same commands in this process through
``theta_selftest.cli.main``: once to warm up, once with spans around the
package's public functions and once without.  It reports the per-layer
metrics and the tracing overhead.

Inputs come from bench/gen.py with the given seed; generating them is the
timed set-up.  Every command's exit code and output are checked.  Human-
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A full record
(environment, per-command samples, failures, spans) is written under
``.bench_work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np
from scipy.special import betainc

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import Tracer, instrumented, self_time  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
COMMAND_TIMEOUT_S = 60
# Duration of one pass over each workload's commands as fresh processes on
# a 2-core x86-64 box.  A --trace 0 run makes seconds // this many passes,
# at least one, so the number of samples does not depend on timing noise.
NOMINAL_PASS_S = {"scenarios-cli": 14.0, "chained-uniqueness": 10.0,
                  "random-theta": 26.0}
# Runnable, but not a workload of BENCHMARK.json: the solver fails (exit 2)
# on some of its seeded graphs, so a run of it can report correct=false.
UNLISTED = ("random-theta",)

END_TO_END = {
    "setup_s": "s",
    "cmd_wall_s.p50": "s",
    "cmd_wall_s.tail": "s",
    "cmd_cpu_s.mean": "s",
    "cmds_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, but not an end-to-end metric of BENCHMARK.json: it
# is 0 when the program is right, and a 0 has no relative bound.
EXTRA = {"failed_frac": "ratio"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "scenarios.build_s": "s",
    "graphs.alpha_s": "s",
    "graphs.alpha_star_s": "s",
    "graphs.cliques": "count",
    "theta.solve_s.total": "s",
    "theta.solve_s.self": "s",
    "theta.ladder_attempts": "count",
    "theta.ladder_useful_ratio": "ratio",
    "theta.stalled_s": "s",
    "sdp.iterations": "count",
    "sdp.iterations_wasted": "count",
    "sdp.s_per_iter": "s",
    "theta.nondegenerate_s": "s",
    "theta.certify_s": "s",
    "selftest.run_s": "s",
    "selftest.verify_s": "s",
    "selftest.accepted": "count",
    "selftest.rejected": "count",
    "theta.solver_errors": "count",
    "selftest.unexpected_errors": "count",
    "trace.overhead_frac": "ratio",
}
SELFTEST_REJECTIONS = {"SelfTestError", "PreconditionError", "NotOptimizerError"}


# --- processes -------------------------------------------------------------


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, scratch: str, cwd: str | None = None) -> dict:
    """Run one process to completion; wall time, CPU and peak RSS from its
    own resource usage (the RUSAGE_CHILDREN share of this one child)."""
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout, "stderr": stderr}


# --- statistics ------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of `n` samples above it."""
    return (100 * (n - 10)) // n if n > 10 else 0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  A run's samples cluster by command, and a single order
    statistic jumps between clusters; this estimate moves smoothly.  With
    p = 0 it is the maximum (no percentile has ten samples above it)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if p <= 0 or n == 1:
        return float(x[-1])
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


# --- set-up ----------------------------------------------------------------


def setup(root: str, work: str, args) -> tuple[float, dict, list[float]]:
    """Generate the seeded inputs SETUP_REPEATS times in fresh processes;
    returns the median time, the plan, and every time."""
    inputs = os.path.join(work, "inputs")
    # Relative --out, so the plan's paths are relative to the root, where
    # the commands run.
    argv = [sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", os.path.relpath(inputs, root)]
    argv += ["--smoke"] if args.smoke else []
    env = child_env(root)
    times, plans = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        res = run_child(argv, env, work, cwd=root)
        if res["exit"] != 0:
            raise RuntimeError(f"input generator failed: {res['stderr'].strip()}")
        times.append(res["wall_s"])
        with open(os.path.join(inputs, "plan.json"), encoding="utf-8") as fh:
            plans.append(fh.read())
    if len(set(plans)) != 1:
        raise RuntimeError("input generator is not deterministic for a fixed seed")
    plan = json.loads(plans[0])
    return statistics.median(times), plan, times


# --- end-to-end run --------------------------------------------------------


def passes_for(args) -> int:
    return max(1, int(args.seconds // NOMINAL_PASS_S[args.workload]))


def measure_cli(root: str, work: str, plan: dict, passes: int) -> dict:
    """Closed loop, one client: every command of the plan, `passes` times."""
    env = child_env(root)
    base = [sys.executable, "-m", "theta_selftest"]
    samples, failures, first_stdout = [], [], {}
    start = time.perf_counter()
    for p in range(passes):
        for cmd in plan["commands"]:
            res = run_child(base + cmd["argv"], env, work, cwd=root)
            reason = checks.failure(cmd["check"], res["exit"], res["stdout"], res["stderr"])
            prev = first_stdout.setdefault(cmd["id"], res["stdout"])
            if reason is None and res["stdout"] != prev:
                reason = "stdout differs from the first run of the same command"
            if reason is not None:
                failures.append({"pass": p, "id": cmd["id"], "argv": cmd["argv"],
                                 "reason": reason})
            samples.append({"pass": p, "id": cmd["id"], "exit": res["exit"],
                            "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                            "rss_mb": res["rss_mb"]})
    elapsed = time.perf_counter() - start
    walls = [s["wall_s"] for s in samples]
    q = tail_percentile(len(walls))
    return {
        "samples": samples,
        "failures": failures,
        "elapsed_s": elapsed,
        "tail_percentile": q,
        "metrics": {
            "cmd_wall_s.p50": quantile(walls, 0.5),
            "cmd_wall_s.tail": quantile(walls, q / 100),
            "cmd_cpu_s.mean": statistics.fmean(s["cpu_s"] for s in samples),
            "cmds_per_s": len(samples) / elapsed,
            "peak_rss_mb": max(s["rss_mb"] for s in samples),
        },
    }


# --- traced run ------------------------------------------------------------


def call_cli(cli, argv: list[str], tracer: Tracer | None, cmd_id: int):
    """Run ``cli.main(argv)`` in this process; (exit, stdout, stderr, wall)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with instrumented(tracer):
                    tracer.cmd_id = cmd_id
                    code = tracer.wrap("cli.main", cli.main)(argv)
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures over one traced pass of the workload's commands."""

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(ss):
        return sum(s["end"] - s["start"] for s in ss)

    attempts = named("sdp.solve_sdp")
    stalled = [s for s in attempts if "error" in s]
    iterations = sum(s["solver_iterations"] if s.get("converged") else s["iterations"]
                     for s in attempts)
    solves = named("theta.solve_theta_problem")
    verifies = named("selftest.verify_selftest_claim")
    selftest_spans = named("selftest.run_selftest") + verifies
    return {
        "cli.self_s": sum(self_time(spans, s) for s in named("cli.main")),
        "scenarios.build_s": seconds(named("scenarios.builtin_witness",
                                           "scenarios.exclusivity_graph",
                                           "scenarios.reference_realization")),
        "graphs.alpha_s": seconds(named("graphs.independence_number")),
        "graphs.alpha_star_s": seconds(named("graphs.fractional_packing")),
        "graphs.cliques": sum(s.get("count", 0) for s in named("graphs.maximal_cliques")),
        "theta.solve_s.total": seconds(solves),
        "theta.solve_s.self": sum(self_time(spans, s) for s in solves),
        "theta.ladder_attempts": len(attempts),
        # No attempt wasted when there was no attempt.
        "theta.ladder_useful_ratio": (len(attempts) - len(stalled)) / len(attempts)
        if attempts else 1.0,
        "theta.stalled_s": seconds(stalled),
        "sdp.iterations": iterations,
        "sdp.iterations_wasted": sum(s["iterations"] for s in stalled),
        "sdp.s_per_iter": seconds(attempts) / iterations if iterations else 0.0,
        "theta.nondegenerate_s": seconds(named("theta.dual_nondegenerate")),
        "theta.certify_s": seconds(named("theta.verify_dual_certificate")),
        "selftest.run_s": seconds(named("selftest.run_selftest")),
        "selftest.verify_s": seconds(verifies),
        "selftest.accepted": sum(s.get("result") is True for s in verifies),
        "selftest.rejected": sum(s.get("result") is False or s.get("error") in SELFTEST_REJECTIONS
                                 for s in selftest_spans),
        "theta.solver_errors": sum(s.get("error") == "SolverError" for s in solves),
        "selftest.unexpected_errors": sum(
            "error" in s and s["error"] not in SELFTEST_REJECTIONS for s in selftest_spans
        ),
    }


def measure_traced(root: str, work: str, plan: dict) -> dict:
    """One pass over the plan in this process, each command run three times
    (warm-up, traced, untraced), after timing fresh-process imports of the
    CLI module."""
    env = child_env(root)
    import_probe = [sys.executable, "-c", "import theta_selftest.cli"]
    import_times = []
    for _ in range(IMPORT_REPEATS):
        res = run_child(import_probe, env, work)
        if res["exit"] != 0:
            raise RuntimeError(f"importing theta_selftest.cli failed: {res['stderr']}")
        import_times.append(res["wall_s"])

    sys.path.insert(0, os.path.join(root, "src"))
    from theta_selftest import cli

    tracer = Tracer()
    walls = {False: 0.0, True: 0.0}
    failures = []
    for cmd in plan["commands"]:
        # A first, untimed call takes the command's one-time costs (lazy
        # imports and caches in numpy and scipy).  Then the traced and the
        # untraced call alternate in which goes first.
        order = (None, False, True) if cmd["id"] % 2 == 0 else (None, True, False)
        outputs = []
        for traced in order:
            code, out, err, wall = call_cli(cli, cmd["argv"], tracer if traced else None,
                                            cmd["id"])
            if traced is not None:
                walls[traced] += wall
            reason = checks.failure(cmd["check"], code, out, err)
            if reason is None and outputs and out != outputs[0]:
                reason = "stdout differs from the first run of the same command"
            outputs.append(out)
            if reason is not None:
                failures.append({"id": cmd["id"], "traced": bool(traced),
                                 "argv": cmd["argv"], "reason": reason})
    metrics = {"cli.import_s": statistics.median(import_times)}
    metrics.update(layer_metrics(tracer.spans))
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return {
        "failures": failures,
        "attempted": 3 * len(plan["commands"]),
        "import_s_all": import_times,
        "replay_s": {"untraced": walls[False], "traced": walls[True]},
        "iteration_hook": hasattr(sys.modules["theta_selftest.sdp"], "_restore_cone"),
        "spans": tracer.spans,
        "metrics": metrics,
    }


# --- environment -----------------------------------------------------------


def git_commit(root: str) -> str | None:
    """HEAD commit read from .git, without running git (a checkout of the
    benchmark need not be a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """Threads the BLAS bundled with numpy will use, from the library itself,
    else from the environment variables that set it."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def environment(root: str) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": nproc,
        "blas_threads_exceed_nproc": threads is not None and threads > nproc,
        "machine": platform.machine(),
    }


# --- main ------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="theta-selftest CLI benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs and fewest passes (for the smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "theta_selftest", "cli.py")):
        print("bench: run from the repository root; src/theta_selftest is missing",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    setup_s, plan, setup_times = setup(root, work, args)
    env = environment(root)
    if args.trace == 0:
        passes = passes_for(args)
        result = measure_cli(root, work, plan, passes)
        attempted = len(result["samples"])
        metrics = {"setup_s": setup_s, **result["metrics"]}
        units = END_TO_END
    else:
        passes = 1
        result = measure_traced(root, work, plan)
        attempted = result["attempted"]
        metrics = result["metrics"]
        units = PER_LAYER
    failed = len(result["failures"])
    extra = {"failed_frac": failed / attempted}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "passes": passes, "commands_per_pass": len(plan["commands"]),
              "setup_s_all": setup_times, "attempted": attempted, "failed": failed,
              "plan": plan, **result, "metrics": metrics, "extra": extra}
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    record_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes} x {len(plan['commands'])} commands")
    print("environment " + json.dumps(env, sort_keys=True))
    if env["blas_threads_exceed_nproc"]:
        print(f"WARNING: BLAS uses {env['blas_threads']} threads on {env['nproc']} CPUs")
    if args.trace == 1 and not result["iteration_hook"]:
        print("WARNING: sdp._restore_cone is gone; iterations of stalled starts read 0")
    all_units = {**units, **EXTRA}
    for name, value in {**metrics, **extra}.items():
        print(f"  {name:28s} {value:12.6g} {all_units[name]}")
    print(f"  {failed} of {attempted} commands failed")
    if args.trace == 0:
        print(f"  cmd_wall_s.tail is p{result['tail_percentile']} of {attempted} samples")
    for f in result["failures"]:
        print(f"FAILED {' '.join(f['argv'])}: {f['reason']}")
    print(f"record {os.path.relpath(record_path, root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
