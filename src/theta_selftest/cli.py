"""Command-line front end.

Subcommands: theta, certify, uniqueness, selftest, scenario, export.  Each
writes its output to stdout and opens no file for writing.

Exit codes are a stable contract: 0 success, 1 input error, 2 solver,
certification or out-of-memory failure, 3 self-test rejection.
Human-readable output prints six significant digits; JSON output carries
full double precision and is emitted in canonical form (sorted keys, no
whitespace) so repeated runs are byte-identical.  No option or environment
variable sets a tolerance: each decision reads the constant of the module
that owns it (sdp.SOLVER_TOL, theta.CERT_TOL, theta.NULL_THRESHOLD,
selftest.SELFTEST_TOL).  Only `cmd_selftest` loads the
self-test layer, so the other commands never import (or, without cached
bytecode, compile) it; `run_selftest` raises on every rejection, so each
report it prints is an ACCEPT (`"verified":true`).  `main` runs in-process
and leaves the environment alone; the process entry point, `__main__.main`,
only sets OpenBLAS's idle timeout before it runs `main`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import (
    ResourceLimitError,
    WeightedGraph,
    canonical_json,
    fractional_packing,
    from_json_dict as graph_from_json_dict,
    independence_number,
    jsonable,
    to_dot,
    to_json_dict as graph_to_json_dict,
)
from .scenarios import (
    builtin_witness,
    closed_form_certificate,
    evaluate_witness,
    exclusivity_graph,
    realization_from_json_dict,
    realization_to_json_dict,
    reference_realization,
    witness_to_json_dict,
)
from .sdp import SolverError
from .theta import (
    certificate_matrix,
    check_size,
    dual_nondegenerate,
    positive_subgraph,
    solve_theta_problem,
    verify_dual_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_REJECT = 3

SANDWICH_SLACK = 1e-6  # allowed relative solver error in alpha <= theta <= alpha*


def _emit_json(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _read_json(path: str):
    """The JSON document in the file at path.  The decoder's RecursionError
    on a document nested too deeply becomes the ValueError of any other
    malformed document."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON document nested too deeply") from None


def _input_graph(args) -> WeightedGraph:
    if args.graph is None:
        return exclusivity_graph(builtin_witness(args.scenario))
    return graph_from_json_dict(_read_json(args.graph))


def cmd_theta(args) -> int:
    # All three on the positive-weight subgraph; with no positive weight each is 0.
    sub = positive_subgraph(_input_graph(args))[0]
    alpha = theta = alpha_star = 0.0
    if sub is not None:
        # The limits first: theta's size, then alpha*'s clique enumeration.
        check_size(sub)
        alpha_star = fractional_packing(sub)[1]
        alpha = independence_number(sub)
        theta = solve_theta_problem(sub).value
    slack = SANDWICH_SLACK * max(1.0, abs(theta))
    sandwich_ok = alpha <= theta + slack and theta <= alpha_star + slack
    if args.json:
        _emit_json(
            {
                "alpha": alpha,
                "theta": theta,
                "alpha_star": alpha_star,
                "sandwich_ok": sandwich_ok,
            }
        )
    else:
        print(f"independence number alpha = {_fmt(alpha)}")
        print(f"weighted theta            = {_fmt(theta)}")
        print(f"fractional packing alpha* = {_fmt(alpha_star)}")
        print(
            "sandwich alpha <= theta <= alpha*: "
            + ("OK" if sandwich_ok else "VIOLATED")
        )
    return EXIT_OK if sandwich_ok else EXIT_SOLVER


def cmd_certify(args) -> int:
    y = closed_form_certificate(args.scenario)
    if y is None:
        raise ValueError(f"no closed-form certificate for scenario '{args.scenario}'")
    g = exclusivity_graph(builtin_witness(args.scenario))
    cert = verify_dual_certificate(g, y)
    if args.json:
        _emit_json(jsonable(cert))
    else:
        print(f"certified bound  = {_fmt(cert.bound)}")
        print(f"min eigenvalue   = {_fmt(cert.min_eigenvalue)}")
        print("verification     : " + ("PASS" if cert.verified else "FAIL"))
    return EXIT_OK if cert.verified else EXIT_SOLVER


def cmd_uniqueness(args) -> int:
    g = _input_graph(args)
    check_size(g)  # every size refusal the input decides, before anything is built
    y = closed_form_certificate(args.scenario) if args.scenario else None
    if y is None:
        y = solve_theta_problem(g).dual_multipliers
    verdict = dual_nondegenerate(g, certificate_matrix(g, y))
    if args.json:
        _emit_json(verdict._asdict())
    else:
        print(
            "dual nondegeneracy: "
            + ("NONDEGENERATE" if verdict.nondegenerate else "DEGENERATE")
        )
        print(f"null-space dimension = {verdict.nullspace_dim}")
        print(f"smallest/largest singular value = {_fmt(verdict.residual)}")
    return EXIT_OK if verdict.nondegenerate else EXIT_SOLVER


def cmd_selftest(args) -> int:
    # The one command that loads the self-test layer.  It calls the layer's
    # run_selftest as a global of this module, bound on its first run; a name
    # already bound (a test's patch, the benchmark's spans) is kept.
    from . import selftest

    globals().setdefault("run_selftest", selftest.run_selftest)
    witness = builtin_witness(args.scenario)
    ref = reference_realization(args.scenario)
    cand = realization_from_json_dict(_read_json(args.candidate)) if args.candidate else ref
    try:
        report = run_selftest(witness, ref, cand)
    except selftest.PreconditionError as exc:
        print(f"self-test rejected (failed precondition): {exc}", file=sys.stderr)
        return EXIT_REJECT
    except selftest.SelfTestError as exc:
        print(f"self-test rejected: {exc}", file=sys.stderr)
        return EXIT_REJECT
    if args.json:
        _emit_json({**jsonable(report), "verified": True})
    else:
        print(f"conditions: {report.conditions.verdicts}")
        print(f"junk dimensions = {report.junk_dims}")
        print(f"state residual  = {_fmt(report.state_residual)}")
        print(f"max vector residual = {_fmt(float(report.vector_residuals.max()))}")
        print("self-test: ACCEPT")
    return EXIT_OK


def cmd_scenario(args) -> int:
    witness = builtin_witness(args.scenario)
    ref = reference_realization(args.scenario)
    value, _ = evaluate_witness(witness, ref)
    _emit_json(
        {
            "witness": witness_to_json_dict(witness),
            "realization": realization_to_json_dict(ref),
            "witness_value": value,
        }
    )
    return EXIT_OK


def cmd_export(args) -> int:
    witness = builtin_witness(args.scenario)
    g = exclusivity_graph(witness)
    if args.format == "dot":
        sys.stdout.write(to_dot(g))
        return EXIT_OK
    payload = {"graph": graph_to_json_dict(g), "witness": witness_to_json_dict(witness)}
    y = closed_form_certificate(args.scenario)
    if y is not None:
        payload["certificate"] = jsonable(verify_dual_certificate(g, y).certificate)
    _emit_json(payload)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-selftest",
        description=(
            "Weighted Lovasz theta, dual certificates, uniqueness, and "
            "constructive self-testing for exclusivity-graph witnesses."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("--scenario", required=True,
                       help="built-in scenario name (chsh, chained:N, mermin, as4)")

    def add_common(p, graph_input=False):
        if graph_input:
            source = p.add_mutually_exclusive_group(required=True)
            source.add_argument("--scenario", help="built-in scenario name")
            source.add_argument("--graph", help="path to a graph JSON file")
        else:
            add_scenario(p)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("theta", help="independence number, theta, fractional packing")
    add_common(p, graph_input=True)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("certify", help="verify a closed-form dual certificate")
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("uniqueness", help="dual nondegeneracy of the optimizer")
    add_common(p, graph_input=True)
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("selftest", help="run the extraction pipeline on a candidate")
    add_common(p)
    p.add_argument("--candidate", help="path to a candidate realization JSON file")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("scenario", help="emit witness and reference realization JSON")
    add_scenario(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("export", help="write graph/witness/certificate artifacts")
    add_scenario(p)
    p.add_argument("--format", required=True, choices=("json", "dot"))
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map to the input-error code
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SolverError, ResourceLimitError, MemoryError) as exc:
        # A bare MemoryError, such as (1.0,) * n raises, has no message.
        print(f"solver error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
