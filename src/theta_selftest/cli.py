"""Command-line front end.

Subcommands: theta, certify, uniqueness, selftest, scenario, export.

Exit codes are a stable contract: 0 success, 1 input error, 2 solver or
certification failure, 3 self-test rejection.  Human-readable output prints
six significant digits; JSON output carries full double precision and is
emitted in canonical form (sorted keys, no whitespace) so repeated runs are
byte-identical.  The only environment variable honored is
THETA_SELFTEST_TOL, the default acceptance tolerance of `selftest`; the
other tolerance flags default to the constants of the modules that own
them (sdp.SOLVER_TOL, theta.NULL_THRESHOLD).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .graphs import (
    ResourceLimitError,
    WeightedGraph,
    canonical_json,
    fractional_packing,
    from_json_dict as graph_from_json_dict,
    independence_number,
    to_dot,
    to_json_dict as graph_to_json_dict,
)
from .scenarios import (
    builtin_witness,
    evaluate_witness,
    exclusivity_graph,
    parse_scenario_name,
    realization_from_json_dict,
    realization_to_json_dict,
    reference_realization,
    witness_to_json_dict,
)
from .sdp import SOLVER_TOL, SolverError, min_eigenvalue
from .selftest import (
    SELFTEST_TOL,
    PreconditionError,
    SelfTestError,
    run_selftest,
    selftest_report_to_json_dict,
    verify_selftest_claim,
)
from .theta import (
    NULL_THRESHOLD,
    MalformedCertificateError,
    NotPsdError,
    certificate_matrix,
    certificate_to_json_dict,
    chained_dual_certificate,
    chsh_dual_certificate,
    dual_nondegenerate,
    lovasz_theta,
    solve_theta_problem,
    verify_dual_certificate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_REJECT = 3

SANDWICH_SLACK = 1e-6  # allowed relative solver error in alpha <= theta <= alpha*


def _positive(name: str, value: float) -> float:
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    return value


def _emit_json(obj) -> None:
    sys.stdout.write(canonical_json(obj))


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load_graph(path: str) -> WeightedGraph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_json_dict(json.load(fh))


def _input_graph(args) -> WeightedGraph:
    if args.scenario and args.graph:
        raise ValueError("give either --scenario or --graph, not both")
    if args.scenario:
        return exclusivity_graph(builtin_witness(args.scenario))
    if args.graph:
        return _load_graph(args.graph)
    raise ValueError("one of --scenario or --graph is required")


def cmd_theta(args) -> int:
    solver_tol = _positive("solver_tol", args.solver_tol)
    g = _input_graph(args)
    # alpha* first: its clique enumeration is the step that can hit a limit.
    alpha_star = fractional_packing(g)
    alpha, _ = independence_number(g)
    theta, _ = lovasz_theta(g, tol=solver_tol)
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


def _closed_form_certificate(scenario: str):
    """The closed-form certificate of a chsh or chained scenario, else None.

    The chained witness's exclusivity graph is isomorphic to the circulant
    graph but lists vertices in event order; the closed-form certificate is
    written for the circulant labeling (cert.graph), so certification and
    uniqueness run on that labeling.
    """
    kind, n = parse_scenario_name(scenario)
    if kind == "chsh":
        return chsh_dual_certificate()
    if kind == "chained":
        return chained_dual_certificate(n)
    return None


def cmd_certify(args) -> int:
    cert = _closed_form_certificate(args.scenario)
    if cert is None:
        raise ValueError(f"no closed-form certificate for scenario '{args.scenario}'")
    try:
        verify_dual_certificate(cert.graph, cert)
        verified = True
    except (MalformedCertificateError, NotPsdError):
        verified = False
    eig = min_eigenvalue(cert.matrix)
    if args.json:
        _emit_json(
            {
                "bound": cert.t,
                "min_eigenvalue": eig,
                "verified": verified,
                "certificate": certificate_to_json_dict(cert),
            }
        )
    else:
        print(f"certified bound  = {_fmt(cert.t)}")
        print(f"min eigenvalue   = {_fmt(eig)}")
        print("verification     : " + ("PASS" if verified else "FAIL"))
    return EXIT_OK if verified else EXIT_SOLVER


def cmd_uniqueness(args) -> int:
    solver_tol = _positive("solver_tol", args.solver_tol)
    threshold = _positive("null_threshold", args.threshold)
    cert = None
    if args.scenario and not args.graph:
        cert = _closed_form_certificate(args.scenario)
    if cert is None:
        g = _input_graph(args)
        sol = solve_theta_problem(g, tol=solver_tol)
        z = certificate_matrix(g, sol.dual_multipliers)
    else:
        g, z = cert.graph, cert.matrix
    verdict = dual_nondegenerate(g, z, threshold=threshold)
    if args.json:
        _emit_json(
            {
                "nondegenerate": verdict.nondegenerate,
                "nullspace_dim": verdict.nullspace_dim,
                "residual": verdict.residual,
            }
        )
    else:
        print(
            "dual nondegeneracy: "
            + ("NONDEGENERATE" if verdict.nondegenerate else "DEGENERATE")
        )
        print(f"null-space dimension = {verdict.nullspace_dim}")
        print(f"smallest/largest singular value = {_fmt(verdict.residual)}")
    return EXIT_OK if verdict.nondegenerate else EXIT_SOLVER


def cmd_selftest(args) -> int:
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("THETA_SELFTEST_TOL", SELFTEST_TOL))
    tol = _positive("selftest_tol", tol)
    witness = builtin_witness(args.scenario)
    ref = reference_realization(args.scenario)
    if args.candidate:
        with open(args.candidate, encoding="utf-8") as fh:
            cand = realization_from_json_dict(json.load(fh))
    else:
        cand = ref
    report = run_selftest(witness, ref, cand, tol=tol)
    verified = verify_selftest_claim(ref, cand, report, tol)
    if args.json:
        payload = selftest_report_to_json_dict(report)
        payload["verified"] = verified
        _emit_json(payload)
    else:
        print(f"conditions: {report.conditions.verdicts}")
        print(f"junk dimensions = {report.junk_dims}")
        print(f"state residual  = {_fmt(report.state_residual)}")
        print(f"max vector residual = {_fmt(float(report.vector_residuals.max()))}")
        print("self-test: " + ("ACCEPT" if verified else "REJECT"))
    return EXIT_OK if verified else EXIT_REJECT


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


def _export_payload(scenario: str, fmt: str) -> str:
    witness = builtin_witness(scenario)
    g = exclusivity_graph(witness)
    if fmt == "dot":
        return to_dot(g)
    payload = {
        "graph": graph_to_json_dict(g),
        "witness": witness_to_json_dict(witness),
    }
    cert = _closed_form_certificate(scenario)
    if cert is not None:
        payload["certificate"] = certificate_to_json_dict(cert)
    return canonical_json(payload)


def cmd_export(args) -> int:
    text = _export_payload(args.scenario, args.format)
    if args.path:
        with open(args.path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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

    def add_common(p, graph_input=False):
        if graph_input:
            p.add_argument("--scenario", help="built-in scenario name")
            p.add_argument("--graph", help="path to a graph JSON file")
        else:
            p.add_argument(
                "--scenario",
                required=True,
                help="built-in scenario name (chsh, chained:N, mermin, as4)",
            )
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("theta", help="independence number, theta, fractional packing")
    add_common(p, graph_input=True)
    p.add_argument("--solver-tol", type=float, default=SOLVER_TOL, dest="solver_tol")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("certify", help="verify a closed-form dual certificate")
    add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("uniqueness", help="dual nondegeneracy of the optimizer")
    add_common(p, graph_input=True)
    p.add_argument("--solver-tol", type=float, default=SOLVER_TOL, dest="solver_tol")
    p.add_argument("--threshold", type=float, default=NULL_THRESHOLD)
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("selftest", help="run the extraction pipeline on a candidate")
    add_common(p)
    p.add_argument("--candidate", help="path to a candidate realization JSON file")
    p.add_argument("--tol", type=float, default=None, help="acceptance tolerance")
    p.set_defaults(func=cmd_selftest)

    p = sub.add_parser("scenario", help="emit witness and reference realization JSON")
    add_common(p)
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("export", help="write graph/witness/certificate artifacts")
    add_common(p)
    p.add_argument("--format", required=True, choices=("json", "dot"))
    p.add_argument("--path", help="output file (stdout when omitted)")
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
    except (SolverError, ResourceLimitError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PreconditionError as exc:
        print(f"self-test rejected (failed precondition): {exc}", file=sys.stderr)
        return EXIT_REJECT
    except SelfTestError as exc:
        print(f"self-test rejected: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
