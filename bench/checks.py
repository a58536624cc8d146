"""Output checks for the CLI commands of a benchmark plan.

Each plan command carries a ``check`` dict written by gen.py.  ``failure``
returns None when the command's exit code and output pass it, and otherwise
a one-line reason.
"""

from __future__ import annotations

import json

# Absolute slack, scaled by max(1, |value|), for values the solver computes
# to a relative gap of 1e-9.
VALUE_TOL = 1e-6


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= VALUE_TOL * max(
        1.0, abs(want)
    )


def _theta(doc: dict, check: dict) -> str | None:
    alpha, theta, alpha_star = doc["alpha"], doc["theta"], doc["alpha_star"]
    slack = VALUE_TOL * max(1.0, abs(theta))
    if not (alpha <= theta + slack and theta <= alpha_star + slack):
        return f"sandwich fails: alpha={alpha} theta={theta} alpha*={alpha_star}"
    if doc["sandwich_ok"] is not True:
        return "sandwich_ok is not true"
    if check.get("theta") is not None and not _close(theta, check["theta"]):
        return f"theta {theta} != closed form {check['theta']}"
    return None


def _certify(doc: dict, check: dict) -> str | None:
    if doc["verified"] is not True:
        return "certificate not verified"
    if not _close(doc["bound"], check["bound"]):
        return f"bound {doc['bound']} != closed form {check['bound']}"
    return None


def _uniqueness(doc: dict, check: dict) -> str | None:
    if doc["nondegenerate"] is not True or doc["nullspace_dim"] != 0:
        return f"not nondegenerate: nullspace_dim={doc['nullspace_dim']}"
    return None


def _selftest(doc: dict, check: dict) -> str | None:
    if doc["verified"] is not check["verified"]:
        return f"verified is {doc['verified']}, expected {check['verified']}"
    return None


def _scenario(doc: dict, check: dict) -> str | None:
    if len(doc["witness"]["terms"]) != check["events"]:
        return f"{len(doc['witness']['terms'])} witness terms, expected {check['events']}"
    if not _close(doc["witness_value"], check["witness_value"]):
        return f"witness value {doc['witness_value']} != {check['witness_value']}"
    return None


def _export_json(doc: dict, check: dict) -> str | None:
    if doc["graph"]["n"] != check["vertices"]:
        return f"graph has {doc['graph']['n']} vertices, expected {check['vertices']}"
    return None


JSON_CHECKS = {"theta": _theta, "certify": _certify, "uniqueness": _uniqueness,
               "selftest": _selftest, "scenario": _scenario, "export": _export_json}


def failure(check: dict, code: int, stdout: str, stderr: str) -> str | None:
    """Why the command's result fails `check`, or None if it passes."""
    if code != check["exit"]:
        return f"exit code {code}, expected {check['exit']}: {stderr.strip()[:200]}"
    if "stderr" in check:
        if check["stderr"] not in stderr:
            return f"stderr lacks {check['stderr']!r}: {stderr.strip()[:200]}"
        return None
    if check["kind"] == "export" and check["format"] == "dot":
        vertices = sum(1 for line in stdout.splitlines() if "[weight=" in line)
        if not stdout.startswith("graph ") or vertices != check["vertices"]:
            return f"DOT output has {vertices} vertices, expected {check['vertices']}"
        return None
    try:
        doc = json.loads(stdout)
        return JSON_CHECKS[check["kind"]](doc, check)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
