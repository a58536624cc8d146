"""Seeded input generator for the benchmark.

Writes, under --out, the input files one workload needs (random graph JSON
files, candidate realization JSON files) and ``plan.json``: the CLI commands
of one pass over the workload, each with the check its output must pass.
The same --workload, --seed and --smoke always give byte-identical files.

    python3 bench/gen.py --workload random-theta --seed 7 --out DIR [--smoke]

Paths inside ``plan.json`` are relative to the repository root, which is the
working directory the commands run in.  Run with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
from math import cos, pi, sin, sqrt

import numpy as np

from theta_selftest.graphs import WeightedGraph, to_json_dict as graph_to_json_dict
from theta_selftest.scenarios import (
    Realization,
    parse_scenario_name,
    realization_to_json_dict,
    reference_realization,
)

# Sizes of the random G(n, p) graphs.  n stops at 40: at n = 50 and 60 one
# `theta --graph` command measured 24.6 s and 30.7 s on a 2-core box, a
# whole run's budget.  Stalled ladder starts still occur at these sizes (an
# n = 40, p = 0.5 draw took 16 s), as the seeded draw falls.
RANDOM_NS = (30, 35, 40)
RANDOM_PS = (0.3, 0.5)
RANDOM_PER_CLASS = 4

CHAINED_NS = (4, 6, 8, 10, 12, 14, 16)


def closed_form_theta(scenario: str) -> float:
    """Theta of a built-in scenario's exclusivity graph, from the paper."""
    kind, n = parse_scenario_name(scenario)
    if kind == "chsh":
        return 2.0 + sqrt(2.0)
    if kind == "chained":
        return n * (1.0 + cos(pi / (2 * n)))
    if kind == "mermin":
        return 4.0
    return 7.0 + 5.0 * sqrt(6.0) / 3.0  # as4


def event_count(scenario: str) -> int:
    kind, n = parse_scenario_name(scenario)
    return {"chsh": 8, "mermin": 16, "as4": 26}.get(kind) or 4 * n


# --- candidate realizations ------------------------------------------------


def _projectors(kets):
    return tuple(
        tuple(tuple(np.outer(k, np.conj(k)) for k in setting) for setting in party)
        for party in kets
    )


def _map_kets(r: Realization, maps) -> tuple:
    return tuple(
        tuple(tuple(maps[j] @ np.asarray(k, dtype=complex) for k in setting)
              for setting in party)
        for j, party in enumerate(r.kets)
    )


def _kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def rotated(r: Realization, rng: np.random.Generator) -> Realization:
    """An independent random orthogonal rotation on each party."""
    qs = [np.linalg.qr(rng.normal(size=(d, d)))[0] for d in r.dims]
    kets = _map_kets(r, qs)
    state = _kron_all(qs) @ np.asarray(r.state, dtype=complex)
    return Realization(r.dims, state, _projectors(kets), kets)


def padded(r: Realization, rng: np.random.Generator, extra: int = 2) -> Realization:
    """Each party embedded into a larger space by a random isometry."""
    ws = [np.linalg.qr(rng.normal(size=(d + extra, d + extra)))[0][:, :d]
          for d in r.dims]
    kets = _map_kets(r, ws)
    state = _kron_all(ws) @ np.asarray(r.state, dtype=complex)
    return Realization(tuple(d + extra for d in r.dims), state, _projectors(kets), kets)


def ancilla(r: Realization, rng: np.random.Generator) -> Realization:
    """A qubit register tensored onto each party, the registers jointly in
    cos(phi)|0...0> + sin(phi)|1...1>; projectors act as identity on it."""
    parties = len(r.dims)
    phi = rng.uniform(0.2, 1.3)
    anc = np.zeros(2**parties, dtype=complex)
    anc[0], anc[-1] = cos(phi), sin(phi)
    projs = tuple(
        tuple(tuple(np.kron(np.asarray(p, dtype=complex), np.eye(2)) for p in setting)
              for setting in party)
        for party in r.projectors
    )
    full = np.outer(np.asarray(r.state, dtype=complex), anc).reshape(
        tuple(r.dims) + (2,) * parties
    )
    order = [a for j in range(parties) for a in (j, parties + j)]
    state = full.transpose(order).reshape(-1)
    return Realization(tuple(2 * d for d in r.dims), state, projs, None)


def perturbed(r: Realization, rng: np.random.Generator) -> Realization:
    """The first party's first measurement basis rotated by a small angle,
    so the candidate no longer attains the bound."""
    angle = rng.uniform(0.03, 0.1)
    rot = np.eye(r.dims[0], dtype=complex)
    rot[:2, :2] = [[cos(angle), -sin(angle)], [sin(angle), cos(angle)]]
    kets = [[list(setting) for setting in party] for party in r.kets]
    kets[0][0] = [rot @ np.asarray(k, dtype=complex) for k in kets[0][0]]
    kets = tuple(tuple(tuple(setting) for setting in party) for party in kets)
    return Realization(r.dims, r.state, _projectors(kets), kets)


CANDIDATES = {"rotated": rotated, "padded": padded, "ancilla": ancilla,
              "perturbed": perturbed}

# Candidates the self-test rejects, with the stderr text that names why
# (pinned by tests/test_selftest.py): a perturbed candidate is not an
# optimizer; with an ancilla, chained and as4 fail precondition A4.
REJECTIONS = {"perturbed": "Gram mismatch", "ancilla": "failed precondition"}


def selftest_check(scenario: str, kind: str) -> dict:
    rejected = kind == "perturbed" or (
        kind == "ancilla" and parse_scenario_name(scenario)[0] in ("chained", "as4")
    )
    if rejected:
        return {"exit": 3, "stderr": REJECTIONS[kind]}
    return {"exit": 0, "verified": True}


# --- plans -----------------------------------------------------------------


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


def _scenarios_cli(rng, out: str, smoke: bool) -> list[dict]:
    if smoke:
        theta = certify = uniqueness = scenario = ["chsh"]
        selftests = [("chsh", "rotated"), ("chsh", "perturbed")]
        exports = [("chsh", "dot")]
    else:
        theta = ["chsh", "mermin", "as4"]
        certify = ["chsh", "chained:16"]
        # mermin and as4 have no closed-form certificate: their slack Z
        # comes from the solver.
        uniqueness = ["chained:8", "mermin", "as4"]
        selftests = [
            ("chsh", "rotated"), ("chained:8", "padded"), ("mermin", "padded"),
            ("chsh", "ancilla"), ("mermin", "ancilla"), ("as4", "ancilla"),
            ("chained:12", "perturbed"),
        ]
        scenario = ["chained:16"]
        exports = [("as4", "json"), ("chsh", "dot")]
    cmds = []
    for s in theta:
        cmds.append({"argv": ["theta", "--scenario", s, "--json"],
                     "check": {"kind": "theta", "exit": 0,
                               "theta": closed_form_theta(s)}})
    for s in certify:
        cmds.append({"argv": ["certify", "--scenario", s, "--json"],
                     "check": {"kind": "certify", "exit": 0,
                               "bound": closed_form_theta(s)}})
    for s in uniqueness:
        cmds.append({"argv": ["uniqueness", "--scenario", s, "--json"],
                     "check": {"kind": "uniqueness", "exit": 0}})
    os.makedirs(os.path.join(out, "candidates"), exist_ok=True)
    for s, kind in selftests:
        path = os.path.join(out, "candidates", f"{s.replace(':', '')}-{kind}.json")
        cand = CANDIDATES[kind](reference_realization(s), rng)
        _write_json(path, realization_to_json_dict(cand))
        check = {"kind": "selftest", **selftest_check(s, kind)}
        cmds.append({"argv": ["selftest", "--scenario", s, "--candidate", path,
                              "--json"], "check": check})
    for s in scenario:
        cmds.append({"argv": ["scenario", "--scenario", s],
                     "check": {"kind": "scenario", "exit": 0,
                               "witness_value": closed_form_theta(s),
                               "events": event_count(s)}})
    for s, fmt in exports:
        cmds.append({"argv": ["export", "--scenario", s, "--format", fmt],
                     "check": {"kind": "export", "exit": 0, "format": fmt,
                               "vertices": event_count(s)}})
    return cmds


def _chained_uniqueness(rng, out: str, smoke: bool) -> list[dict]:
    ns = [2, 3] if smoke else list(CHAINED_NS)
    return [{"argv": ["uniqueness", "--scenario", f"chained:{n}", "--json"],
             "check": {"kind": "uniqueness", "exit": 0}}
            for n in rng.permutation(ns).tolist()]


def random_graph(rng: np.random.Generator, n: int, p: float) -> WeightedGraph:
    """G(n, p) with vertex weights uniform on [0, 2]."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(upper))]
    return WeightedGraph(n, edges, rng.uniform(0.0, 2.0, size=n))


def _random_theta(rng, out: str, smoke: bool) -> list[dict]:
    classes = [(n, p) for n in RANDOM_NS for p in RANDOM_PS]
    if smoke:
        classes = [(RANDOM_NS[0], p) for p in RANDOM_PS]
    per_class = 1 if smoke else RANDOM_PER_CLASS
    os.makedirs(os.path.join(out, "graphs"), exist_ok=True)
    cmds = []
    for k, (n, p) in enumerate(c for c in classes for _ in range(per_class)):
        path = os.path.join(out, "graphs", f"g{k:02d}-n{n}-p{p}.json")
        _write_json(path, graph_to_json_dict(random_graph(rng, n, p)))
        cmds.append({"argv": ["theta", "--graph", path, "--json"],
                     "check": {"kind": "theta", "exit": 0, "theta": None}})
    order = rng.permutation(len(cmds))
    return [cmds[i] for i in order]


BUILDERS = {"scenarios-cli": _scenarios_cli,
            "chained-uniqueness": _chained_uniqueness,
            "random-theta": _random_theta}


def generate(workload: str, seed: int, out: str, smoke: bool = False) -> dict:
    """Write the workload's inputs and plan under `out`; return the plan."""
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    cmds = BUILDERS[workload](rng, out, smoke)
    for i, cmd in enumerate(cmds):
        cmd["id"] = i
    plan = {"workload": workload, "seed": seed, "smoke": smoke, "commands": cmds}
    _write_json(os.path.join(out, "plan.json"), plan)
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(BUILDERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="the smallest inputs of the workload")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
