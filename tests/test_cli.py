"""Command-line interface: subcommands, exit codes, output contracts."""

import hashlib
import json
import os
import re
import time
import tracemalloc
from math import cos, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    complement,
    perturbed_candidate,
    rotated_candidate,
    run_cli,
    tensor_padded_candidate,
)

from theta_selftest import cli, graphs, selftest, theta
from theta_selftest.graphs import WeightedGraph, circulant
from theta_selftest.scenarios import (
    MAX_CHAINED_N,
    builtin_witness,
    closed_form_certificate,
    exclusivity_graph,
    realization_to_json_dict,
    reference_realization,
)
from theta_selftest.sdp import SolverError
from theta_selftest.theta import verify_dual_certificate


def _write_graph(path, g: WeightedGraph) -> str:
    path.write_text(graphs.canonical_json(graphs.to_json_dict(g)), encoding="utf-8")
    return str(path)


def _write_realization(path, r) -> str:
    path.write_text(json.dumps(realization_to_json_dict(r)), encoding="utf-8")
    return str(path)


def _kets_json(kets) -> list:
    """Kets as an older realization document wrote them: [re, im] pairs."""
    return [[[[[z.real, z.imag] for z in np.asarray(k, dtype=complex)] for k in setting]
             for setting in party] for party in kets]


C5_EDGES = [[i, (i + 1) % 5] for i in range(5)]

# Selectors int() would read as a number: N must be ASCII digits only.
_BAD_CHAINED = ("chained:1_6", "chained:+3", "chained: 3", "chained:\u0663", "chained:")

# Every start of the theta ladder stalls on this whole graph.
ZERO_WEIGHT_GRAPH = WeightedGraph(
    5,
    [(0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)],
    [0.0, 1.409491023015686, 0.06784347576144613, 0.0, 1.409491023015686],
)


class TestTheta:
    def test_chsh_text(self):
        code, out, err = run_cli(["theta", "--scenario", "chsh"])
        assert code == 0 and err == ""
        assert "alpha = 3" in out
        assert "3.41421" in out
        assert "alpha* = 4" in out
        assert "OK" in out

    def test_chsh_json(self):
        code, out, _ = run_cli(["theta", "--scenario", "chsh", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 3.0
        assert abs(doc["theta"] - (2.0 + sqrt(2.0))) <= 1e-6
        assert abs(doc["alpha_star"] - 4.0) <= 1e-9
        assert doc["sandwich_ok"] is True

    def test_mermin_json(self):
        code, out, _ = run_cli(["theta", "--scenario", "mermin", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 3.0
        assert abs(doc["theta"] - 4.0) <= 1e-6
        assert abs(doc["alpha_star"] - 4.0) <= 1e-9

    def test_as4_json(self):
        code, out, _ = run_cli(["theta", "--scenario", "as4", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 10.0
        assert abs(doc["theta"] - (7.0 + 5.0 * sqrt(6.0) / 3.0)) <= 1e-5
        assert abs(doc["alpha_star"] - 14.0) <= 1e-9

    def test_graph_file_input(self, tmp_path):
        path = _write_graph(tmp_path / "g.json", WeightedGraph(4, []))
        code, out, _ = run_cli(["theta", "--graph", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 4.0
        assert abs(doc["theta"] - 4.0) <= 1e-7
        assert abs(doc["alpha_star"] - 4.0) <= 1e-9

    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError(), "out of memory"), (MemoryError("Unable to allocate"), "Unable to allocate")],
        ids=["bare", "numpy"],
    )
    def test_memory_error_is_solver_error(self, monkeypatch, exc, message):
        # Such as (1.0,) * n raises on a graph document with n = 10^12.
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "solve_theta_problem", no_memory)
        code, out, err = run_cli(["theta", "--scenario", "chsh", "--json"])
        assert (code, out, err) == (2, "", f"solver error: {message}\n")

    def test_oversized_theta_problem_refused_before_alpha(self, tmp_path, monkeypatch):
        # 2000 isolated vertices: theta's size refusal comes before alpha*
        # and alpha run.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(2000, []))
        for name in ("fractional_packing", "independence_number"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the theta SDP on 2000 vertices and 0 edges")
        assert err.count("\n") == 1

    def test_clique_limit_is_solver_error(self, tmp_path, monkeypatch):
        # The cocktail-party graph K_{2x5} has 2^5 maximal cliques; the same
        # path serves K_{2x17}, whose 2^17 exceed the default limit.  The
        # limit trips before any SDP is solved.
        pairs = [(2 * i, 2 * i + 1) for i in range(5)]
        path = _write_graph(tmp_path / "g.json", complement(WeightedGraph(10, pairs)))
        monkeypatch.setattr(graphs, "_CLIQUE_LIMIT", 16)

        def no_theta(*args, **kwargs):
            raise AssertionError("theta solved before the clique limit tripped")

        monkeypatch.setattr(cli, "solve_theta_problem", no_theta)
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, out) == (2, "")
        assert err == "solver error: more than 16 maximal cliques\n"

    def test_large_weights_pass_the_sandwich(self, tmp_path):
        # theta = 29999999.99645 sits 1.2e-10 below alpha = 3e7 relative,
        # within the solver tolerance; the sandwich slack scales with it.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(2, [(0, 1)], [3e7, 3e7]))
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["alpha"] == 3e7
        assert doc["sandwich_ok"] is True

    def test_zero_weight_vertices_do_not_stall(self, tmp_path):
        # Every start of the ladder stalls on the full graph; theta is that of
        # the subgraph induced by the three positive-weight vertices.
        path = _write_graph(tmp_path / "g.json", ZERO_WEIGHT_GRAPH)
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert abs(doc["theta"] - 1.409491023015686) <= 1e-9 * 1.409491023015686
        assert doc["sandwich_ok"] is True

    def test_zero_weight_path_is_zero_without_a_search(self, tmp_path, monkeypatch):
        # alpha, theta and alpha* are those of the positive-weight subgraph,
        # empty here, so none of the three searches or solvers runs.
        n = 2000
        path = _write_graph(
            tmp_path / "g.json", WeightedGraph(n, [(i, i + 1) for i in range(n - 1)], [0.0] * n)
        )
        for name in ("fractional_packing", "independence_number", "solve_theta_problem"):
            monkeypatch.setattr(cli, name, lambda *args, name=name, **kw: pytest.fail(f"{name} ran"))
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, err) == (0, "")
        assert out == '{"alpha":0.0,"alpha_star":0.0,"sandwich_ok":true,"theta":0.0}\n'

    @pytest.mark.parametrize(
        "scenario,cap",
        [("mermin", lambda steps: 1), ("chsh", lambda steps: steps - 1),
         ("chsh", lambda steps: steps)],
        ids=["mermin-cap-1", "chsh-cap-below-steps", "chsh-cap-at-steps"],
    )
    def test_packing_non_convergence_is_solver_error(self, monkeypatch, scenario, cap):
        # The iterate the last allowed step makes is judged too, so a cap of
        # the steps an uncapped run takes still converges.  Every judged
        # iterate is projected onto the optimal face once.
        argv = ["theta", "--scenario", scenario, "--json"]
        projections = []
        project = graphs._face_projection

        def counted(*args):
            projections.append(args)
            return project(*args)

        monkeypatch.setattr(graphs, "_face_projection", counted)
        uncapped = run_cli(argv)
        assert uncapped[0] == 0
        steps = len(projections) - 1
        monkeypatch.setattr(graphs, "_PACKING_MAX_ITER", cap(steps))
        code, out, err = run_cli(argv)
        if cap(steps) >= steps:
            assert (code, out, err) == uncapped
            return
        assert (code, out) == (2, "")
        assert err.startswith("solver error: fractional packing LP did not converge")
        assert err.count("\n") == 1

    def test_input_flag_errors(self, tmp_path):
        code, _, err = run_cli(["theta", "--scenario", "bogus"])
        assert code == 1
        code, _, err = run_cli(["theta", "--graph", str(tmp_path / "missing.json")])
        assert code == 1

    def test_malformed_graph_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        for text in (
            '{"nope": 1}',
            '{"n": 2, "edges": [[0, 1]], "weights": [1.0, NaN]}',
            '{"n": 2, "edges": [[0, 1]], "weights": [Infinity, 1.0]}',
            '{"n": 2, "edges": [[0, 1.7]]}',
            '{"n": true, "edges": []}',
            '{"n": 2, "edges": [[0, 1]], "weights": [true, "2.5"]}',
            # Weights may be omitted, but when present must be n numbers.
            '{"n": 2, "edges": [[0, 1]], "weights": false}',
            '{"n": 2, "edges": [[0, 1]], "weights": 0}',
            '{"n": 2, "edges": [[0, 1]], "weights": ""}',
            '{"n": 2, "edges": [[0, 1]], "weights": {}}',
            '{"n": 2, "edges": [[0, 1]], "weights": []}',
            '{"n": 2, "edges": [[0, 1]], "weights": null}',
        ):
            bad.write_text(text, encoding="utf-8")
            for command in ("theta", "uniqueness"):
                code, out, err = run_cli([command, "--graph", str(bad)])
                assert (code, out) == (1, ""), (command, text)
                assert err.startswith("input error"), (command, text)

    @pytest.mark.parametrize("command", ["theta", "uniqueness"])
    def test_sdp_non_convergence_is_solver_error(self, monkeypatch, command):
        # mermin has no closed-form certificate, so both commands run the SDP.
        def stalled(*args, **kwargs):
            raise SolverError("progress stalled", 6e-09, 1e-16, 2.6e-07)

        monkeypatch.setattr(theta, "solve_sdp", stalled)
        code, out, err = run_cli([command, "--scenario", "mermin", "--json"])
        assert (code, out) == (2, "")
        assert err == ("solver error: progress stalled "
                       "(primal infeas 6.000e-09, dual infeas 1.000e-16, gap 2.600e-07)\n")


class TestCertify:
    def test_chsh(self):
        code, out, _ = run_cli(["certify", "--scenario", "chsh"])
        assert code == 0
        assert "PASS" in out and "3.41421" in out
        code, out, _ = run_cli(["certify", "--scenario", "chsh", "--json"])
        doc = json.loads(out)
        assert doc["verified"] is True
        assert abs(doc["bound"] - (2.0 + sqrt(2.0))) <= 1e-12
        assert doc["min_eigenvalue"] >= -1e-9
        assert doc["certificate"]["t"] == doc["bound"]

    def test_chained(self):
        code, out, _ = run_cli(["certify", "--scenario", "chained:5", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["bound"] - 5.0 * (1.0 + cos(pi / 10.0))) <= 1e-12

    @pytest.mark.parametrize("name", ["chsh"] + [f"chained:{n}" for n in range(2, 17)])
    def test_certificate_is_written_for_the_witness_graph(self, name):
        g = exclusivity_graph(builtin_witness(name))
        # chained_dual_certificate(N) writes y for circulant(4N, [1, 2N]).
        assert g == circulant(g.n, (1, g.n // 2))
        y = closed_form_certificate(name)
        cert = verify_dual_certificate(g, y)
        assert cert.verified and cert.bound == y[0]

    def test_failed_certificate_exits_2_with_the_same_numbers(self, monkeypatch):
        # No minimum eigenvalue is at least 1, so CERT_TOL = -1 fails chsh.
        argvs = (["certify", "--scenario", "chsh"], ["certify", "--scenario", "chsh", "--json"])
        passed = [run_cli(argv) for argv in argvs]
        monkeypatch.setattr(theta, "CERT_TOL", -1.0)
        (code, text, err), (jcode, doc, jerr) = (run_cli(argv) for argv in argvs)
        assert (code, jcode, err, jerr) == (2, 2, "", "")
        assert text.endswith("verification     : FAIL\n")
        assert text == passed[0][1].replace("PASS", "FAIL")
        assert '"verified":false' in doc
        assert doc == passed[1][1].replace('"verified":true', '"verified":false')

    def test_certify_diagonalizes_z_once(self, monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or eigvalsh(m))
        code, out, _ = run_cli(["certify", "--scenario", "chained:5", "--json"])
        assert code == 0 and json.loads(out)["verified"] is True
        assert shapes == [(21, 21)]  # Z of chained:5's 20 events

    def test_no_closed_form_certificate_for_mermin_and_as4(self):
        assert closed_form_certificate("mermin") is None
        assert closed_form_certificate("as4") is None

    def test_rejects_unsupported_scenarios(self):
        for bad in ("chained:0", "chained:1", f"chained:{MAX_CHAINED_N + 1}", "mermin", "as4",
                    "nope", *_BAD_CHAINED):
            code, out, err = run_cli(["certify", "--scenario", bad])
            assert (code, out) == (1, ""), bad
            assert err.startswith("input error:") and err.count("\n") == 1, bad


class TestUniqueness:
    def test_chsh_closed_form(self):
        code, out, _ = run_cli(["uniqueness", "--scenario", "chsh", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["nondegenerate"] is True
        assert doc["nullspace_dim"] == 0
        assert doc["residual"] > 0

    def test_chained_closed_form(self):
        code, out, _ = run_cli(["uniqueness", "--scenario", "chained:3"])
        assert code == 0 and "NONDEGENERATE" in out

    def test_threshold_option_is_gone(self):
        # The null cut is theta.NULL_THRESHOLD; no option overrides it.
        code, out, err = run_cli(["uniqueness", "--scenario", "chsh", "--threshold", "1e-8"])
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --threshold 1e-8" in err

    def test_oversized_theta_problem_is_solver_error(self, tmp_path):
        # 2000 isolated vertices: the theta SDP's constraint stack would take
        # 59.7 GiB, so it is refused before it is built.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(2000, []))
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the theta SDP on 2000 vertices")
        assert err.count("\n") == 1

    def test_oversized_kernel_map_is_solver_error(self, tmp_path):
        # 438 zero-weight isolated vertices: no SDP is solved, Z = 0, and the
        # map on its 439-dimensional kernel is refused before it is built.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(438, [], [0.0] * 438))
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the uniqueness map on a 439-dimensional kernel")
        assert err.count("\n") == 1

    def test_zero_rows_refuse_the_kernel_map_before_eigh(self, tmp_path, monkeypatch):
        # 4000 zero-weight isolated vertices: Z would be 0, and its 4001
        # all-zero rows are kernel vectors enough to refuse the map from the
        # weights alone, without Z's O(n^3) eigh, which took 5.7 s on a
        # 2-core x86-64 box.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(4000, [], [0.0] * 4000))
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh ran"))
        start = time.perf_counter()
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert time.perf_counter() - start <= 1.0
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the uniqueness map on a 4001-dimensional kernel")
        assert err.count("\n") == 1

    def test_kernel_map_is_refused_before_the_primal_is_built(self, tmp_path):
        # 6505 zero-weight isolated vertices: the lifted primal fits, but the
        # map at k = 6506 does not, and the weights alone say so.  Building
        # the primal and Z first peaked at 339 MB.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(6505, [], [0.0] * 6505))
        tracemalloc.start()
        try:
            code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the uniqueness map on a 6506-dimensional kernel")
        assert err.count("\n") == 1
        assert peak < 50e6

    def test_commands_check_the_sizes_of_what_they_build(self, tmp_path):
        # 10 unit weights among 2000 isolated vertices: `theta` solves the
        # 10-vertex positive subgraph, while `uniqueness` would need the map
        # on the 1990 zero-weight vertices' kernel of Z.
        weights = [1.0] * 10 + [0.0] * 1990
        path = _write_graph(tmp_path / "g.json", WeightedGraph(2000, [], weights))
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["alpha"] == 10.0
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the uniqueness map on a 1990-dimensional kernel")
        assert err.count("\n") == 1

    def test_oversized_primal_is_refused_by_the_kernel_map(self, tmp_path):
        # 20000 zero-weight isolated vertices: the lifted 20001 x 20001
        # primal alone would take 3.2 GB.  The kernel map on Z's 20001 zero
        # rows is far larger, so its refusal comes before the primal or Z is
        # built.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(20000, [], [0.0] * 20000))
        tracemalloc.start()
        try:
            code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("solver error: the uniqueness map on a 20001-dimensional kernel")
        assert err.count("\n") == 1
        assert peak < 50e6

    def test_zero_weight_kernel_below_the_bound(self, tmp_path):
        path = _write_graph(tmp_path / "g.json", WeightedGraph(3, [(0, 1)], [0.0] * 3))
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert (code, err) == (2, "")
        assert out == '{"nondegenerate":false,"nullspace_dim":5,"residual":0.0}\n'

    @pytest.mark.parametrize(
        "n, residual",
        [
            (2, 0.17873364994635035),
            (3, 0.11961923923673162),
            (4, 0.09031809783816652),
            (8, 0.04597224401463358),
            (16, 0.023286960946902326),
        ],
    )
    def test_chained_verdicts_pinned(self, n, residual):
        # Smallest over largest singular value of the map on ker Z.
        code, out, _ = run_cli(["uniqueness", "--scenario", f"chained:{n}", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["nondegenerate"], doc["nullspace_dim"]) == (True, 0)
        assert abs(doc["residual"] - residual) <= 1e-10 * residual

    @pytest.mark.parametrize(
        "n, stdout",
        [
            (2, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.17873364994635035}'),
            (3, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.11961923923673162}'),
            (4, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.09031809783816652}'),
            (7, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.052372476505257705}'),
            (8, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.04597224401463358}'),
            (16, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.023286960946902326}'),
            (32, '{"nondegenerate":true,"nullspace_dim":0,"residual":0.01173274616471727}'),
        ],
    )
    def test_chained_json_bytes_pinned(self, n, stdout):
        # The exact output, odd and even N.
        code, out, err = run_cli(["uniqueness", "--scenario", f"chained:{n}", "--json"])
        assert (code, out, err) == (0, stdout + "\n", "")

    def test_chained_below_two_rejected(self):
        for bad in ("chained:0", "chained:1", *_BAD_CHAINED):
            code, out, err = run_cli(["uniqueness", "--scenario", bad])
            assert (code, out) == (1, ""), bad
            assert err.startswith("input error:") and err.count("\n") == 1, bad

    def test_mermin_solver_route(self):
        code, out, _ = run_cli(["uniqueness", "--scenario", "mermin", "--json"])
        assert code == 0
        assert json.loads(out)["nullspace_dim"] == 0

    def test_graph_file_routes(self, tmp_path):
        path = _write_graph(tmp_path / "e2.json", WeightedGraph(2, []))
        code, out, _ = run_cli(["uniqueness", "--graph", path, "--json"])
        assert code == 0
        assert json.loads(out)["nondegenerate"] is True
        path1 = _write_graph(tmp_path / "k1.json", WeightedGraph(1, []))
        code, _, _ = run_cli(["uniqueness", "--graph", path1])
        assert code == 0

    def test_zero_weight_vertices_do_not_stall(self, tmp_path):
        # The positive-weight subgraph is solved and its multipliers lifted;
        # the two zero-weight vertices' primal rows are left free.
        path = _write_graph(tmp_path / "g.json", ZERO_WEIGHT_GRAPH)
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert (code, err) == (2, "")
        assert json.loads(out)["nondegenerate"] is False

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("theta", '{"n":1,"edges":[],"weights":[1e308]}'),
            ("uniqueness", '{"n":1,"edges":[],"weights":[1e308]}'),
            ("uniqueness", '{"n":2,"edges":[],"weights":[1e308,1e308]}'),
            # C5 at 1e154 and two isolated vertices at 1e200 overflow the solvers.
            ("theta", json.dumps({"n": 5, "edges": C5_EDGES, "weights": [1e154] * 5})),
            ("uniqueness", '{"n":2,"edges":[],"weights":[1e200,1e200]}'),
        ],
        ids=["theta-1", "uniqueness-1", "uniqueness-2", "theta-c5", "uniqueness-k2bar"],
    )
    def test_weight_above_max_is_input_error(self, tmp_path, command, doc):
        path = tmp_path / "g.json"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run_cli([command, "--graph", str(path), "--json"])
        assert (code, out) == (1, "")
        assert err == ("input error: malformed graph document: "
                       "weights must be finite, nonnegative and at most 1e+150\n")

    def test_weights_at_max_solve_without_warnings(self, tmp_path):
        # RuntimeWarnings are errors under pytest, so an overflow fails here.
        g = WeightedGraph(5, C5_EDGES, [graphs.MAX_WEIGHT] * 5)
        path = _write_graph(tmp_path / "g.json", g)
        code, out, err = run_cli(["theta", "--graph", path, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["sandwich_ok"] is True
        # C5's optimizer is unique at every weight scale.
        code, out, err = run_cli(["uniqueness", "--graph", path, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["nondegenerate"] is True


class TestSelftest:
    def test_reference_accepts_itself(self):
        code, out, _ = run_cli(["selftest", "--scenario", "chsh"])
        assert code == 0 and "ACCEPT" in out
        code, out, _ = run_cli(["selftest", "--scenario", "mermin", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verified"] is True
        assert doc["junk_dims"] == [1, 1, 1]

    def test_candidate_file(self, tmp_path):
        r = reference_realization("chsh")
        path = _write_realization(tmp_path / "cand.json", r)
        code, out, _ = run_cli(["selftest", "--scenario", "chsh", "--candidate", path])
        assert code == 0 and "ACCEPT" in out

    def test_candidate_kets_are_not_read(self, tmp_path):
        # An older document: a rotated optimizer's state and projectors with
        # the unrotated reference's kets.  The self-test judges the state and
        # projectors alone.
        ref = reference_realization("chsh")
        doc = realization_to_json_dict(rotated_candidate(ref, 1))
        doc["kets"] = _kets_json(ref.kets)
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--scenario", "chsh", "--candidate", str(path)])
        assert (code, err) == (0, "")
        assert "ACCEPT" in out

    def test_non_finite_kets_of_an_older_document_are_ignored(self, tmp_path):
        ref = reference_realization("chsh")
        doc = realization_to_json_dict(ref)
        doc["kets"] = _kets_json(ref.kets)
        doc["kets"][0][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["selftest", "--scenario", "chsh", "--candidate", str(path)])
        assert (code, err) == (0, "")
        assert "ACCEPT" in out

    @pytest.mark.parametrize(
        "field,value",
        [("dims", [2.7, 2]), ("dims", ["2", 2]), ("dims", [True, 2]),
         ("state", "0.7071067811865476"), ("projector", True)],
    )
    def test_non_number_in_candidate_is_input_error(self, tmp_path, field, value):
        # Dims must be JSON integers and complex parts JSON numbers; a float
        # dim, a boolean or a numeric string used to be read as a number.
        doc = realization_to_json_dict(reference_realization("chsh"))
        if field == "dims":
            doc["dims"] = value
        elif field == "state":
            doc["state"][0][0] = value
        else:
            doc["projectors"][0][0][0][0][0][0] = value
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            ["selftest", "--scenario", "chsh", "--candidate", str(path)]
        )
        assert (code, out) == (1, "")
        # The reader takes the dims as they are and the realization's own
        # check refuses them; the number pairs are the reader's to parse.
        if field == "dims":
            assert err == f"input error: expected an integer, got {value[0]!r}\n"
        else:
            assert err.startswith("input error: malformed realization document")

    def test_suboptimal_candidate_rejected(self, tmp_path):
        cand = perturbed_candidate(reference_realization("chsh"), angle=0.05)
        path = _write_realization(tmp_path / "bad.json", cand)
        code, _, err = run_cli(["selftest", "--scenario", "chsh", "--candidate", path])
        assert code == 3
        assert "Gram mismatch" in err

    def test_precondition_failure_names_condition(self, tmp_path):
        r = reference_realization("chained:3")
        cand = tensor_padded_candidate(r, np.array([1, 0, 0, 0], dtype=complex))
        path = _write_realization(tmp_path / "cand.json", cand)
        code, _, err = run_cli(
            ["selftest", "--scenario", "chained:3", "--candidate", path]
        )
        assert code == 3
        assert "precondition" in err and "A4" in err

    @pytest.mark.parametrize("command", ["theta", "certify", "uniqueness", "selftest"])
    def test_tolerance_variable_ignored_by_other_commands(self, monkeypatch, command):
        # No command reads THETA_SELFTEST_TOL, selftest included.
        argv = [command, "--scenario", "chsh"]
        monkeypatch.delenv("THETA_SELFTEST_TOL", raising=False)
        unset = run_cli(argv)
        monkeypatch.setenv("THETA_SELFTEST_TOL", "not-a-number")
        code, out, _ = run_cli(argv)
        assert unset[0] == code == 0
        assert out == unset[1]

    @pytest.mark.parametrize("shape", ["party", "setting", "outcome"])
    def test_malformed_candidate_is_input_error(self, tmp_path, shape):
        doc = realization_to_json_dict(reference_realization("chsh"))
        if shape == "party":
            del doc["projectors"][1]
        elif shape == "setting":
            del doc["projectors"][0][1]
        else:
            del doc["projectors"][0][1][1]
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            ["selftest", "--scenario", "chsh", "--candidate", str(path)]
        )
        assert code == 1 and out == ""
        assert err.startswith("input error:") and "witness label" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["state", "projector"])
    def test_non_finite_candidate_is_input_error(self, tmp_path, entry):
        doc = realization_to_json_dict(reference_realization("chsh"))
        if entry == "state":
            doc["state"] = [[float("nan"), float("nan")] for _ in doc["state"]]
        else:
            doc["projectors"][0][0][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            ["selftest", "--scenario", "chsh", "--candidate", str(path)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and "non-finite" in err

    @pytest.mark.parametrize(
        "fault,reason",
        [("nan-state", "non-finite"), ("scaled-state", "normalized"),
         ("half-projector", "not idempotent"), ("parties", "has 3 parties"),
         ("huge-state", "above 1 in magnitude"), ("huge-projector", "above 1 in magnitude"),
         ("short-state", "state length"), ("short-projector", "wrong shape"),
         ("skew-projector", "not Hermitian")],
    )
    def test_invalid_candidate_is_input_error(self, tmp_path, fault, reason):
        # The candidate is validated before any condition or Gram check,
        # whatever the rank of its projectors.  Entries of 1e200 are refused
        # before a norm or product of them overflows (and warns).
        if fault == "parties":
            doc = realization_to_json_dict(reference_realization("mermin"))
        else:
            ancilla = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
            doc = realization_to_json_dict(
                tensor_padded_candidate(reference_realization("chsh"), ancilla)
            )
        if fault == "nan-state":
            doc["state"][3] = [float("nan"), 0.0]
        elif fault == "scaled-state":
            doc["state"] = [[1.5 * re, 1.5 * im] for re, im in doc["state"]]
        elif fault == "half-projector":
            doc["projectors"][0][0][0] = [
                [[0.5 * re, 0.5 * im] for re, im in row] for row in doc["projectors"][0][0][0]
            ]
        elif fault == "huge-state":
            doc["state"] = [[1e200, 0.0] for _ in doc["state"]]
        elif fault == "huge-projector":
            doc["projectors"][0][0][0] = [
                [[1e200 * re, 1e200 * im] for re, im in row] for row in doc["projectors"][0][0][0]
            ]
        elif fault == "short-state":
            doc["state"] = doc["state"][:-1]
        elif fault == "short-projector":
            doc["projectors"][0][0][0] = doc["projectors"][0][0][0][:-1]
        elif fault == "skew-projector":
            # Entries (0, 1) and (1, 0) both 0.5i: each within magnitude 1,
            # but not each other's conjugate.
            p = doc["projectors"][0][0][0]
            p[0][1] = p[1][0] = [0.0, 0.5]
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(
            ["selftest", "--scenario", "chsh", "--candidate", str(path)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("input error:") and reason in err

    def test_missing_candidate_file(self, tmp_path):
        code, _, _ = run_cli(
            ["selftest", "--scenario", "chsh", "--candidate", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_first_run_binds_the_layer_and_later_patches_hold(self, monkeypatch):
        # cmd_selftest binds run_selftest in cli on its first run and never
        # rebinds it, so a patch made afterwards is what runs.
        argv = ["selftest", "--scenario", "chsh"]
        assert run_cli(argv)[0] == 0
        assert cli.run_selftest is selftest.run_selftest
        calls = []

        def patched(*args, **kwargs):
            calls.append(args)
            return selftest.run_selftest(*args, **kwargs)

        monkeypatch.setattr(cli, "run_selftest", patched)
        assert run_cli(argv)[0] == 0
        assert len(calls) == 1


class TestScenario:
    @pytest.mark.parametrize("name,count", [("chsh", 8), ("mermin", 16), ("as4", 26)])
    def test_emits_witness_and_realization(self, name, count):
        code, out, _ = run_cli(["scenario", "--scenario", name])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["witness"]["terms"]) == count
        # A realization document is its dims, state and projectors: no kets.
        assert sorted(doc["realization"]) == ["dims", "projectors", "state"]
        assert doc["witness_value"] > doc["witness"]["classical_bound"]

    def test_unknown_scenario(self):
        code, _, _ = run_cli(["scenario", "--scenario", "bogus"])
        assert code == 1

    @pytest.mark.parametrize(
        "command, sha256",
        [
            ("scenario --scenario chsh",
             "9f1c6e9bdb7c97f5c9065f29e23e890b2d2994cc52f6de891b4e8ee6d6cb4c90"),
            ("export --scenario chsh --format json",
             "cdf094b76421dfffb4b7f91a225269be110b49e36be6b7915705dafbec1e9f9b"),
            ("scenario --scenario chained:3",
             "8995d1ef60736ba8e0ade7b1d9a4ef4145c9c6f5eb912cc7d590dc58301b2ccb"),
            ("export --scenario chained:3 --format json",
             "6668344367eea0b35ba450d3f9a1c0afdf539a7c8a7cbaa96b36d37c1575f658"),
            ("scenario --scenario mermin",
             "d8fea20b94d59ceecdb8d872f711bd7982cb5200ee30ac0664595b9c373f208c"),
            ("export --scenario mermin --format json",
             "1c03511f96f8af8fd3a63ff590cb907f89f092d54325397c0530e62a9ad6ce6e"),
            ("scenario --scenario as4",
             "c574fb31d94e8cc5d9a97f0db5f59b2012a00a0f2f14cd4f9ad0e1b83bfffa8a"),
            ("export --scenario as4 --format json",
             "fbfb13e5171f6706d6284ddca894052b8b2396ee2f4cdaeaed6101f7011e2c66"),
        ],
    )
    def test_witness_json_bytes_pinned(self, command, sha256):
        # The exact output, by its SHA-256 (each is 1.2-3.2 kB): the witness
        # block, whose scenario counts are read off the events' labels, the
        # realization, the graph and the certificate.
        code, out, err = run_cli(command.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, sha256, "")

    @pytest.mark.parametrize("command", ["scenario", "export"])
    def test_json_flag_is_not_an_option(self, command):
        # Both commands print JSON (or follow --format) without it.
        argv = [command, "--scenario", "chsh", "--json"]
        if command == "export":
            argv += ["--format", "json"]
        code, out, _ = run_cli(argv)
        assert (code, out) == (1, "")


class TestExport:
    def test_json_payload(self):
        code, out, _ = run_cli(["export", "--scenario", "chsh", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["graph"]["n"] == 8
        assert "certificate" in doc
        code, out, _ = run_cli(["export", "--scenario", "as4", "--format", "json"])
        doc = json.loads(out)
        assert doc["graph"]["n"] == 26
        assert "certificate" not in doc

    @pytest.mark.parametrize(
        "name,n", [("chsh", 2), ("chained:2", 2), ("chained:3", 3), ("chained:5", 5),
                   ("chained:8", 8)]
    )
    def test_certificate_fits_exported_graph(self, name, n):
        code, out, _ = run_cli(["export", "--scenario", name, "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        g = graphs.from_json_dict(doc["graph"])
        t, lam, mu = (doc["certificate"][k] for k in ("t", "lambda", "mu"))
        assert set(mu) == {f"{i}-{j}" for i, j in g.edges}
        y = [t, *lam, *(mu[f"{i}-{j}"] for i, j in g.edges)]
        cert = verify_dual_certificate(g, y)
        assert cert.verified
        assert abs(cert.bound - n * (1.0 + cos(pi / (2 * n)))) <= 1e-12 * cert.bound

    def test_dot_payload(self):
        code, out, _ = run_cli(["export", "--scenario", "mermin", "--format", "dot"])
        assert code == 0
        assert out.startswith("graph G {")
        assert out.count(" -- ") == 72

    def test_path_option_is_gone(self, tmp_path):
        # export writes to stdout only; the output is redirected instead.
        path = tmp_path / "x"
        code, out, err = run_cli(
            ["export", "--scenario", "chsh", "--format", "json", "--path", str(path)]
        )
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: --path {path}" in err
        assert not path.exists()

    def test_bad_format_rejected(self):
        code, _, _ = run_cli(["export", "--scenario", "chsh", "--format", "yaml"])
        assert code == 1


class TestParsing:
    def test_no_arguments(self):
        assert run_cli([])[0] == 1

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"])[0] == 1

    def test_help_is_success(self):
        assert run_cli(["--help"])[0] == 0

    @pytest.mark.parametrize("command", ["theta", "uniqueness"])
    @pytest.mark.parametrize(
        "both,message",
        [
            (True, "argument --graph: not allowed with argument --scenario"),
            (False, "one of the arguments --scenario --graph is required"),
        ],
        ids=["both", "neither"],
    )
    def test_scenario_or_graph_exactly_once(self, tmp_path, command, both, message):
        # argparse owns the rule: a usage error, mapped to the input-error code.
        path = _write_graph(tmp_path / "g.json", WeightedGraph(2, [(0, 1)]))
        flags = ["--scenario", "chsh", "--graph", path] if both else []
        code, out, err = run_cli([command, *flags, "--json"])
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("command", ["theta", "uniqueness"])
    def test_help_shows_the_input_group(self, command):
        code, out, _ = run_cli([command, "--help"])
        assert code == 0 and "(--scenario SCENARIO | --graph GRAPH)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--scenario", "chsh", "--solver-tol", "0.5"],
            ["uniqueness", "--scenario", "mermin", "--solver-tol", "1e-6"],
            ["selftest", "--scenario", "chsh", "--tol", "0.03"],
        ],
        ids=["theta", "uniqueness", "selftest"],
    )
    def test_no_subcommand_takes_a_tolerance(self, argv):
        # Each tolerance is its module's constant: at these values the solver
        # returns a wrong theta on chsh and a failed kernel cut that reads
        # NONDEGENERATE on mermin (ROADMAP defects (e) and (h)).
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err


class TestDeterminism:
    COMMANDS = [
        ["theta", "--scenario", "chsh", "--json"],
        ["certify", "--scenario", "chained:3", "--json"],
        ["uniqueness", "--scenario", "chsh", "--json"],
        ["selftest", "--scenario", "chsh", "--json"],
        ["scenario", "--scenario", "as4"],
        ["export", "--scenario", "mermin", "--format", "dot"],
        ["export", "--scenario", "chained:2", "--format", "json"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_byte_identical_reruns(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first[0] == second[0] == 0
        assert first[1].encode() == second[1].encode()

    def test_json_is_canonical(self):
        _, out, _ = run_cli(["scenario", "--scenario", "chsh"])
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_json_is_the_record(self):
        # Each --json document is its record's fields, with what the command
        # adds: certify the certificate, selftest the verdict.
        documents = {
            argv[0]: json.loads(run_cli(argv + ["--json"])[1])
            for argv in (["uniqueness", "--scenario", "chsh"],
                         ["certify", "--scenario", "chsh"],
                         ["selftest", "--scenario", "chsh"])
        }
        assert set(documents["uniqueness"]) == set(theta.UniquenessVerdict._fields)
        assert set(documents["certify"]) == {*theta.CertificateVerdict._fields, "certificate"}
        report = documents["selftest"]
        assert set(report) == {*selftest.SelfTestReport._fields, "verified"}
        assert set(report["conditions"]) == set(selftest.ConditionReport._fields)
        assert all(set(e) == {"a", "x"} for e in report["events"])

    @pytest.mark.parametrize("name", ["chsh", "chained:3", "chained:8", "mermin", "as4"])
    def test_every_object_key_is_a_name(self, name):
        # No document writes a Python repr such as "(0, 2)" as a key: an edge
        # key is "i-j", in the certificate's mu and in A6's linked_triples.
        commands = [["theta", "--json"], ["uniqueness", "--json"], ["selftest", "--json"],
                    ["scenario"], ["export", "--format", "json"]]
        if closed_form_certificate(name) is not None:
            commands.append(["certify", "--json"])
        keys = []
        for command, *options in commands:
            code, out, _ = run_cli([command, "--scenario", name, *options])
            assert code == 0
            # The hook sees every object's key-value pairs, nested ones too.
            json.loads(out, object_pairs_hook=lambda pairs: keys.extend(k for k, _ in pairs))
        assert keys and [k for k in keys if not re.fullmatch(r"[A-Za-z0-9_-]+", k)] == []


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "theta_selftest", "certify", "--scenario", "chsh"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
