"""Acceptance gate: one test per release criterion, strictest tolerances."""

import json
from math import cos, pi, sqrt

import numpy as np
import pytest
from conftest import (
    MERMIN_SEVEN_DIM,
    brute_force_independence,
    padded_candidate,
    perturbed_candidate,
    random_graph,
    reference_gram,
    rotated_candidate,
    run_cli,
    tensor_padded_candidate,
)

from theta_selftest.graphs import circulant, fractional_packing, independence_number
from theta_selftest.scenarios import (
    builtin_witness,
    chained_dual_certificate,
    evaluate_witness,
    exclusivity_graph,
    reference_realization,
)
from theta_selftest.sdp import min_eigenvalue
from theta_selftest.selftest import SelfTestError, run_selftest
from theta_selftest.theta import (
    certificate_matrix,
    dual_nondegenerate,
    solve_theta_problem,
    verify_dual_certificate,
)

SCENARIOS = ["chsh", "chained:2", "chained:3", "chained:4", "mermin", "as4"]
CLOSED_FORM = {
    "chsh": 2.0 + sqrt(2.0),
    "chained:2": 2.0 * (1.0 + cos(pi / 4.0)),
    "chained:3": 3.0 * (1.0 + cos(pi / 6.0)),
    "chained:4": 4.0 * (1.0 + cos(pi / 8.0)),
    "mermin": 4.0,
    "as4": 7.0 + 5.0 * sqrt(6.0) / 3.0,
}


def test_criterion_1_chsh_theta_value_and_primal():
    sol = solve_theta_problem(circulant(8, (1, 4)))
    value, primal = sol.value, sol.primal
    assert abs(value - (2.0 + sqrt(2.0))) <= 1e-6
    assert np.abs(primal - reference_gram("chsh")).max() <= 1e-5


def test_criterion_2_chsh_dual_certificate_and_uniqueness():
    g = circulant(8, (1, 4))
    y = chained_dual_certificate(2)
    cert = verify_dual_certificate(g, y)
    assert cert.verified
    assert abs(cert.bound - (2.0 + sqrt(2.0))) <= 1e-12
    z = certificate_matrix(g, y)
    eig = min_eigenvalue(z)
    assert -1e-9 <= eig <= 1e-9
    verdict = dual_nondegenerate(g, z)
    assert verdict.nondegenerate and verdict.nullspace_dim == 0


def test_criterion_3_chained_family_bounds_and_certificates():
    for n in range(2, 9):
        sol = solve_theta_problem(circulant(4 * n, (1, 2 * n)))
        assert abs(sol.value - n * (1.0 + cos(pi / (2 * n)))) <= 1e-6
    for n in range(2, 17):
        g = circulant(4 * n, (1, 2 * n))
        y = chained_dual_certificate(n)
        z = certificate_matrix(g, y)
        assert min_eigenvalue(z) >= -1e-9
        cert = verify_dual_certificate(g, y)
        assert cert.verified
        assert abs(cert.bound - n * (1.0 + cos(pi / (2 * n)))) <= 1e-12
        assert abs(y[0] - n * (1.0 + cos(pi / (2 * n)))) <= 1e-12
        # Z's vertex block is a symmetric circulant: its spectrum is the
        # real part of the DFT of its first row, in frequency order.
        eigs = np.fft.fft(z[1, 1:]).real
        assert abs(eigs[2 * n]) <= 1e-12
        assert abs(eigs[2 * n - 1]) <= 1e-12


def test_criterion_4_mermin_graph_invariants_and_configuration():
    wit = builtin_witness("mermin")
    g = exclusivity_graph(wit)
    alpha = independence_number(g)
    assert alpha == 3.0
    value = solve_theta_problem(g).value
    assert abs(value - 4.0) <= 1e-6
    assert abs(fractional_packing(g)[1] - 4.0) <= 1e-9
    p = reference_gram("mermin")
    rank = int(np.sum(np.linalg.eigvalsh(p) >= 1e-8))
    assert rank == 7
    witness_value, _ = evaluate_witness(wit, reference_realization("mermin"))
    assert abs(witness_value - 4.0) <= 1e-10
    v = MERMIN_SEVEN_DIM
    assert v.shape == (17, 7)
    assert np.abs(v @ v.T - p).max() <= 5e-3


def test_criterion_5_as4_graph_invariants_and_realization():
    wit = builtin_witness("as4")
    g = exclusivity_graph(wit)
    alpha = independence_number(g)
    assert alpha == 10.0
    value = solve_theta_problem(g).value
    assert abs(value - CLOSED_FORM["as4"]) <= 1e-5
    assert abs(fractional_packing(g)[1] - 14.0) <= 1e-9
    witness_value, _ = evaluate_witness(wit, reference_realization("as4"))
    assert abs(witness_value - CLOSED_FORM["as4"]) <= 1e-4


def test_criterion_6_selftest_acceptance_and_rejection():
    for name in SCENARIOS:
        wit = builtin_witness(name)
        ref = reference_realization(name)
        for seed in range(10):
            report = run_selftest(wit, ref, rotated_candidate(ref, seed))
            assert report.state_residual <= 1e-7, (name, seed)
            assert report.vector_residuals.max() <= 1e-7, (name, seed)
        report = run_selftest(wit, ref, padded_candidate(ref, extra=2, seed=11))
        assert report.state_residual <= 1e-7, name
        assert report.vector_residuals.max() <= 1e-7, name
        bad = perturbed_candidate(ref, angle=0.2)
        deficit = CLOSED_FORM[name] - evaluate_witness(wit, bad)[0]
        assert deficit >= 1e-3, name
        with pytest.raises(SelfTestError):
            run_selftest(wit, ref, bad)

    wit = builtin_witness("chsh")
    ref = reference_realization("chsh")
    cand = tensor_padded_candidate(ref, np.array([0.8, 0, 0, 0.6], dtype=complex))
    report = run_selftest(wit, ref, cand)
    assert report.junk_dims == (2, 2)
    assert report.state_residual <= 1e-7
    assert report.vector_residuals.max() <= 1e-7
    schmidt = np.linalg.svd(report.junk.reshape(2, 2), compute_uv=False)
    assert np.abs(np.sort(schmidt) - [0.6, 0.8]).max() <= 1e-7

    wit = builtin_witness("mermin")
    ref = reference_realization("mermin")
    ancilla = np.zeros(8, dtype=complex)
    ancilla[0], ancilla[7] = 0.8, 0.6
    report = run_selftest(wit, ref, tensor_padded_candidate(ref, ancilla))
    assert report.junk_dims == (2, 2, 2)
    assert report.state_residual <= 1e-7
    assert report.vector_residuals.max() <= 1e-7
    j = report.junk.reshape(2, 2, 2)
    for axis in range(3):
        others = tuple(a for a in range(3) if a != axis)
        rho = np.tensordot(j, j.conj(), axes=(others, others))
        assert np.abs(np.linalg.eigvalsh(rho) - [0.36, 0.64]).max() <= 1e-7


def test_criterion_7_oracle_equivalence_and_sandwich():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        g = random_graph(rng, max_n=12)
        value = independence_number(g)
        assert abs(value - brute_force_independence(g)) <= 1e-9
        theta = solve_theta_problem(g).value
        alpha_star = fractional_packing(g)[1]
        assert value <= theta + 1e-6
        assert theta <= alpha_star + 1e-6
    for name in SCENARIOS:
        g = exclusivity_graph(builtin_witness(name))
        alpha = independence_number(g)
        theta = solve_theta_problem(g).value
        assert alpha <= theta + 1e-6
        assert theta <= fractional_packing(g)[1] + 1e-6


def test_criterion_8_cli_determinism(tmp_path):
    from theta_selftest.graphs import WeightedGraph, canonical_json, to_json_dict

    path = tmp_path / "g.json"
    g = WeightedGraph(5, [(0, 1), (2, 3)])
    path.write_text(canonical_json(to_json_dict(g)), "utf-8")
    commands = [
        ["theta", "--scenario", "chsh", "--json"],
        ["theta", "--graph", str(path), "--json"],
        ["certify", "--scenario", "chained:3", "--json"],
        ["uniqueness", "--scenario", "chsh", "--json"],
        ["selftest", "--scenario", "chsh", "--json"],
        ["scenario", "--scenario", "mermin"],
        ["export", "--scenario", "as4", "--format", "json"],
        ["export", "--scenario", "chsh", "--format", "dot"],
    ]
    for argv in commands:
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0, argv
        assert out1.encode("utf-8") == out2.encode("utf-8"), argv
        if "--json" in argv or argv[0] == "scenario" or "json" in argv:
            doc = json.loads(out1)
            assert out1 == json.dumps(doc, sort_keys=True,
                                      separators=(",", ":")) + "\n"
