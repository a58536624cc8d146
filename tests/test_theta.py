"""Theta SDP assembly, closed-form certificates, and uniqueness tests."""

from math import cos, pi, sqrt

import numpy as np
import pytest
from conftest import random_graph

from theta_selftest import (
    MalformedCertificateError,
    NotPsdError,
    WeightedGraph,
    chained_dual_certificate,
    chsh_dual_certificate,
    chsh_primal_matrix,
    circulant,
    dual_nondegenerate,
    exclusivity_graph,
    lovasz_theta,
    mermin_primal_matrix,
    mobius_theta_closed_form,
    solve_theta_problem,
    verify_dual_certificate,
)
from theta_selftest.scenarios import mermin_witness
from theta_selftest.sdp import solve_sdp
from theta_selftest.theta import (
    _START_LADDER,
    _nondegeneracy_system,
    certificate_from_json_dict,
    certificate_from_multipliers,
    certificate_to_json_dict,
    make_certificate,
    theta_problem,
    theta_start,
)

C5 = circulant(5, (1,))
CHSH_GRAPH = circulant(8, (1, 4))


def _basis_e(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    if i == j:
        m[i, i] = 1.0
    else:
        m[i, j] = m[j, i] = 0.5
    return m


class TestProblemAssembly:
    def test_constraint_count_and_dim(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)], [1.0, 2.0, 1.0, 1.0])
        p = theta_problem(g)
        assert p.objective.shape == (5, 5)
        assert p.constraints.shape == (1 + 4 + 2, 5, 5)
        assert np.array_equal(p.b, [1.0] + [0.0] * (4 + 2))

    def test_objective_holds_weights(self):
        g = WeightedGraph(3, [(0, 1)], [2.0, 0.5, 1.0])
        p = theta_problem(g)
        assert np.array_equal(p.objective, np.diag([0.0, 2.0, 0.5, 1.0]))

    @pytest.mark.parametrize(
        "g",
        [
            WeightedGraph(1, [], [1.5]),
            WeightedGraph(3, []),
            CHSH_GRAPH,
            exclusivity_graph(mermin_witness()),
            random_graph(np.random.default_rng(5)),
        ],
        ids=["single", "edgeless", "chsh", "mermin", "random"],
    )
    def test_constraints_match_basis_oracle(self, g):
        # One dense symmetrized d x d matrix per constraint, stacked in order.
        d = g.n + 1
        mats = [_basis_e(d, 0, 0)]
        mats += [_basis_e(d, i + 1, i + 1) - _basis_e(d, 0, i + 1) for i in range(g.n)]
        mats += [_basis_e(d, i + 1, j + 1) for i, j in g.edges]
        want = np.stack([(m + m.T) / 2.0 for m in mats])
        assert np.array_equal(theta_problem(g).constraints, want)

    def test_start_is_strictly_feasible(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], [2.0, 1.0, 0.5, 1.0])
        p = theta_problem(g)
        for scales in _START_LADDER:
            x, y, z = theta_start(g, *scales)
            assert float(np.linalg.eigvalsh(x).min()) > 0
            assert float(np.linalg.eigvalsh(z).min()) > 0
            assert np.abs(np.einsum("kab,ab->k", p.constraints, x) - p.b).max() <= 1e-12
            # Z matches its structural definition sum_i y_i A_i - C.
            recon = np.einsum("k,kab->ab", y, p.constraints) - p.objective
            assert np.abs(recon - z).max() <= 1e-12


class TestThetaValues:
    def test_closed_form_families(self):
        # Pentagon: sqrt(5); complete graphs: max weight; empty graphs: total weight.
        assert abs(lovasz_theta(C5)[0] - sqrt(5.0)) <= 1e-7
        k3 = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert abs(lovasz_theta(k3)[0] - 1.0) <= 1e-7
        e4 = WeightedGraph(4, [], [1.0, 2.0, 0.5, 1.0])
        assert abs(lovasz_theta(e4)[0] - 4.5) <= 1e-7

    def test_weighted_scaling(self):
        w = 1.7
        val, _ = lovasz_theta(C5.with_weights([w] * 5))
        assert abs(val - w * sqrt(5.0)) <= 1e-6

    def test_perfect_graph_weighted(self):
        # C4 is perfect: theta equals the weighted independence number.
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [2.0, 1.0, 1.0, 1.0])
        assert abs(lovasz_theta(g)[0] - 3.0) <= 1e-7

    def test_mobius_family_matches_closed_form(self):
        for n in (2, 3, 5):
            g = circulant(4 * n, (1, 2 * n))
            assert abs(lovasz_theta(g)[0] - mobius_theta_closed_form(n)) <= 1e-7
        with pytest.raises(ValueError):
            mobius_theta_closed_form(1)


class TestPrimalMatrices:
    def test_chsh_primal_is_feasible_and_optimal(self):
        p = chsh_primal_matrix()
        assert p.shape == (9, 9)
        assert float(np.linalg.eigvalsh(p).min()) >= -1e-12
        assert p[0, 0] == 1.0
        for i in range(8):
            assert abs(p[0, i + 1] - p[i + 1, i + 1]) <= 1e-12
        for i, j in CHSH_GRAPH.edges:
            assert p[i + 1, j + 1] == 0.0
        assert abs(np.trace(p) - 1.0 - (2.0 + sqrt(2.0))) <= 1e-12

    def test_mermin_primal_is_feasible_and_optimal(self):
        g = exclusivity_graph(mermin_witness())
        p = mermin_primal_matrix()
        assert p.shape == (17, 17)
        assert float(np.linalg.eigvalsh(p).min()) >= -1e-9
        for i, j in g.edges:
            assert p[i + 1, j + 1] == 0.0
        assert abs(np.trace(p) - 1.0 - 4.0) <= 1e-12


class TestCertificates:
    def test_chsh_certificate_verifies(self):
        cert = chsh_dual_certificate()
        t = verify_dual_certificate(CHSH_GRAPH, cert)
        assert abs(t - (2.0 + sqrt(2.0))) <= 1e-12

    def test_chained_matches_chsh_at_n2(self):
        assert np.abs(
            chained_dual_certificate(2).matrix - chsh_dual_certificate().matrix
        ).max() <= 1e-12

    def test_chained_bound_values(self):
        for n in (2, 3, 4, 6):
            cert = chained_dual_certificate(n)
            g = circulant(4 * n, (1, 2 * n))
            t = verify_dual_certificate(g, cert)
            assert abs(t - n * (1.0 + cos(pi / (2 * n)))) <= 1e-12
        with pytest.raises(ValueError):
            chained_dual_certificate(1)

    def test_chained_bound_equals_closed_form_to_machine_precision(self):
        for n in range(2, 65):
            assert abs(
                chained_dual_certificate(n).t - mobius_theta_closed_form(n)
            ) <= 1e-12

    def test_certificate_complements_primal(self):
        # Optimal pair: Z X = 0 for the closed-form certificate and optimizer.
        z = chsh_dual_certificate().matrix
        x = chsh_primal_matrix()
        assert np.abs(z @ x).max() <= 1e-12

    def test_structural_mismatch_raises(self):
        cert = chsh_dual_certificate()
        bad = np.array(cert.matrix)
        bad[1, 3] += 1e-3  # non-edge entry must be zero
        tampered = type(cert)(t=cert.t, lambdas=cert.lambdas, mus=cert.mus, matrix=bad)
        with pytest.raises(MalformedCertificateError):
            verify_dual_certificate(CHSH_GRAPH, tampered)

    def test_nan_entry_raises(self):
        cert = chsh_dual_certificate()
        bad = np.array(cert.matrix)
        bad[1, 3] = bad[3, 1] = np.nan
        tampered = type(cert)(t=cert.t, lambdas=cert.lambdas, mus=cert.mus, matrix=bad)
        with pytest.raises(MalformedCertificateError):
            verify_dual_certificate(CHSH_GRAPH, tampered)

    def test_mu_on_non_edge_is_malformed(self):
        cert = chsh_dual_certificate()
        mus = {**cert.mus, (0, 2): 0.0}  # (0, 2) is not an edge of Ci_8(1, 4)
        tampered = type(cert)(t=cert.t, lambdas=cert.lambdas, mus=mus, matrix=cert.matrix)
        with pytest.raises(MalformedCertificateError, match="non-edge"):
            verify_dual_certificate(CHSH_GRAPH, tampered)

    def test_negative_eigenvalue_raises(self):
        cert = make_certificate(C5, 1.0, [2.0] * 5, {})
        with pytest.raises(NotPsdError):
            verify_dual_certificate(C5, cert)

    def test_mu_on_non_edge_rejected(self):
        with pytest.raises(ValueError):
            make_certificate(C5, 3.0, [2.0] * 5, {(0, 2): 1.0})

    def test_multiplier_recovery_roundtrip(self):
        sol = solve_theta_problem(CHSH_GRAPH)
        cert = certificate_from_multipliers(CHSH_GRAPH, sol.dual_multipliers)
        t = verify_dual_certificate(CHSH_GRAPH, cert, tol=1e-6)
        assert abs(t - (2.0 + sqrt(2.0))) <= 1e-6
        with pytest.raises(ValueError):
            certificate_from_multipliers(CHSH_GRAPH, sol.dual_multipliers[:-1])

    def test_recovered_certificates_on_random_weighted_graphs(self):
        from conftest import random_graph

        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_graph(rng, max_n=8)
            sol = solve_theta_problem(g)
            cert = certificate_from_multipliers(g, sol.dual_multipliers)
            t = verify_dual_certificate(g, cert, tol=1e-6)
            assert abs(t - sol.value) <= 1e-6


class TestUniqueness:
    def test_chsh_nondegenerate(self):
        verdict = dual_nondegenerate(CHSH_GRAPH, chsh_dual_certificate().matrix)
        assert verdict.nondegenerate
        assert verdict.nullspace_dim == 0
        assert verdict.residual > 0

    def test_chained_nondegenerate(self):
        for n in (3, 4):
            g = circulant(4 * n, (1, 2 * n))
            z = chained_dual_certificate(n).matrix
            assert dual_nondegenerate(g, z).nondegenerate

    def test_single_vertex_nondegenerate(self):
        g = WeightedGraph(1, [], [1.5])
        z = make_certificate(g, 1.5, [3.0], {}).matrix
        verdict = dual_nondegenerate(g, z)
        assert verdict.nondegenerate and verdict.nullspace_dim == 0

    def test_empty_two_vertex_nondegenerate(self):
        g = WeightedGraph(2, [])
        z = make_certificate(g, 2.0, [2.0, 2.0], {}).matrix
        assert dual_nondegenerate(g, z).nondegenerate

    def test_four_cycle_degenerate(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        z = make_certificate(
            g, 2.0, [2.0] * 4, {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 1.0}
        ).matrix
        verdict = dual_nondegenerate(g, z)
        assert not verdict.nondegenerate
        assert verdict.nullspace_dim >= 1

    def test_identity_slack_forces_trivial_solution(self):
        # M I = 0 pins M = 0 outright, so the homogeneous system is trivial
        # regardless of the sparsity pattern.
        verdict = dual_nondegenerate(CHSH_GRAPH, np.eye(9))
        assert verdict.nondegenerate
        assert verdict.nullspace_dim == 0

    def test_rank_deficient_slack_with_free_pattern_is_degenerate(self):
        # A slack annihilating the whole space leaves every pattern entry free.
        verdict = dual_nondegenerate(CHSH_GRAPH, np.zeros((9, 9)))
        assert not verdict.nondegenerate
        assert verdict.nullspace_dim == 45 - 1 - 8 - 12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dual_nondegenerate(C5, np.eye(4))

    @pytest.mark.parametrize(
        "g",
        [
            circulant(12, (1, 6)),
            exclusivity_graph(mermin_witness()),
            random_graph(np.random.default_rng(7)),
        ],
        ids=["chained:3", "mermin", "random"],
    )
    def test_system_matches_loop_oracle(self, g):
        # The system built row by row, one pair of kron columns per unknown.
        d = g.n + 1
        rng = np.random.default_rng(d)
        z = rng.normal(size=(d, d))
        z = z + z.T
        unknowns = [(p, q) for p in range(d) for q in range(p, d)]
        col_of = {pq: idx for idx, pq in enumerate(unknowns)}
        want = np.zeros((d + len(g.edges) + d * d, len(unknowns)))
        want[0, col_of[(0, 0)]] = 1.0
        for i in range(1, d):
            want[i, col_of[(0, i)]] = 1.0
            want[i, col_of[(i, i)]] = -1.0
        for row, (i, j) in enumerate(g.edges, start=d):
            want[row, col_of[(i + 1, j + 1)]] = 1.0
        head = d + len(g.edges)
        eye = np.eye(d)
        for p, q in unknowns:
            col = np.kron(eye[p], z[q])
            if p != q:
                col = col + np.kron(eye[q], z[p])
            want[head:, col_of[(p, q)]] = col
        assert np.array_equal(_nondegeneracy_system(g, z), want)

    def test_nondegeneracy_implies_multi_start_agreement(self):
        # Re-solving from distinct strictly feasible starts recovers the same
        # primal matrix entrywise whenever the dual certificate is nondegenerate.
        assert dual_nondegenerate(CHSH_GRAPH, chsh_dual_certificate().matrix).nondegenerate
        problem = theta_problem(CHSH_GRAPH)
        primals = [
            solve_sdp(problem, start=theta_start(CHSH_GRAPH, *s)).primal
            for s in _START_LADDER
        ]
        for p in primals[1:]:
            assert np.abs(p - primals[0]).max() <= 1e-6


class TestCertificateSerialization:
    def test_json_roundtrip(self):
        cert = chsh_dual_certificate()
        d = certificate_to_json_dict(cert)
        back = certificate_from_json_dict(CHSH_GRAPH, d)
        assert back.t == cert.t
        assert back.lambdas == cert.lambdas
        assert back.mus == cert.mus
        assert np.array_equal(back.matrix, cert.matrix)

    def test_json_matrix_mismatch_rejected(self):
        d = certificate_to_json_dict(chsh_dual_certificate())
        d["matrix"][0][0] += 0.5
        with pytest.raises(MalformedCertificateError):
            certificate_from_json_dict(CHSH_GRAPH, d)

    def test_json_matrix_held_to_cert_tol(self):
        d = certificate_to_json_dict(chsh_dual_certificate())
        d["matrix"][0][0] += 1e-6  # inside allclose's default rtol, far outside CERT_TOL
        with pytest.raises(MalformedCertificateError, match="disagrees"):
            certificate_from_json_dict(CHSH_GRAPH, d)

    def test_json_matrix_dimension_mismatch_rejected(self):
        d = certificate_to_json_dict(chsh_dual_certificate())
        d["matrix"] = [row[:8] for row in d["matrix"][:8]]
        with pytest.raises(MalformedCertificateError, match="dimension mismatch"):
            certificate_from_json_dict(CHSH_GRAPH, d)

    def test_json_matrix_nan_rejected(self):
        d = certificate_to_json_dict(chsh_dual_certificate())
        d["matrix"][2][3] = float("nan")
        with pytest.raises(MalformedCertificateError):
            certificate_from_json_dict(CHSH_GRAPH, d)

    def test_json_missing_field_rejected(self):
        with pytest.raises(ValueError):
            certificate_from_json_dict(CHSH_GRAPH, {"t": 1.0})
