"""Theta SDP assembly, closed-form certificates, and uniqueness tests."""

import json
from math import cos, pi, sqrt

import numpy as np
import pytest
from conftest import random_graph, weighted_graphs
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ThetaDualCertificate,
    _nondegeneracy_system,
    certificate_matrix,
    certificate_to_json_dict,
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

    def test_zero_weights_leave_theta_unchanged(self):
        # C5 with one zero weight: theta of the remaining path P4, with a
        # zero row and column for the dropped vertex in the primal.
        val, primal = lovasz_theta(C5.with_weights([1.0, 1.0, 0.0, 1.0, 1.0]))
        assert abs(val - 2.0) <= 1e-7
        assert primal.shape == (6, 6)
        assert not primal[3].any() and not primal[:, 3].any()
        val, primal = lovasz_theta(C5.with_weights([0.0] * 5))
        assert val == 0.0
        assert np.array_equal(primal, np.diag([1.0, 0, 0, 0, 0, 0]))

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


def _multipliers(g: WeightedGraph, t: float, lam, mu=None) -> np.ndarray:
    """y in theta_problem's order; mu defaults to zero on every edge."""
    mu = np.zeros(len(g.edges)) if mu is None else mu
    return np.concatenate(([t], np.broadcast_to(lam, g.n), mu))


def _slack_oracle(g: WeightedGraph, y: np.ndarray) -> np.ndarray:
    """sum_i y_i A_i - C straight from theta_problem's dense stack."""
    p = theta_problem(g)
    return np.tensordot(y, p.constraints, axes=1) - p.objective


@st.composite
def _dual_points(draw):
    """A weighted graph, its theta, and a multiplier vector near the optimal
    dual: the solver's lambda and mu, perturbed, with t at the least value
    making Z PSD plus a jitter of either sign."""
    g = draw(weighted_graphs())
    sol = solve_theta_problem(g)
    y = sol.dual_multipliers
    scale = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=len(y), max_size=len(y)))
    y = y + scale * np.asarray(noise)
    # Shift lambda until the vertex block of Z is positive definite, then
    # put t at the Schur-complement threshold.
    block = _slack_oracle(g, y)[1:, 1:]
    y[1 : 1 + g.n] += max(0.0, -float(np.linalg.eigvalsh(block).min())) + 1e-3
    z = _slack_oracle(g, y)
    y[0] += float(z[0, 1:] @ np.linalg.solve(z[1:, 1:], z[0, 1:])) - z[0, 0]
    y[0] += draw(st.floats(-0.05, 0.05))
    return g, y, sol.value


class TestCertificates:
    def test_chsh_certificate_verifies(self):
        cert = chsh_dual_certificate()
        t = verify_dual_certificate(CHSH_GRAPH, cert)
        assert abs(t - (2.0 + sqrt(2.0))) <= 1e-12

    def test_chained_matches_chsh_at_n2(self):
        # The CHSH closed form written out: mu = 2(2 - sqrt 2) on the cycle
        # and 2(3 - 2 sqrt 2) on the antipodal edges, lambda = 2, t = 2 + sqrt 2.
        e = np.asarray(CHSH_GRAPH.edges)
        mu = np.where(e[:, 1] - e[:, 0] == 4, 2.0 * (3.0 - 2.0 * sqrt(2.0)),
                      2.0 * (2.0 - sqrt(2.0)))
        y = _multipliers(CHSH_GRAPH, 2.0 + sqrt(2.0), 2.0, mu)
        cert = chained_dual_certificate(2)
        assert np.abs(cert.y - y).max() <= 1e-14
        assert np.abs(cert.matrix - _slack_oracle(CHSH_GRAPH, y)).max() <= 1e-14
        assert np.array_equal(chsh_dual_certificate().y, cert.y)

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

    @pytest.mark.parametrize(
        "g",
        [
            CHSH_GRAPH,
            exclusivity_graph(mermin_witness()),
            random_graph(np.random.default_rng(5)),
            WeightedGraph(3, []),
        ],
        ids=["chsh", "mermin", "random", "edgeless"],
    )
    def test_matrix_matches_problem_stack(self, g):
        y = np.random.default_rng(g.n).normal(size=1 + g.n + len(g.edges))
        assert np.array_equal(certificate_matrix(g, y), _slack_oracle(g, y))

    def test_structural_mismatch_raises(self):
        # A multiplier vector that does not fit the graph has no slack matrix.
        y = chsh_dual_certificate().y
        with pytest.raises(MalformedCertificateError, match="length"):
            ThetaDualCertificate(CHSH_GRAPH, y[:-1])
        with pytest.raises(MalformedCertificateError, match="length"):
            certificate_matrix(CHSH_GRAPH, y.reshape(1, -1))
        with pytest.raises(MalformedCertificateError, match="length"):
            verify_dual_certificate(C5, chsh_dual_certificate())

    def test_nan_entry_raises(self):
        # Non-finite t, lambda or mu entries.
        for index in (0, 1, -1):
            for value in (np.nan, np.inf, -np.inf):
                y = np.array(chsh_dual_certificate().y)
                y[index] = value
                with pytest.raises(MalformedCertificateError, match="non-finite"):
                    ThetaDualCertificate(CHSH_GRAPH, y)
                with pytest.raises(MalformedCertificateError, match="non-finite"):
                    certificate_matrix(CHSH_GRAPH, y)

    def test_mu_on_non_edge_is_malformed(self):
        # A mu for the non-edge (0, 2) of Ci_8(1, 4) has no slot in y.
        y = np.append(chsh_dual_certificate().y, 0.0)
        with pytest.raises(MalformedCertificateError, match="length"):
            ThetaDualCertificate(CHSH_GRAPH, y)

    def test_mu_on_non_edge_rejected(self):
        # A certificate written for a supergraph does not verify on the graph.
        sup = WeightedGraph(5, C5.edges + ((0, 2),))
        cert = ThetaDualCertificate(sup, _multipliers(sup, 3.0, 2.0))
        with pytest.raises(MalformedCertificateError, match="length"):
            verify_dual_certificate(C5, cert)

    def test_negative_eigenvalue_raises(self):
        cert = ThetaDualCertificate(C5, _multipliers(C5, 1.0, 2.0))
        with pytest.raises(NotPsdError):
            verify_dual_certificate(C5, cert)

    def test_stored_matrix_is_not_read(self):
        # Verification rebuilds Z from y: a stale matrix can neither pass a
        # bad certificate nor fail a good one.
        bad = ThetaDualCertificate(C5, _multipliers(C5, 1.0, 2.0))
        object.__setattr__(bad, "matrix", np.eye(6))
        with pytest.raises(NotPsdError):
            verify_dual_certificate(C5, bad)
        good = chsh_dual_certificate()
        object.__setattr__(good, "matrix", -np.eye(9))
        assert verify_dual_certificate(CHSH_GRAPH, good) == good.t

    def test_multiplier_recovery_roundtrip(self):
        sol = solve_theta_problem(CHSH_GRAPH)
        cert = ThetaDualCertificate(CHSH_GRAPH, sol.dual_multipliers)
        t = verify_dual_certificate(CHSH_GRAPH, cert, tol=1e-6)
        assert abs(t - (2.0 + sqrt(2.0))) <= 1e-6
        with pytest.raises(MalformedCertificateError):
            ThetaDualCertificate(CHSH_GRAPH, sol.dual_multipliers[:-1])

    def test_recovered_certificates_on_random_weighted_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_graph(rng, max_n=8)
            sol = solve_theta_problem(g)
            cert = ThetaDualCertificate(g, sol.dual_multipliers)
            t = verify_dual_certificate(g, cert, tol=1e-6)
            assert abs(t - sol.value) <= 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_dual_points())
    def test_verified_bound_is_at_least_theta(self, point):
        # Any y whose Z is PSD is dual feasible, so no structural check is
        # needed for verify_dual_certificate's t to bound theta.
        g, y, theta = point  # theta is lovasz_theta(g)[0]
        try:
            t = verify_dual_certificate(g, ThetaDualCertificate(g, y))
        except NotPsdError:
            return
        assert t >= theta - 1e-6 * max(1.0, t)


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
        z = certificate_matrix(g, [1.5, 3.0])
        verdict = dual_nondegenerate(g, z)
        assert verdict.nondegenerate and verdict.nullspace_dim == 0

    def test_empty_two_vertex_nondegenerate(self):
        g = WeightedGraph(2, [])
        z = certificate_matrix(g, [2.0, 2.0, 2.0])
        assert dual_nondegenerate(g, z).nondegenerate

    def test_four_cycle_degenerate(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        z = certificate_matrix(g, [2.0] + [2.0] * 4 + [1.0] * 4)
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
        # The document carries y: t, lambda and mu keyed by edge rebuild the
        # certificate, and its matrix is the certificate's.
        cert = chsh_dual_certificate()
        d = json.loads(json.dumps(certificate_to_json_dict(cert)))
        mu = [d["mu"][f"{i}-{j}"] for i, j in CHSH_GRAPH.edges]
        back = ThetaDualCertificate(CHSH_GRAPH, [d["t"], *d["lambda"], *mu])
        assert np.array_equal(back.y, cert.y)
        assert len(d["mu"]) == len(CHSH_GRAPH.edges)
        assert np.array_equal(np.asarray(d["matrix"]), cert.matrix)
