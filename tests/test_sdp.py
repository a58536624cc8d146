"""Interior-point solver and spectral-utility tests against closed-form oracles."""

import numpy as np
import pytest

from theta_selftest import sdp
from theta_selftest.sdp import (
    SdpProblem,
    SolverError,
    circulant_eigenvalues,
    min_eigenvalue,
    solve_sdp,
)


def _trace_problem(c: np.ndarray) -> SdpProblem:
    """max <C, X> over the spectraplex (tr X = 1), whose value is lambda_max(C)."""
    d = c.shape[0]
    return SdpProblem(c, np.eye(d)[None], np.array([1.0]))


class TestProblemValidation:
    def test_rejects_non_square_objective(self):
        with pytest.raises(ValueError):
            SdpProblem(np.zeros((2, 3)), np.zeros((1, 2, 2)), np.zeros(1))

    def test_rejects_mismatched_constraint(self):
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), np.eye(3)[None], np.array([1.0]))
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), np.eye(2)[None], np.array([1.0, 0.0]))

    def test_rejects_empty_constraints(self):
        with pytest.raises(ValueError):
            SdpProblem(np.eye(2), np.zeros((0, 2, 2)), np.zeros(0))


class TestSolver:
    def test_scalar_equality(self):
        sol = solve_sdp(SdpProblem(np.eye(1), np.eye(1)[None], np.array([3.0])))
        assert abs(sol.value - 3.0) <= 1e-8
        assert abs(sol.primal[0, 0] - 3.0) <= 1e-8

    def test_spectraplex_value_is_max_eigenvalue(self):
        c = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        sol = solve_sdp(_trace_problem(c))
        lam_max = float(np.linalg.eigvalsh(c).max())
        assert abs(sol.value - lam_max) <= 1e-7
        assert abs(sol.dual_value - lam_max) <= 1e-7
        # The optimizer is the projector onto the top eigenvector.
        v = np.linalg.eigh(c)[1][:, -1]
        assert np.abs(sol.primal - np.outer(v, v)).max() <= 1e-6

    def test_random_spectraplex_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = int(rng.integers(2, 7))
            m = rng.normal(size=(d, d))
            c = (m + m.T) / 2.0
            sol = solve_sdp(_trace_problem(c))
            assert abs(sol.value - float(np.linalg.eigvalsh(c).max())) <= 1e-7

    def test_solution_residuals_and_history(self):
        c = np.diag([1.0, 2.0, 5.0])
        sol = solve_sdp(_trace_problem(c), tol=1e-10)
        assert sol.pinfeas <= 1e-10 and sol.dinfeas <= 1e-10
        assert abs(sol.value - sol.dual_value) <= 1e-8 * (1 + abs(sol.value))
        assert len(sol.history) == sol.iterations + 1
        pobj, dobj, gap, pinf, dinf = sol.history[-1]
        assert (pobj, dobj) == (sol.value, sol.dual_value)
        assert gap >= 0.0
        # The multipliers alone give a dual feasible slack Z = sum y_i A_i - C.
        recon = np.einsum("k,kab->ab", sol.dual_multipliers, _trace_problem(c).constraints)
        assert min_eigenvalue(recon - c) >= -1e-8

    def test_primal_feasibility_of_optimizer(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4))
        c = (m + m.T) / 2.0
        a1 = np.diag([1.0, 1.0, 0.0, 0.0])
        a2 = np.diag([0.0, 0.0, 1.0, 1.0])
        sol = solve_sdp(SdpProblem(c, np.stack([a1, a2]), np.array([0.5, 0.5])))
        assert abs(np.sum(a1 * sol.primal) - 0.5) <= 1e-8
        assert abs(np.sum(a2 * sol.primal) - 0.5) <= 1e-8
        assert min_eigenvalue(sol.primal) >= -1e-9

    def test_iteration_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        c = np.diag([1.0, 2.0, 5.0])
        with pytest.raises(SolverError, match="within 2 iterations") as err:
            solve_sdp(_trace_problem(c))
        assert err.value.gap >= 0.0
        assert isinstance(err.value.pinfeas, float)
        assert isinstance(err.value.dinfeas, float)

    def test_custom_start_accepted(self):
        c = np.diag([1.0, 2.0])
        start = (0.5 * np.eye(2), np.array([5.0]), 3.0 * np.eye(2))
        sol = solve_sdp(_trace_problem(c), start=start)
        assert abs(sol.value - 2.0) <= 1e-8

    def test_deterministic_across_runs(self):
        c = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        a = solve_sdp(_trace_problem(c))
        b = solve_sdp(_trace_problem(c))
        assert a.primal.tobytes() == b.primal.tobytes()
        assert a.dual_multipliers.tobytes() == b.dual_multipliers.tobytes()
        assert a.history == b.history


class TestSpectralUtilities:
    def test_min_eigenvalue_matches_numpy(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        s = (m + m.T) / 2.0
        assert abs(min_eigenvalue(s) - float(np.linalg.eigvalsh(s).min())) <= 1e-12

    def test_circulant_eigenvalues_match_dense(self):
        for row in ([0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                    [2.0, 1.0, 0.5, 1.0, 0.5, 1.0],
                    [1.0]):
            row = np.asarray(row)
            n = row.shape[0]
            dense = np.array([[row[(j - i) % n] for j in range(n)] for i in range(n)])
            got = np.sort(circulant_eigenvalues(row))
            want = np.sort(np.linalg.eigvalsh(dense))
            assert np.abs(got - want).max() <= 1e-10

    def test_circulant_eigenvalue_index_order(self):
        # lambda_j = sum_k c_k cos(2 pi j k / n) in index order.
        row = np.array([0.0, 1.0, 0.0, 1.0])
        lam = circulant_eigenvalues(row)
        want = [2.0 * np.cos(2.0 * np.pi * j / 4.0) for j in range(4)]
        assert np.abs(lam - want).max() <= 1e-12

    def test_circulant_eigenvalues_validation(self):
        with pytest.raises(ValueError):
            circulant_eigenvalues([])
        with pytest.raises(ValueError):
            circulant_eigenvalues([0.0, 1.0, 2.0])  # c_1 != c_{n-1}

    def test_circulant_eigenvalues_no_relative_slack(self):
        # c_1 and c_3 differ by 5e-6: within allclose's default rtol, not symmetric.
        with pytest.raises(ValueError):
            circulant_eigenvalues([2.0, 1.0, 0.0, 1.0 + 5e-6])
