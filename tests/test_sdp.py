"""Interior-point solver and minimum-eigenvalue tests against closed-form oracles."""

import numpy as np
import pytest

from theta_selftest import sdp
from theta_selftest.sdp import SolverError, min_eigenvalue, solve_sdp


def _trace_problem(c: np.ndarray):
    """max <C, X> over the spectraplex (tr X = 1), whose value is lambda_max(C),
    as solve_sdp's (C, A stack, b)."""
    d = c.shape[0]
    return c, np.eye(d)[None], np.array([1.0])


def _solve(problem):
    """solve_sdp from the identity start X = I, y = 0, Z = s I, with s the
    largest of 1, |C| and |b|."""
    c, _, b = problem
    s = max(1.0, float(np.abs(c).max()), float(np.abs(b).max()))
    start = (np.eye(len(c)), np.zeros(len(b)), s * np.eye(len(c)))
    return solve_sdp(*problem, start)


class TestSolver:
    def test_scalar_equality(self):
        sol = _solve((np.eye(1), np.eye(1)[None], np.array([3.0])))
        assert abs(sol.value - 3.0) <= 1e-8
        assert abs(sol.primal[0, 0] - 3.0) <= 1e-8

    def test_spectraplex_value_is_max_eigenvalue(self):
        c = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        sol = _solve(_trace_problem(c))
        lam_max = float(np.linalg.eigvalsh(c).max())
        assert abs(sol.value - lam_max) <= 1e-7
        assert abs(sol.dual_multipliers[0] - lam_max) <= 1e-7  # b.y
        # The optimizer is the projector onto the top eigenvector.
        v = np.linalg.eigh(c)[1][:, -1]
        assert np.abs(sol.primal - np.outer(v, v)).max() <= 1e-6

    def test_random_spectraplex_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            d = int(rng.integers(2, 7))
            m = rng.normal(size=(d, d))
            c = (m + m.T) / 2.0
            sol = _solve(_trace_problem(c))
            assert abs(sol.value - float(np.linalg.eigvalsh(c).max())) <= 1e-7

    def test_solution_residuals_and_history(self, monkeypatch):
        monkeypatch.setattr(sdp, "SOLVER_TOL", 1e-10)
        c = np.diag([1.0, 2.0, 5.0])
        sol = _solve(_trace_problem(c))
        # b = (1,): the primal residual is 1 - tr X and the dual value b.y is y_0.
        assert abs(1.0 - np.trace(sol.primal)) <= 1e-10
        dual_value = sol.dual_multipliers[0]
        assert abs(sol.value - dual_value) <= 1e-10 * (1 + abs(sol.value) + abs(dual_value))
        # The multipliers alone give a dual feasible slack Z = sum y_i A_i - C.
        recon = np.einsum("k,kab->ab", sol.dual_multipliers, _trace_problem(c)[1])
        assert min_eigenvalue(recon - c) >= -1e-8

    def test_primal_feasibility_of_optimizer(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4))
        c = (m + m.T) / 2.0
        a1 = np.diag([1.0, 1.0, 0.0, 0.0])
        a2 = np.diag([0.0, 0.0, 1.0, 1.0])
        sol = _solve((c, np.stack([a1, a2]), np.array([0.5, 0.5])))
        assert abs(np.sum(a1 * sol.primal) - 0.5) <= 1e-8
        assert abs(np.sum(a2 * sol.primal) - 0.5) <= 1e-8
        assert min_eigenvalue(sol.primal) >= -1e-9

    def test_iteration_cap_raises_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        c = np.diag([1.0, 2.0, 5.0])
        with pytest.raises(SolverError, match="within 2 iterations") as err:
            _solve(_trace_problem(c))
        assert err.value.gap >= 0.0
        assert isinstance(err.value.pinfeas, float)
        assert isinstance(err.value.dinfeas, float)

    def test_custom_start_accepted(self):
        c = np.diag([1.0, 2.0])
        start = (0.5 * np.eye(2), np.array([5.0]), 3.0 * np.eye(2))
        sol = solve_sdp(*_trace_problem(c), start=start)
        assert abs(sol.value - 2.0) <= 1e-8

    def test_deterministic_across_runs(self):
        c = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        a = _solve(_trace_problem(c))
        b = _solve(_trace_problem(c))
        assert a.primal.tobytes() == b.primal.tobytes()
        assert a.dual_multipliers.tobytes() == b.dual_multipliers.tobytes()
        assert a.iterations == b.iterations


class TestSpectralUtilities:
    def test_min_eigenvalue_matches_numpy(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        s = (m + m.T) / 2.0
        assert abs(min_eigenvalue(s) - float(np.linalg.eigvalsh(s).min())) <= 1e-12
