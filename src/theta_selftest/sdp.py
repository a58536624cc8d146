"""Dense primal-dual interior-point SDP solver and the minimum eigenvalue.

Problems are the standard pair
    primal:  max <C, X>   s.t.  <A_i, X> = b_i,  X >= 0
    dual:    min b.y      s.t.  Z = sum_i y_i A_i - C >= 0
solved by an HKM-direction predictor-corrector method on dense symmetric
matrices.  `solve_sdp` takes the problem as three arrays: C, the stack of
the A_i and b.  Their one producer, `theta.theta_problem`, fixes the shapes.
The built-in scenarios reach dimension 4N + 1 = 257 (chained:64), small
enough that everything is dense.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

SOLVER_TOL = 1e-9  # bound on the relative gap and both infeasibilities
_MAX_ITER = 200


class SolverError(RuntimeError):
    """Non-convergence diagnostic carrying the residuals of the last iterate judged."""

    def __init__(self, message: str, pinfeas: float, dinfeas: float, gap: float):
        super().__init__(
            f"{message} (primal infeas {pinfeas:.3e}, dual infeas {dinfeas:.3e}, "
            f"gap {gap:.3e})"
        )
        self.pinfeas = pinfeas
        self.dinfeas = dinfeas
        self.gap = gap


def sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


class SdpSolution(NamedTuple):
    primal: np.ndarray
    dual_multipliers: np.ndarray
    value: float
    iterations: int


def _restore_cone(s: np.ndarray) -> np.ndarray:
    """Nudge an iterate that rounding pushed marginally outside the PSD cone.

    Near convergence the boundary is approached to within machine precision
    and an update can leave a slightly negative eigenvalue; a small diagonal
    shift restores strict interiority, and the Newton system absorbs the
    perturbation through the recomputed residuals.  Gross infeasibility
    (relative to the matrix scale) is left untouched so real divergence still
    surfaces as a factorization error.
    """
    lam = float(np.linalg.eigvalsh(s).min())
    scale = max(float(np.abs(s).max()), np.finfo(float).tiny)
    if lam > 1e-14 * scale or lam < -1e-6 * scale:
        return s
    return s + (2.0 * abs(lam) + 1e-13 * scale) * np.eye(s.shape[0])


def _max_step(s: np.ndarray, ds: np.ndarray) -> float:
    """Largest step a in (0, 1] with s + a*ds psd, via Cholesky scaling."""
    l = np.linalg.cholesky(s)
    linv_ds = np.linalg.solve(l, ds)
    w = np.linalg.solve(l, linv_ds.T)
    lam = float(np.linalg.eigvalsh(sym(w)).min())
    if lam >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam)


def solve_sdp(
    c: np.ndarray,
    a_stack: np.ndarray,
    b: np.ndarray,
    start: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> SdpSolution:
    """Solve the primal/dual pair to duality gap and feasibility residuals <= SOLVER_TOL.

    `c` is the d x d objective C, `a_stack` the m x d x d stack of the A_i
    and `b` the m right-hand sides, as float arrays with C and every A_i
    symmetric.  `start` supplies (X0, y0, Z0) with X0, Z0 strictly positive
    definite.  Deterministic for fixed inputs.  Judges every iterate, the
    one after step _MAX_ITER too; a stall, a numerical breakdown or no
    convergence by then raises SolverError with the last judged residuals.
    """
    d = len(c)

    x, y, z = (np.array(v, dtype=float) for v in start)
    x, z = sym(x), sym(z)

    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + float(np.linalg.norm(c))
    merits: list[float] = []

    for it in range(_MAX_ITER + 1):
        rp = b - np.einsum("kab,ab->k", a_stack, x)
        rd = np.einsum("k,kab->ab", y, a_stack) - z - c
        pobj = float(np.sum(c * x))
        dobj = float(b @ y)
        gap = float(np.sum(x * z))
        pinf = float(np.linalg.norm(rp)) / bnorm
        dinf = float(np.linalg.norm(rd)) / cnorm
        gap_rel = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if pinf <= SOLVER_TOL and dinf <= SOLVER_TOL and gap_rel <= SOLVER_TOL:
            return SdpSolution(primal=x, dual_multipliers=y, value=pobj, iterations=it)
        if it == _MAX_ITER:
            raise SolverError(f"no convergence within {_MAX_ITER} iterations",
                              pinf, dinf, gap)
        # Bail out once progress flatlines: without strict complementarity the
        # attainable gap bottoms out near sqrt(machine eps) and iterating
        # further cannot help.
        merits.append(max(gap_rel, pinf, dinf))
        if len(merits) > 25 and merits[-1] > 0.95 * merits[-26]:
            raise SolverError("progress stalled before reaching tolerance",
                              pinf, dinf, gap)

        mu = gap / d

        def newton(nu: float, k: np.ndarray):
            rhs = (
                nu * tr_a_zinv
                - b
                - np.einsum("iab,ba->i", a_stack, zinv_rd_x)
                - np.einsum("iab,ba->i", a_stack, k)
            )
            dy = np.linalg.solve(schur, rhs)
            dz = np.einsum("k,kab->ab", dy, a_stack) + rd
            dx = sym(nu * zinv - x - zinv @ dz @ x - k)
            return dx, dy, dz

        try:
            zinv = sym(np.linalg.solve(z, np.eye(d)))
            # Schur complement M_ij = tr(A_i Z^-1 A_j X), shared by both solves.
            g = np.einsum("ab,jbc,cd->jad", zinv, a_stack, x, optimize=True)
            schur = np.einsum("iab,jba->ij", a_stack, g, optimize=True)
            tr_a_zinv = np.einsum("iab,ba->i", a_stack, zinv)
            zinv_rd_x = zinv @ rd @ x

            dx_aff, dy_aff, dz_aff = newton(0.0, np.zeros((d, d)))
            tau = 0.998 if mu < 1e-6 else 0.98
            ap = tau * _max_step(x, dx_aff)
            ad = tau * _max_step(z, dz_aff)
            gap_aff = float(np.sum((x + ap * dx_aff) * (z + ad * dz_aff)))
            sigma = min(1.0, max(0.0, (gap_aff / gap) ** 3)) if gap > 0 else 0.0

            k = zinv @ dz_aff @ dx_aff
            dx, dy, dz = newton(sigma * mu, k)
            ap = tau * _max_step(x, dx)
            ad = tau * _max_step(z, dz)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"numerical breakdown: {exc}", pinf, dinf, gap) from exc
        x = _restore_cone(sym(x + ap * dx))
        y = y + ad * dy
        z = _restore_cone(sym(z + ad * dz))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric (or Hermitian) matrix."""
    return float(np.linalg.eigvalsh(sym(np.asarray(m))).min())

