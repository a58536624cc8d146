"""Lovasz theta SDPs for weighted graphs, closed-form dual certificates,
and uniqueness of the primal optimizer via dual nondegeneracy.

The primal over (1+n)-dimensional symmetric X (index 0 = handle):
    max sum_i w_i X_ii   s.t.  X_00 = 1,  X_ii = X_0i,  X_ij = 0 (i ~ j),  X >= 0.
A dual point is its multiplier vector y = (t, lambda, one mu per edge of
g.edges) in theta_problem's constraint order.  Its slack Z = t E_00 + sum_i
lambda_i (E_ii - E_0i) + sum_{i~j} mu_ij E_ij - sum_i w_i E_ii is always
rebuilt from y by certificate_matrix, and Z >= 0 certifies theta <= t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, sqrt

import numpy as np

from .graphs import WeightedGraph, circulant, complement
from .scenarios import exclusivity_graph, mermin_witness
from .sdp import (
    SOLVER_TOL,
    SdpProblem,
    SdpSolution,
    SolverError,
    min_eigenvalue,
    solve_sdp,
)

CERT_TOL = 1e-9  # PSD slack of a dual certificate's slack matrix
NULL_THRESHOLD = 1e-8  # relative singular value counted as null in uniqueness


class CertificateError(Exception):
    """Base class for dual-certificate verification failures."""


class MalformedCertificateError(CertificateError):
    """Multiplier vector does not fit the graph or has a non-finite entry."""


class NotPsdError(CertificateError):
    """Certificate matrix has an eigenvalue below the PSD tolerance."""


def theta_problem(g: WeightedGraph) -> SdpProblem:
    """Assemble the theta SDP; constraint order: normalization, one
    diagonal-border row per vertex, one zero per edge (sorted)."""
    d = g.n + 1
    v = np.arange(1, d)
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    rows = d + np.arange(len(edges))
    c = np.zeros((d, d))
    c[v, v] = g.weights
    a = np.zeros((d + len(edges), d, d))
    a[0, 0, 0] = 1.0  # X_00 = 1
    a[v, v, v] = 1.0  # X_ii - X_0i = 0
    a[v, 0, v] = a[v, v, 0] = -0.5
    a[rows, edges[:, 0], edges[:, 1]] = 0.5  # X_ij = 0
    a[rows, edges[:, 1], edges[:, 0]] = 0.5
    b = np.zeros(len(a))
    b[0] = 1.0
    return SdpProblem(c, a, b)


def theta_start(
    g: WeightedGraph, primal_scale: float, dual_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A strictly feasible primal/dual starting point for the theta SDP.

    Primal: X_00 = 1, border and diagonal s = primal_scale/(n+1) < 1/n, zeros
    elsewhere.  Dual: t = dual_scale*(sum max(w_i,1) + 1), lambda_i =
    2*dual_scale*max(w_i,1), mu = 0; positive definite by a Schur-complement
    argument since lambda_i >= 2 w_i and t exceeds sum lambda_i / 2.  This
    needs 0 < primal_scale <= 1 <= dual_scale, which every start of
    _START_LADDER meets.
    """
    n = g.n
    s = primal_scale / (n + 1)
    x = s * np.eye(n + 1)
    x[0, 0] = 1.0
    x[0, 1:] = x[1:, 0] = s
    wcap = np.maximum(np.asarray(g.weights), 1.0)
    t = dual_scale * (float(wcap.sum()) + 1.0)
    lam = 2.0 * dual_scale * wcap
    y = np.concatenate(([t], lam, np.zeros(len(g.edges))))
    return x, y, certificate_matrix(g, y)


# Interior starting points (primal_scale, dual_scale) tried in order.
# Trajectories from a single start can stall short of tolerance on instances
# without strict complementarity; a differently centered start then converges.
_START_LADDER: tuple[tuple[float, float], ...] = (
    (0.5, 1.0), (0.9, 1.5), (0.1, 3.0), (0.25, 2.0), (0.75, 1.25)
)


def solve_theta_problem(g: WeightedGraph, tol: float = SOLVER_TOL) -> SdpSolution:
    """Solve the theta SDP from each start of _START_LADDER in turn until one
    converges, which keeps the result deterministic; the last start's
    SolverError propagates when none does."""
    problem = theta_problem(g)
    err: SolverError | None = None
    for scales in _START_LADDER:
        try:
            return solve_sdp(problem, tol=tol, start=theta_start(g, *scales))
        except SolverError as exc:
            err = exc
    raise err


def lovasz_theta(g: WeightedGraph, tol: float = SOLVER_TOL) -> tuple[float, np.ndarray]:
    """Theta number of (g, w) and the optimal (1+n)-dimensional primal matrix.

    Zero-weight vertices leave theta unchanged, so only the subgraph induced
    by the positive weights is solved (g itself when all are positive) and its
    primal gets zero rows and columns for the rest; no positive weight gives
    theta = 0 at X = E_00."""
    keep = np.flatnonzero(np.asarray(g.weights) > 0)
    primal = np.zeros((g.n + 1, g.n + 1))
    primal[0, 0] = 1.0
    if keep.size == 0:
        return 0.0, primal
    if keep.size < g.n:
        pos = {int(v): k for k, v in enumerate(keep)}
        edges = [(pos[i], pos[j]) for i, j in g.edges if i in pos and j in pos]
        g = WeightedGraph(keep.size, edges, [g.weights[v] for v in keep])
    sol = solve_theta_problem(g, tol=tol)
    rows = np.concatenate(([0], keep + 1))
    primal[np.ix_(rows, rows)] = sol.primal
    return sol.value, primal


def certificate_matrix(g: WeightedGraph, y) -> np.ndarray:
    """The slack Z = sum_i y_i A_i - C of theta_problem(g) at multipliers y,
    filled by index as theta_problem fills its stack."""
    y = np.asarray(y, dtype=float)
    if y.shape != (1 + g.n + len(g.edges),):
        raise MalformedCertificateError("multiplier vector length mismatch")
    if not np.isfinite(y).all():
        raise MalformedCertificateError("non-finite multiplier")
    d = g.n + 1
    v = np.arange(1, d)
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    z = np.zeros((d, d))
    z[0, 0] = y[0]
    z[0, v] = z[v, 0] = -y[v] / 2.0
    z[v, v] = y[v] - np.asarray(g.weights)
    z[edges[:, 0], edges[:, 1]] = z[edges[:, 1], edges[:, 0]] = y[d:] / 2.0
    return z


@dataclass(frozen=True, eq=False)
class ThetaDualCertificate:
    """Dual point of theta_problem(graph): multipliers y in its constraint
    order, and the slack matrix certificate_matrix(graph, y)."""

    graph: WeightedGraph
    y: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "matrix", certificate_matrix(self.graph, self.y))

    @property
    def t(self) -> float:
        return float(self.y[0])


def chsh_dual_certificate() -> ThetaDualCertificate:
    """The 9x9 dual optimal certificate for circulant(8, [1, 4]), t = 2 + sqrt(2):
    the chained certificate at N = 2."""
    return chained_dual_certificate(2)


def chained_dual_certificate(N: int) -> ThetaDualCertificate:
    """Dual optimal certificate for circulant(4N, [1, 2N]), t = N(1 + cos(pi/2N))."""
    if N < 2:
        raise ValueError("chained certificates require N >= 2")
    k = cos(pi / (2 * N))
    f = (1.0 - k) / (1.0 + k)
    l = 1.0 / (1.0 + k)
    n = 4 * N
    g = circulant(n, [1, 2 * N])
    e = np.asarray(g.edges)
    mus = np.where(e[:, 1] - e[:, 0] == 2 * N, 2.0 * f, 2.0 * l)  # antipodal, cycle
    return ThetaDualCertificate(g, np.concatenate(([N / l], np.full(n, 2.0), mus)))


def mobius_theta_closed_form(N: int) -> float:
    """N (1 + cos(pi / 2N)), the theta number of circulant(4N, [1, 2N])."""
    if N < 2:
        raise ValueError("closed form requires N >= 2")
    return N * (1.0 + cos(pi / (2 * N)))


def verify_dual_certificate(
    g: WeightedGraph, cert: ThetaDualCertificate, tol: float = CERT_TOL
) -> float:
    """Return the bound t that cert certifies for g.

    Z is rebuilt from (g, cert.y); cert.matrix is never read.  Any y of the
    right length with Z >= 0 is dual feasible for theta_problem(g), so the
    only check is that Z's minimum eigenvalue is at least -tol.
    """
    lam_min = min_eigenvalue(certificate_matrix(g, cert.y))
    if not lam_min >= -tol:
        raise NotPsdError(f"minimum eigenvalue {lam_min:.3e} below -{tol:.1e}")
    return cert.t


@dataclass(frozen=True)
class UniquenessVerdict:
    nondegenerate: bool
    nullspace_dim: int
    residual: float


def _nondegeneracy_system(g: WeightedGraph, z: np.ndarray) -> np.ndarray:
    """The homogeneous system of dual_nondegenerate, one column per upper-triangle
    entry (p, q) of M in row-major order."""
    d = g.n + 1
    col = np.empty((d, d), dtype=int)
    iu, ju = np.triu_indices(d)
    col[iu, ju] = col[ju, iu] = np.arange(iu.size)
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    head = d + len(edges)
    s = np.zeros((head + d * d, iu.size))
    v = np.arange(1, d)
    s[0, col[0, 0]] = 1.0  # M_00 = 0
    s[v, col[0, v]] = 1.0  # M_0i - M_ii = 0
    s[v, col[v, v]] = -1.0
    s[d + np.arange(len(edges)), col[edges[:, 0], edges[:, 1]]] = 1.0  # M_ij = 0
    # M Z = 0, flattened row-major: (M Z)_ab = sum_c M_ac Z_cb, so row
    # head + a*d + b takes Z_cb in column (a, c).  No (row, column) repeats.
    a, b, c = np.ogrid[:d, :d, :d]
    s[head + a * d + b, col[a, c]] = z[c, b]
    return s


def dual_nondegenerate(
    g: WeightedGraph, z: np.ndarray, threshold: float = NULL_THRESHOLD
) -> UniquenessVerdict:
    """Decide dual nondegeneracy of an optimal slack Z.

    Builds the homogeneous system over symmetric M:
        M_00 = 0,  M_0i = M_ii,  M_ij = 0 (i ~ j),  M Z = 0,
    parameterized by the upper triangle of M, and counts its null space by
    singular-value thresholding (relative threshold).  Nondegenerate (hence
    the primal optimizer is unique) iff the null space is trivial.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (g.n + 1, g.n + 1):
        raise ValueError("slack matrix dimension mismatch")
    s = _nondegeneracy_system(g, z)
    sv = np.linalg.svd(s, compute_uv=False)
    smax = float(sv.max()) if sv.size else 0.0
    if smax == 0.0:
        dim = s.shape[1]
        residual = 0.0
    else:
        dim = int(np.sum(sv <= threshold * smax))
        residual = float(sv.min() / smax)
    return UniquenessVerdict(
        nondegenerate=(dim == 0), nullspace_dim=dim, residual=residual
    )


def chsh_primal_matrix() -> np.ndarray:
    """The unique 9x9 theta optimizer for circulant(8, [1, 4])."""
    chi = (2.0 + sqrt(2.0)) / 8.0
    xi = (1.0 + sqrt(2.0)) / 8.0
    p = np.zeros((9, 9))
    p[0, 0] = 1.0
    p[0, 1:] = p[1:, 0] = chi
    by_offset = {0: chi, 1: 0.0, 2: chi / 2.0, 3: xi, 4: 0.0}
    for i in range(8):
        for j in range(8):
            off = min((i - j) % 8, (j - i) % 8)
            p[i + 1, j + 1] = by_offset[off]
    return p


def mermin_primal_matrix() -> np.ndarray:
    """The unique 17x17 theta optimizer for the 16-event three-party graph."""
    g = exclusivity_graph(mermin_witness())
    a, b = 0.25, 0.125
    p = np.zeros((17, 17))
    p[0, 0] = 1.0
    p[0, 1:] = p[1:, 0] = a
    p[1:, 1:] = a * np.eye(16) + b * complement(g).adjacency_matrix()
    return p


def certificate_to_json_dict(cert: ThetaDualCertificate) -> dict:
    g, y = cert.graph, cert.y.tolist()
    return {
        "t": cert.t,
        "lambda": y[1 : 1 + g.n],
        "mu": {f"{i}-{j}": v for (i, j), v in zip(g.edges, y[1 + g.n :])},
        "matrix": cert.matrix.tolist(),
    }
