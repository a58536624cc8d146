"""Lovasz theta SDPs for weighted graphs, closed-form dual certificates,
and uniqueness of the primal optimizer via dual nondegeneracy.

The primal over (1+n)-dimensional symmetric X (index 0 = handle):
    max sum_i w_i X_ii   s.t.  X_00 = 1,  X_ii = X_0i,  X_ij = 0 (i ~ j),  X >= 0.
Row r = (p, q, border) of the table _constraints fixes <A_r, X> with
A_r = (a_r b_r^T + b_r a_r^T) / 2, a_r = e_p - [border] e_0 and b_r = e_q.
A dual point is its multiplier vector y = (t, lambda, one mu per edge of
g.edges) in that row order.  Its slack Z = sum_r y_r A_r - C is always
rebuilt from y by certificate_matrix, and Z >= 0 certifies theta <= t.
dual_nondegenerate decides primal uniqueness by one SVD of the constraints
restricted to the kernel of Z (Alizadeh-Haeberly-Overton).  No optimizer is
tabulated here: a built-in scenario's optimizer is the real Gram matrix
Re(V V^H) of its reference realization, V = [psi, Pi_1 psi, ..., Pi_n psi].
"""

from __future__ import annotations

from math import cos, pi, sqrt
from typing import NamedTuple

import numpy as np

from .graphs import ResourceLimitError, WeightedGraph, circulant
from .scenarios import MAX_CHAINED_N
from .sdp import SdpSolution, SolverError, min_eigenvalue, solve_sdp

CERT_TOL = 1e-9  # PSD slack of a dual certificate's slack matrix
NULL_THRESHOLD = 1e-8  # relative eigenvalue and singular value counted as null in uniqueness
# Most doubles theta_problem's constraint stack may hold: chained:N's
# (10N + 1)(4N + 1)^2 at N = MAX_CHAINED_N, 339 MB.
_MAX_STACK = (10 * MAX_CHAINED_N + 1) * (4 * MAX_CHAINED_N + 1) ** 2


class MalformedCertificateError(Exception):
    """Multiplier vector does not fit the graph or has a non-finite entry."""


class NotPsdError(Exception):
    """Certificate matrix has an eigenvalue below the PSD tolerance."""


def check_size(g: WeightedGraph, kernel_dim: int | None = None) -> None:
    """Refuse (ResourceLimitError naming the stage) an array of more than
    _MAX_STACK doubles, from g alone, in the order a command builds them:
    theta's constraint stack on the positive subgraph, the lifted primal and
    slack, and dual_nondegenerate's map on k kernel vectors of Z.  k is Z's
    all-zero row count, one per zero weight (n + 1 if all are), unless
    kernel_dim gives the k that Z's eigh found; then only the map is checked."""
    n, m = g.n, len(g.edges)
    stages = []
    if kernel_dim is None:
        pos = np.asarray(g.weights) > 0
        n_pos = int(pos.sum())
        m_pos = int(pos[np.asarray(g.edges, dtype=int).reshape(-1, 2)].all(axis=1).sum())
        kernel_dim = n - n_pos if n_pos else n + 1
        stages = [(f"theta SDP on {n_pos} vertices and {m_pos} edges",
                   (n_pos + 1 + m_pos) * (n_pos + 1) ** 2),
                  (f"lifted primal on {n} vertices", (n + 1) ** 2)]
    stages.append((f"uniqueness map on a {kernel_dim}-dimensional kernel of Z",
                   (1 + n + m) * (kernel_dim * (kernel_dim + 1) // 2)))
    for stage, size in stages:
        if size > _MAX_STACK:
            raise ResourceLimitError(f"the {stage} needs {size} doubles, more than "
                                     f"chained:{MAX_CHAINED_N}'s stack of {_MAX_STACK}")


def positive_subgraph(
    g: WeightedGraph,
) -> tuple[WeightedGraph | None, np.ndarray, np.ndarray]:
    """The subgraph of g induced by its positive weights (None when there is
    none), the indices in g of its vertices, and the mask of g.edges inside
    it.  Zero-weight vertices change none of alpha, theta and alpha*."""
    keep = np.flatnonzero(np.asarray(g.weights) > 0)
    pos = np.full(g.n, -1)
    pos[keep] = np.arange(keep.size)
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2)
    inner = (pos[edges] >= 0).all(axis=1)  # the subgraph's edges, in order
    if keep.size == 0:
        return None, keep, inner
    sub = WeightedGraph(keep.size, pos[edges[inner]], np.asarray(g.weights)[keep])
    return sub, keep, inner


def _constraints(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constraint table (p, q, border) in row order: (0, 0) for X_00 = 1,
    a border row (i, i) for X_ii = X_0i, then (i, j) for X_ij = 0 per edge."""
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    p = np.concatenate(([0], np.arange(1, g.n + 1), edges[:, 0]))
    q = np.concatenate(([0], np.arange(1, g.n + 1), edges[:, 1]))
    return p, q, (p == q) & (p > 0)


def _fill(out: np.ndarray, lead: np.ndarray, g: WeightedGraph, val: np.ndarray) -> None:
    """Write val_r A_r into out[lead_r] for each row r of _constraints(g),
    entry by entry: val_r on a diagonal, +-val_r / 2 on a symmetric pair."""
    p, q, border = _constraints(g)
    half = val / 2.0
    out[lead, p, q] = out[lead, q, p] = np.where(p == q, val, half)
    lb, qb = lead[border], q[border]
    out[lb, 0, qb] = out[lb, qb, 0] = -half[border]


def theta_problem(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the theta SDP as solve_sdp's (C, A stack, b) in the row order
    of _constraints.  Its caller checks the stack's size first (check_size)."""
    d = g.n + 1
    v = np.arange(1, d)
    m = d + len(g.edges)
    c = np.zeros((d, d))
    c[v, v] = g.weights
    a = np.zeros((m, d, d))
    _fill(a, np.arange(m), g, np.ones(m))
    b = np.zeros(m)
    b[0] = 1.0
    return c, a, b


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


def solve_theta_problem(g: WeightedGraph) -> SdpSolution:
    """Solve the theta SDP of g and return the solution on g.

    Zero-weight vertices leave theta unchanged, so only positive_subgraph(g)
    is solved, from each start of _START_LADDER in turn until one converges
    (deterministic; the last SolverError propagates when none does).  The
    rest get zero primal rows and columns, lambda = 0 and mu = 0 on their
    edges, so certificate_matrix(g, y) is the subgraph's slack bordered by
    zero rows.  No positive weight gives theta = 0 at E_00.  Its caller
    checks the sizes of the stack and the primal first (check_size).
    """
    d = g.n + 1
    sub, keep, inner = positive_subgraph(g)
    primal = np.zeros((d, d))
    primal[0, 0] = 1.0
    y = np.zeros(d + len(g.edges))
    if sub is None:
        return SdpSolution(primal, y, 0.0, 0)
    c, a, b = theta_problem(sub)
    err: SolverError | None = None
    for scales in _START_LADDER:
        try:
            sol = solve_sdp(c, a, b, start=theta_start(sub, *scales))
            break
        except SolverError as exc:
            err = exc
    else:
        raise err
    rows = np.concatenate(([0], keep + 1))
    primal[np.ix_(rows, rows)] = sol.primal
    y[rows] = sol.dual_multipliers[: keep.size + 1]  # t and lambda
    y[d:][inner] = sol.dual_multipliers[keep.size + 1 :]  # mu
    return sol._replace(primal=primal, dual_multipliers=y)


def certificate_matrix(g: WeightedGraph, y) -> np.ndarray:
    """The slack Z = sum_r y_r A_r - C of theta_problem(g) at multipliers y;
    no two rows of the table write one entry of Z."""
    y = np.asarray(y, dtype=float)
    if y.shape != (1 + g.n + len(g.edges),):
        raise MalformedCertificateError("multiplier vector length mismatch")
    if not np.isfinite(y).all():
        raise MalformedCertificateError("non-finite multiplier")
    d = g.n + 1
    z = np.zeros((1, d, d))
    _fill(z, np.zeros(y.size, dtype=int), g, y)  # every row into the one slice
    v = np.arange(1, d)
    z[0, v, v] -= np.asarray(g.weights)
    return z[0]


def chained_dual_certificate(N: int) -> np.ndarray:
    """Dual optimal multipliers y for circulant(4N, [1, 2N]), t = N(1 + cos(pi/2N))."""
    if N < 2:
        raise ValueError("chained certificates require N >= 2")
    k = cos(pi / (2 * N))
    f = (1.0 - k) / (1.0 + k)
    l = 1.0 / (1.0 + k)
    n = 4 * N
    e = np.asarray(circulant(n, [1, 2 * N]).edges)
    mus = np.where(e[:, 1] - e[:, 0] == 2 * N, 2.0 * f, 2.0 * l)  # antipodal, cycle
    return np.concatenate(([N / l], np.full(n, 2.0), mus))


def verify_dual_certificate(g: WeightedGraph, y) -> float:
    """Return the bound t = y[0] that the multipliers y certify for g.

    Any y of the right length with Z = certificate_matrix(g, y) >= 0 is dual
    feasible for theta_problem(g), so the only check is that Z's minimum
    eigenvalue is at least -CERT_TOL.
    """
    lam_min = min_eigenvalue(certificate_matrix(g, y))
    if not lam_min >= -CERT_TOL:
        raise NotPsdError(f"minimum eigenvalue {lam_min:.3e} below -{CERT_TOL:.1e}")
    return float(y[0])


class UniquenessVerdict(NamedTuple):
    nondegenerate: bool
    nullspace_dim: int
    residual: float


def dual_nondegenerate(g: WeightedGraph, z: np.ndarray) -> UniquenessVerdict:
    """Decide dual nondegeneracy of an optimal slack Z on its kernel.

    Every primal optimizer differs from another by a symmetric M with
    M Z = 0, so M = Q S Q^T for Q spanning ker Z: the eigenvectors of Z with
    |lambda| <= NULL_THRESHOLD * max(1, max |lambda|), k of them.  S runs
    over an orthonormal basis of symmetric k x k matrices, and the rows are
    theta_problem's 1 + n + |E| constraints at Q S Q^T, row r the form
    a_r^T M b_r (Alizadeh, Haeberly and Overton, Math. Prog. 77, 1997).  The
    singular values of that map, padded with zeros up to its k(k + 1)/2
    unknowns, are counted as null at most NULL_THRESHOLD times the largest.
    Nondegenerate (hence the primal optimizer is unique) iff none is.  A map
    too large is refused unbuilt (check_size at k); its caller runs
    check_size(g) before it builds Z, as the uniqueness command does.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (g.n + 1, g.n + 1):
        raise ValueError("slack matrix dimension mismatch")
    lam, vecs = np.linalg.eigh(z)
    q = vecs[:, np.abs(lam) <= NULL_THRESHOLD * max(1.0, float(np.abs(lam).max()))]
    k = q.shape[1]
    if k == 0:
        return UniquenessVerdict(nondegenerate=True, nullspace_dim=0, residual=1.0)
    check_size(g, kernel_dim=k)
    i, j, border = _constraints(g)
    a, b = q[i], q[j]  # row r is a_r^T S b_r, a_r and b_r in Q's coordinates
    a[border] -= q[0]
    iu, ju = np.triu_indices(k)  # S_pp and (S_pq + S_qp) / sqrt 2
    rows = (a[:, iu] * b[:, ju] + a[:, ju] * b[:, iu]) * np.where(iu == ju, 0.5, sqrt(0.5))
    sv = np.linalg.svd(rows, compute_uv=False)
    sv = np.pad(sv, (0, iu.size - sv.size))
    smax = float(sv[0])  # positive: S = I gives a nonzero row for k >= 1
    dim = int(np.sum(sv <= NULL_THRESHOLD * smax))
    return UniquenessVerdict(
        nondegenerate=(dim == 0), nullspace_dim=dim, residual=float(sv.min() / smax)
    )


def certificate_to_json_dict(g: WeightedGraph, y) -> dict:
    z = certificate_matrix(g, y)
    y = np.asarray(y, dtype=float).tolist()
    return {
        "t": y[0],
        "lambda": y[1 : 1 + g.n],
        "mu": {f"{i}-{j}": v for (i, j), v in zip(g.edges, y[1 + g.n :])},
        "matrix": z.tolist(),
    }
