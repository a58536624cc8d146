"""Shared helpers: brute-force oracles, the circulant theta LP, the
reference optimizers, candidate builders, CLI runner."""

from __future__ import annotations

import contextlib
import io
import itertools

import numpy as np
from hypothesis import strategies as st

from theta_selftest.cli import main as cli_main
from theta_selftest.graphs import MAX_WEIGHT, WeightedGraph
from theta_selftest.scenarios import (
    Realization,
    builtin_witness,
    event_vectors,
    reference_realization,
)

# The number rule that every record keeps (graphs.json_int, graphs.json_float):
# where an integer is expected each of these is refused, and where a weight
# is expected each of these.
NOT_INTEGERS = [True, np.True_, 2.0, 1.7, "2", None]
BAD_WEIGHTS = [True, np.True_, "1.0", None, float("nan"), -1.0, 1.0000001 * MAX_WEIGHT]


def brute_force_independence(g: WeightedGraph) -> float:
    """Exhaustive maximum weight of a stable set over all 2^n vertex subsets,
    each summed in increasing vertex order."""
    best = 0.0
    for bits in itertools.product((0, 1), repeat=g.n):
        if not any(bits[u] and bits[v] for u, v in g.edges):
            best = max(best, sum(w for w, b in zip(g.weights, bits) if b))
    return best


def brute_force_maximal_cliques(g: WeightedGraph) -> list[tuple[int, ...]]:
    adj = g.neighbor_sets
    cliques = []
    for r in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), r):
            if not all(v in adj[u] for u, v in itertools.combinations(subset, 2)):
                continue
            if any(
                all(w in adj[u] for u in subset)
                for w in range(g.n)
                if w not in subset
            ):
                continue
            cliques.append(subset)
    return sorted(cliques)


@st.composite
def weighted_graphs(draw, bipartite: bool = False) -> WeightedGraph:
    n = draw(st.integers(1, 10))
    if bipartite:
        left = draw(st.integers(1, n))
        pairs = [(i, j) for i in range(left) for j in range(left, n)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    return WeightedGraph(n, [e for e, k in zip(pairs, keep) if k], weights)


def circulant_theta(n: int, offsets) -> float:
    """Lovasz theta of the unit-weight circulant(n, offsets) as an LP, solved
    by scipy's HiGHS, with no SDP.  theta = max sum_ij B_ij over PSD B with
    tr B = 1 and B_ij = 0 on edges; the rotations fix that program, so some
    optimizer is circulant, its first row b symmetric (b_k = b_(n-k)), and
    B >= 0 becomes one constraint per frequency j <= n/2: the DFT eigenvalue
    sum_k b_k cos(2 pi j k / n) >= 0.  The unknowns are b_0, ..., b_(n//2)."""
    from scipy.optimize import linprog

    k = np.arange(n // 2 + 1)
    fold = np.where((k == 0) | (2 * k == n), 1.0, 2.0)  # b_k stands for b_k and b_(n-k)
    eigenvalues = fold * np.cos(2.0 * np.pi * np.outer(k, k) / n)  # row j, column k
    bounds = [(0.0, 0.0) if i in set(offsets) else (None, None) for i in k.tolist()]
    res = linprog(-n * fold, A_ub=-eigenvalues, b_ub=np.zeros(k.size),
                  A_eq=n * np.eye(1, k.size), b_eq=[1.0], bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def complement(g: WeightedGraph) -> WeightedGraph:
    """Same vertices and weights, complemented edge set."""
    edges = set(itertools.combinations(range(g.n), 2)) - set(g.edges)
    return WeightedGraph(g.n, edges, g.weights)


def reweight(g: WeightedGraph, weights) -> WeightedGraph:
    """g with its vertex weights replaced."""
    return WeightedGraph(g.n, g.edges, weights)


def random_graph(rng: np.random.Generator, max_n: int = 12) -> WeightedGraph:
    n = int(rng.integers(1, max_n + 1))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    weights = rng.uniform(0.0, 2.0, size=n)
    return WeightedGraph(n, edges, weights)


def reference_gram(name: str) -> np.ndarray:
    """Re(V V^H) for V = [psi, Pi_1 psi, ..., Pi_n psi], the event vectors of
    the scenario's reference realization in witness order: the theta
    optimizer of its exclusivity graph, index 0 the handle (the Gram-matrix
    view of Bharti et al., PRL 122, 250403, 2019)."""
    events = [e for e, _ in builtin_witness(name).terms]
    v = event_vectors(reference_realization(name), events)
    return (v @ v.conj().T).real


# The paper's seven-dimensional configuration for mermin: row 0 is the
# handle, row 1 + i event i of the witness.  Its entries are printed to three
# decimals, so its Gram matrix matches reference_gram("mermin") only to a few
# parts in ten thousand.
MERMIN_SEVEN_DIM = np.array([
    (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.25, -0.113, -0.241, 0.284, 0.088, 0.166, -0.029),
    (0.25, 0.0, -0.242, -0.274, -0.139, -0.186, 0.004),
    (0.25, 0.044, 0.261, 0.167, 0.054, -0.291, -0.042),
    (0.25, 0.069, 0.223, -0.178, -0.004, 0.312, 0.067),
    (0.25, -0.110, -0.251, -0.120, 0.247, -0.021, -0.191),
    (0.25, -0.004, -0.232, 0.130, -0.298, 0.001, 0.167),
    (0.25, 0.045, 0.212, -0.030, 0.204, -0.042, 0.310),
    (0.25, 0.069, 0.271, 0.019, -0.154, 0.062, -0.285),
    (0.25, -0.292, 0.079, 0.151, 0.075, -0.051, -0.255),
    (0.25, -0.182, 0.039, -0.200, -0.161, 0.035, 0.293),
    (0.25, 0.223, -0.059, 0.300, 0.068, -0.075, 0.184),
    (0.25, 0.251, -0.059, -0.252, 0.019, 0.091, -0.222),
    (0.25, 0.291, -0.031, 0.046, -0.225, -0.199, -0.097),
    (0.25, 0.182, -0.087, 0.003, 0.311, 0.215, 0.059),
    (0.25, -0.226, 0.069, 0.104, -0.227, 0.262, -0.021),
    (0.25, -0.247, 0.049, -0.152, 0.140, -0.278, 0.059),
])


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a list of vectors or matrices: an oracle for the
    party-by-party products the package forms."""
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m))
    return out


def dense_claim_residuals(ref: Realization, cand: Realization, report):
    """The self-testing claim's residuals for a report, from dense operators:
    max |V_j^H V_j - 1|, |V (psi x junk) - psi'| and |V (Pi_i psi x junk) -
    Pi'_i psi'| per event, with V = V_1 x ... x V_n and each Pi_i formed by
    np.kron.  An oracle for the package's party-by-party residuals."""
    isometry_dev = max(np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()
                       for v in report.isometries)
    big_v = kron_all(report.isometries)
    parties = len(ref.dims)
    # (H_1 x ... x H_n) x (K_1 x ... x K_n) reordered to (H_1 x K_1) x ...
    perm = [a for j in range(parties) for a in (j, parties + j)]

    def carried(vec):
        outer = np.multiply.outer(vec.reshape(ref.dims), report.junk.reshape(report.junk_dims))
        return big_v @ outer.transpose(perm).reshape(-1)

    def projected(r, e):
        ops = [r.projectors[j][x][a] for j, (x, a) in enumerate(zip(e.x, e.a))]
        return kron_all(ops) @ np.asarray(r.state, dtype=complex)

    psi, psi_c = np.asarray(ref.state, dtype=complex), np.asarray(cand.state, dtype=complex)
    events = [np.linalg.norm(carried(projected(ref, e)) - projected(cand, e))
              for e in report.events]
    return float(isometry_dev), float(np.linalg.norm(carried(psi) - psi_c)), np.array(events)


def embedded_candidate(r: Realization, ws) -> Realization:
    """Carry the realization `r`, of any rank, through one local isometry
    per party: projectors w P w^dagger, state (w_1 x ... x w_n) psi."""
    projs = tuple(
        tuple(tuple(w @ np.asarray(p) @ w.conj().T for p in setting) for setting in party)
        for w, party in zip(ws, r.projectors)
    )
    return Realization(
        tuple(w.shape[0] for w in ws), kron_all(ws) @ np.asarray(r.state), projs, None
    )


def rotated_candidate(r: Realization, seed: int) -> Realization:
    """Apply an independent random orthogonal rotation on each party."""
    rng = np.random.default_rng(seed)
    return embedded_candidate(r, [np.linalg.qr(rng.normal(size=(d, d)))[0] for d in r.dims])


def padded_candidate(r: Realization, extra: int = 1, seed: int = 3) -> Realization:
    """Embed each party into a larger space through a random isometry."""
    rng = np.random.default_rng(seed)
    return embedded_candidate(
        r, [np.linalg.qr(rng.normal(size=(d + extra, d + extra)))[0][:, :d] for d in r.dims]
    )


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """First `cols` columns of a Haar-random complex unitary of size `rows`."""
    z = (rng.normal(size=(rows, rows)) + 1j * rng.normal(size=(rows, rows))) / np.sqrt(2)
    q, t = np.linalg.qr(z)
    return (q * (np.diag(t) / np.abs(np.diag(t))))[:, :cols]


def tensor_padded_candidate(r: Realization, ancilla: np.ndarray, k: int = 2) -> Realization:
    """Tensor a k-dimensional ancilla register onto each party; projectors act
    as identity on the ancilla and the state carries `ancilla` across the
    ancilla registers (interleaved with the original party ordering)."""
    parties = len(r.dims)
    projs = tuple(
        tuple(
            tuple(np.kron(np.asarray(p, dtype=complex), np.eye(k)) for p in setting)
            for setting in party
        )
        for party in r.projectors
    )
    full = np.outer(np.asarray(r.state, dtype=complex), ancilla).reshape(
        tuple(r.dims) + (k,) * parties
    )
    perm = [a for j in range(parties) for a in (j, parties + j)]
    state = full.transpose(perm).reshape(-1)
    return Realization(tuple(d * k for d in r.dims), state, projs, None)


def perturbed_candidate(r: Realization, angle: float = 0.05) -> Realization:
    """Rotate the first party's first measurement basis by `angle`: its
    projectors become rot P rot^T."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.eye(r.dims[0])
    rot[:2, :2] = [[c, -s], [s, c]]
    projs = [list(party) for party in r.projectors]
    projs[0][0] = tuple(rot @ np.asarray(p) @ rot.T for p in projs[0][0])
    return Realization(r.dims, r.state, tuple(tuple(party) for party in projs), None)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()
