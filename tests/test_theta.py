"""Theta SDP assembly, closed-form certificates, and uniqueness tests."""

import json
import tracemalloc
from math import cos, pi, sqrt

import numpy as np
import pytest
from conftest import (
    circulant_theta,
    complement,
    random_graph,
    reference_gram,
    reweight,
    weighted_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_selftest import sdp, theta
from theta_selftest.graphs import (
    ResourceLimitError,
    WeightedGraph,
    circulant,
    fractional_packing,
    independence_number,
)
from theta_selftest.scenarios import (
    MAX_CHAINED_N,
    builtin_witness,
    chained_dual_certificate,
    exclusivity_graph,
    mermin_witness,
)
from theta_selftest.sdp import SolverError, min_eigenvalue, solve_sdp
from theta_selftest.theta import (
    _START_LADDER,
    NULL_THRESHOLD,
    certificate_matrix,
    certificate_to_json_dict,
    check_size,
    dual_nondegenerate,
    solve_theta_problem,
    theta_problem,
    theta_start,
    verify_dual_certificate,
)

C5 = circulant(5, (1,))
CHSH_GRAPH = circulant(8, (1, 4))


def _dense_system(g: WeightedGraph, z: np.ndarray) -> np.ndarray:
    """The homogeneous system over symmetric M, built row by row with one
    column per upper-triangle M_pq: M_00 = 0, M_0i = M_ii, M_ij = 0 (i ~ j),
    then M Z = 0 row-major, one pair of kron columns per unknown."""
    d = g.n + 1
    unknowns = [(p, q) for p in range(d) for q in range(p, d)]
    col_of = {pq: idx for idx, pq in enumerate(unknowns)}
    s = np.zeros((d + len(g.edges) + d * d, len(unknowns)))
    s[0, col_of[(0, 0)]] = 1.0
    for i in range(1, d):
        s[i, col_of[(0, i)]] = 1.0
        s[i, col_of[(i, i)]] = -1.0
    for row, (i, j) in enumerate(g.edges, start=d):
        s[row, col_of[(i + 1, j + 1)]] = 1.0
    eye = np.eye(d)
    for p, q in unknowns:
        col = np.kron(eye[p], z[q])
        if p != q:
            col = col + np.kron(eye[q], z[p])
        s[d + len(g.edges) :, col_of[(p, q)]] = col
    return s


def _dense_svd(g: WeightedGraph, z: np.ndarray) -> np.ndarray:
    """Singular values of _dense_system over the largest: the oracle for
    dual_nondegenerate, whose kernel map has the same null space."""
    sv = np.linalg.svd(_dense_system(g, z), compute_uv=False)
    return sv / sv.max()


def _dense_dim(g: WeightedGraph, z: np.ndarray) -> int:
    return int(np.sum(_dense_svd(g, z) <= NULL_THRESHOLD))


@st.composite
def _invariant_circulant_slacks(draw):
    """circulant(n, offsets) with multipliers constant on each offset class,
    so the rotation fixes Z exactly.  lambda = 1 (the weight) and mu = 0 make
    Z's vertex block singular, and so degenerate systems, likely."""
    n = draw(st.integers(3, 16))
    offsets = sorted(draw(st.sets(st.integers(1, n // 2), min_size=1)))
    g = circulant(n, offsets)
    value = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(-3.0, 3.0)
    mu = {l: draw(st.just(0.0) | value) for l in offsets}
    by_edge = [mu[min(j - i, n - (j - i))] for i, j in g.edges]
    lam = draw(st.just(1.0) | value)
    return g, certificate_matrix(g, [draw(value), *[lam] * n, *by_edge])


def _basis_e(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    if i == j:
        m[i, i] = 1.0
    else:
        m[i, j] = m[j, i] = 0.5
    return m


def _stack_by_index(g: WeightedGraph) -> np.ndarray:
    """theta_problem's constraint stack filled entry by entry for each kind
    of row: the reference for the table-driven fill."""
    d = g.n + 1
    v = np.arange(1, d)
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    rows = d + np.arange(len(edges))
    a = np.zeros((d + len(edges), d, d))
    a[0, 0, 0] = 1.0  # X_00 = 1
    a[v, v, v] = 1.0  # X_ii - X_0i = 0
    a[v, 0, v] = a[v, v, 0] = -0.5
    a[rows, edges[:, 0], edges[:, 1]] = 0.5  # X_ij = 0
    a[rows, edges[:, 1], edges[:, 0]] = 0.5
    return a


def _slack_by_index(g: WeightedGraph, y: np.ndarray) -> np.ndarray:
    """certificate_matrix's Z filled entry by entry: the reference."""
    d = g.n + 1
    v = np.arange(1, d)
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    z = np.zeros((d, d))
    z[0, 0] = y[0]
    z[0, v] = z[v, 0] = -y[v] / 2.0
    z[v, v] = y[v] - np.asarray(g.weights)
    z[edges[:, 0], edges[:, 1]] = z[edges[:, 1], edges[:, 0]] = y[d:] / 2.0
    return z


def _kernel_rows_by_index(g: WeightedGraph, q: np.ndarray) -> np.ndarray:
    """dual_nondegenerate's map on the kernel basis q, its rows a_r^T S b_r
    spelled out per kind: M_00, M_ii - M_0i and M_ij (i ~ j)."""
    edges = np.asarray(g.edges, dtype=int).reshape(-1, 2) + 1
    a = np.concatenate((q[:1], q[1:] - q[0], q[edges[:, 0]]))
    b = np.concatenate((q[:1], q[1:], q[edges[:, 1]]))
    iu, ju = np.triu_indices(q.shape[1])
    return (a[:, iu] * b[:, ju] + a[:, ju] * b[:, iu]) * np.where(iu == ju, 0.5, sqrt(0.5))


def _assert_identical(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_table_matches_references(g: WeightedGraph, y: np.ndarray, seed: int) -> None:
    """The stack, Z at y, and the kernel map at a slack with a random
    three-dimensional kernel (captured at its SVD) match the references
    bit for bit, signs of zeros included."""
    _assert_identical(theta_problem(g)[1], _stack_by_index(g))
    _assert_identical(certificate_matrix(g, y), _slack_by_index(g, y))
    d = g.n + 1
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = np.concatenate((np.zeros(min(3, d)), rng.uniform(0.5, 2.0, size=d - min(3, d))))
    z = (basis * lam) @ basis.T
    w, vecs = np.linalg.eigh(z)
    q = vecs[:, np.abs(w) <= NULL_THRESHOLD * max(1.0, float(np.abs(w).max()))]
    seen = []
    svd = np.linalg.svd

    def recording(m, *args, **kwargs):
        seen.append(np.array(m))
        return svd(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theta.np.linalg, "svd", recording)
        dual_nondegenerate(g, z)
    assert len(seen) == 1
    _assert_identical(seen[0], _kernel_rows_by_index(g, q))


@st.composite
def _graphs_with_zeros(draw):
    """A weighted graph with some weights set to zero and up to three
    isolated vertices appended, and a multiplier vector with signed zeros
    and the least subnormal (whose half rounds to zero)."""
    g = draw(weighted_graphs())
    zero = draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    extra = draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=3))
    weights = [0.0 if z else w for z, w in zip(zero, g.weights)] + extra
    g = WeightedGraph(g.n + len(extra), g.edges, weights)
    entry = st.sampled_from([0.0, -0.0, 5e-324]) | st.floats(-3.0, 3.0)
    y = draw(st.lists(entry, min_size=1 + g.n + len(g.edges), max_size=1 + g.n + len(g.edges)))
    return g, np.array(y)


class TestConstraintTable:
    @pytest.mark.parametrize(
        "name", ["chsh", *(f"chained:{n}" for n in range(2, 17)), "mermin", "as4"]
    )
    def test_builtin_graphs_match_references(self, name):
        g = exclusivity_graph(builtin_witness(name))
        y = np.random.default_rng(g.n).normal(size=1 + g.n + len(g.edges))
        y[::7] = 0.0
        y[3::7] = -0.0
        _assert_table_matches_references(g, y, g.n)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_graphs_with_zeros())
    def test_random_graphs_match_references(self, point):
        g, y = point
        _assert_table_matches_references(g, y, g.n)


class TestProblemAssembly:
    def test_constraint_count_and_dim(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)], [1.0, 2.0, 1.0, 1.0])
        c, a, b = theta_problem(g)
        assert c.shape == (5, 5)
        assert a.shape == (1 + 4 + 2, 5, 5)
        assert np.array_equal(b, [1.0] + [0.0] * (4 + 2))

    def test_objective_holds_weights(self):
        g = WeightedGraph(3, [(0, 1)], [2.0, 0.5, 1.0])
        c, _, _ = theta_problem(g)
        assert np.array_equal(c, np.diag([0.0, 2.0, 0.5, 1.0]))

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
        assert np.array_equal(theta_problem(g)[1], want)

    def test_stack_bound_is_the_largest_chained_stack(self):
        g = exclusivity_graph(builtin_witness(f"chained:{MAX_CHAINED_N}"))
        assert (g.n + 1 + len(g.edges)) * (g.n + 1) ** 2 == theta._MAX_STACK

    @pytest.mark.parametrize(
        "g", [WeightedGraph(2000, []), complement(WeightedGraph(120, []))],
        ids=["edgeless-2000", "complete-120"],
    )
    def test_oversized_problem_refused_before_allocating(self, g):
        # The stacks would take 59.7 GiB and 850 MB; the size policy that
        # both commands run first refuses them and allocates next to nothing.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="theta SDP on"):
                check_size(g)
            assert tracemalloc.get_traced_memory()[1] <= 1e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "n, positive, subgraph, refused",
        [
            (437, 0, False, None),
            (438, 0, False, "uniqueness map on a 439-dimensional kernel of Z"),
            (6505, 0, False, "uniqueness map on a 6506-dimensional kernel of Z"),
            (6506, 0, False, "uniqueness map on a 6507-dimensional kernel of Z"),
            (6506, 347, False, "uniqueness map on a 6159-dimensional kernel of Z"),
            (2000, 10, True, None),
            (2000, 10, False, "uniqueness map on a 1990-dimensional kernel of Z"),
            (438, 100, False, None),
        ],
        ids=["zero-437", "zero-438", "zero-6505", "zero-6506", "positive-347-of-6506",
             "positive-10-of-2000", "whole-10-of-2000", "positive-100-zero-338"],
    )
    def test_size_policy_boundaries(self, n, positive, subgraph, refused):
        # Edgeless graphs whose first `positive` weights are 1 and the rest 0.
        # The kernel map at k = 438 holds 438 * 438 * 439 / 2 doubles, under
        # the bound, and at 439 it is over.  The lifted primal would not fit
        # for n = 6506, but the map refuses that graph first, as it does every
        # graph whose primal is too large: 347 positive weights are the most
        # a stack that fits allows, and leave the map 6159 kernel vectors.
        # The theta stack is counted on the positive subgraph (`theta` runs on
        # that subgraph).
        weights = np.zeros(n)
        weights[:positive] = 1.0
        g = WeightedGraph(n, [], weights)
        if subgraph:
            g = theta.positive_subgraph(g)[0]
        tracemalloc.start()
        try:
            if refused is None:
                check_size(g)
            else:
                with pytest.raises(ResourceLimitError, match=f"^the {refused} needs"):
                    check_size(g)
            assert tracemalloc.get_traced_memory()[1] <= 1e6
        finally:
            tracemalloc.stop()

    def test_start_is_strictly_feasible(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], [2.0, 1.0, 0.5, 1.0])
        c, a, b = theta_problem(g)
        for scales in _START_LADDER:
            x, y, z = theta_start(g, *scales)
            assert float(np.linalg.eigvalsh(x).min()) > 0
            assert float(np.linalg.eigvalsh(z).min()) > 0
            assert np.abs(np.einsum("kab,ab->k", a, x) - b).max() <= 1e-12
            # Z matches its structural definition sum_i y_i A_i - C.
            recon = np.einsum("k,kab->ab", y, a) - c
            assert np.abs(recon - z).max() <= 1e-12


class TestThetaValues:
    def test_closed_form_families(self):
        # Pentagon: sqrt(5); complete graphs: max weight; empty graphs: total weight.
        assert abs(solve_theta_problem(C5).value - sqrt(5.0)) <= 1e-7
        k3 = WeightedGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert abs(solve_theta_problem(k3).value - 1.0) <= 1e-7
        e4 = WeightedGraph(4, [], [1.0, 2.0, 0.5, 1.0])
        assert abs(solve_theta_problem(e4).value - 4.5) <= 1e-7

    def test_zero_weights_leave_theta_unchanged(self):
        # C5 with one zero weight: theta of the remaining path P4, with a
        # zero row and column for the dropped vertex in the primal.
        sol = solve_theta_problem(reweight(C5, [1.0, 1.0, 0.0, 1.0, 1.0]))
        val, primal = sol.value, sol.primal
        assert abs(val - 2.0) <= 1e-7
        assert primal.shape == (6, 6)
        assert not primal[3].any() and not primal[:, 3].any()
        sol = solve_theta_problem(reweight(C5, [0.0] * 5))
        val, primal = sol.value, sol.primal
        assert val == 0.0
        assert np.array_equal(primal, np.diag([1.0, 0, 0, 0, 0, 0]))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs())
    def test_lifted_multipliers_certify_theta(self, g):
        # Zero-weight vertices get zero multipliers, so Z is the positive
        # subgraph's slack bordered by zero rows, PSD with the same t.
        #
        # The derandomized draws depend on this body's code without its
        # comments (the seed) and on the numeric literals of the src/ modules
        # loaded when it runs (Hypothesis's local constants).  With the body
        # that still called lovasz_theta, moving the paper's optimizer tables
        # out of src/ flipped the draws to defect (a)'s 5-vertex graph, on
        # which every start of the ladder stalls.  This body passes that
        # move, but an edit to its code or to a src/ literal can draw (a)
        # again until (a) is mended (ROADMAP item 6).
        sol = solve_theta_problem(g)
        y = sol.dual_multipliers
        z = certificate_matrix(g, y)
        assert min_eigenvalue(z) >= -1e-8 * max(1.0, y[0])
        assert not z[1 + np.flatnonzero(np.asarray(g.weights) == 0.0)].any()
        _assert_theta_close(y[0], sol.value)

    @pytest.mark.xfail(raises=SolverError, strict=True,
                       reason="defect (a): every start of the ladder stalls (ROADMAP item 6)")
    def test_theta_within_sandwich_where_every_start_stalls(self):
        # alpha = alpha* = 1.1171876 here, so theta is known exactly, yet
        # every start stalls with a gap of 2.6e-7.  The property test above
        # fails with the same error whenever its draws reach this graph.
        g = WeightedGraph(5, [(0, 3), (1, 2), (2, 3), (2, 4), (3, 4)],
                          [1e-07, 0.1796875, 0.0078125, 0.3125, 0.9375])
        value = solve_theta_problem(g).value
        slack = 1e-7 * max(1.0, value)
        assert independence_number(g) - slack <= value <= fractional_packing(g)[1] + slack

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="defect (b): K2 prints NONDEGENERATE (ROADMAP item 1)")
    def test_two_maximum_stable_sets_make_the_optimizer_degenerate(self):
        # {0} and {1} are both maximum-weight stable sets of K2, so theta's
        # optimizer is not unique.  Yet the solver's slack leaves a smallest
        # relative singular value of 7.7e-6, far above NULL_THRESHOLD, at one
        # BLAS thread or two: the program is too small for threaded BLAS.
        g = WeightedGraph(2, [(0, 1)], [1.0, 1.0])
        z = certificate_matrix(g, solve_theta_problem(g).dual_multipliers)
        assert not dual_nondegenerate(g, z).nondegenerate

    def test_weighted_scaling(self):
        w = 1.7
        val = solve_theta_problem(reweight(C5, [w] * 5)).value
        assert abs(val - w * sqrt(5.0)) <= 1e-6

    def test_perfect_graph_weighted(self):
        # C4 is perfect: theta equals the weighted independence number.
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [2.0, 1.0, 1.0, 1.0])
        assert abs(solve_theta_problem(g).value - 3.0) <= 1e-7

    def test_mobius_family_matches_closed_form(self):
        for n in (2, 3, 5):
            g = circulant(4 * n, (1, 2 * n))
            assert abs(solve_theta_problem(g).value - n * (1.0 + cos(pi / (2 * n)))) <= 1e-7


def _assert_theta_close(value: float, expected: float) -> None:
    assert abs(value - expected) <= 1e-7 * max(1.0, abs(expected))


def _disjoint_union(g: WeightedGraph, h: WeightedGraph, join: bool) -> WeightedGraph:
    """g and h side by side, with every g-h pair adjacent when join is set."""
    edges = list(g.edges) + [(g.n + i, g.n + j) for i, j in h.edges]
    if join:
        edges += [(i, g.n + j) for i in range(g.n) for j in range(h.n)]
    return WeightedGraph(g.n + h.n, edges, g.weights + h.weights)


class TestMetamorphic:
    """theta is invariant under relabelling, homogeneous in the weights, adds
    over disjoint unions and takes the maximum over joins."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs(), st.data())
    def test_relabelling(self, g, data):
        p = data.draw(st.permutations(range(g.n)))
        weights = np.zeros(g.n)
        weights[p] = g.weights  # vertex v becomes p[v]
        h = WeightedGraph(g.n, [(p[i], p[j]) for i, j in g.edges], weights)
        _assert_theta_close(solve_theta_problem(h).value, solve_theta_problem(g).value)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs(), st.sampled_from([1e-3, 0.5, 3.0, 1e3]))
    def test_homogeneous_in_the_weights(self, g, s):
        scaled = reweight(g, [s * w for w in g.weights])
        _assert_theta_close(solve_theta_problem(scaled).value, s * solve_theta_problem(g).value)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs(), weighted_graphs())
    def test_disjoint_union_adds(self, g, h):
        expected = solve_theta_problem(g).value + solve_theta_problem(h).value
        _assert_theta_close(solve_theta_problem(_disjoint_union(g, h, False)).value, expected)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs(), weighted_graphs())
    def test_join_takes_the_maximum(self, g, h):
        expected = max(solve_theta_problem(g).value, solve_theta_problem(h).value)
        _assert_theta_close(solve_theta_problem(_disjoint_union(g, h, True)).value, expected)


class TestReferenceGram:
    """The reference realization's real event Gram matrix is a theta optimizer,
    checked against theta's constraints and closed-form value, no solver."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("chsh", 2.0 + sqrt(2.0)),
            ("chained:3", 3.0 * (1.0 + cos(pi / 6.0))),
            ("chained:8", 8.0 * (1.0 + cos(pi / 16.0))),
            ("chained:16", 16.0 * (1.0 + cos(pi / 32.0))),
            ("mermin", 4.0),
            ("as4", 7.0 + 5.0 * sqrt(6.0) / 3.0),
        ],
        ids=["chsh", "chained:3", "chained:8", "chained:16", "mermin", "as4"],
    )
    def test_feasible_and_optimal(self, name, value):
        # Built from kets, an edge entry is zero only to rounding (1.2e-32 has
        # been seen), so the equalities hold to 1e-15, not exactly.
        g = exclusivity_graph(builtin_witness(name))
        x = reference_gram(name)
        assert x.shape == (g.n + 1, g.n + 1)
        assert abs(x[0, 0] - 1.0) <= 1e-15
        assert np.abs(np.diag(x)[1:] - x[0, 1:]).max() <= 1e-15
        e = np.asarray(g.edges) + 1
        assert np.abs(x[e[:, 0], e[:, 1]]).max() <= 1e-15
        assert float(np.linalg.eigvalsh(x).min()) >= -1e-12
        assert abs(np.asarray(g.weights) @ np.diag(x)[1:] - value) <= 1e-12


def _multipliers(g: WeightedGraph, t: float, lam, mu=None) -> np.ndarray:
    """y in theta_problem's order; mu defaults to zero on every edge."""
    mu = np.zeros(len(g.edges)) if mu is None else mu
    return np.concatenate(([t], np.broadcast_to(lam, g.n), mu))


def _slack_oracle(g: WeightedGraph, y: np.ndarray) -> np.ndarray:
    """sum_i y_i A_i - C straight from theta_problem's dense stack."""
    c, a, _ = theta_problem(g)
    return np.tensordot(y, a, axes=1) - c


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
        cert = verify_dual_certificate(CHSH_GRAPH, chained_dual_certificate(2))
        assert cert.verified
        assert abs(cert.bound - (2.0 + sqrt(2.0))) <= 1e-12

    def test_chained_matches_chsh_at_n2(self):
        # The CHSH closed form written out: mu = 2(2 - sqrt 2) on the cycle
        # and 2(3 - 2 sqrt 2) on the antipodal edges, lambda = 2, t = 2 + sqrt 2.
        e = np.asarray(CHSH_GRAPH.edges)
        mu = np.where(e[:, 1] - e[:, 0] == 4, 2.0 * (3.0 - 2.0 * sqrt(2.0)),
                      2.0 * (2.0 - sqrt(2.0)))
        y = _multipliers(CHSH_GRAPH, 2.0 + sqrt(2.0), 2.0, mu)
        cert = chained_dual_certificate(2)
        assert np.abs(cert - y).max() <= 1e-14
        z = certificate_matrix(CHSH_GRAPH, cert)
        assert np.abs(z - _slack_oracle(CHSH_GRAPH, y)).max() <= 1e-14

    def test_chained_bound_values(self):
        for n in (2, 3, 4, 6):
            g = circulant(4 * n, (1, 2 * n))
            cert = verify_dual_certificate(g, chained_dual_certificate(n))
            assert cert.verified
            assert abs(cert.bound - n * (1.0 + cos(pi / (2 * n)))) <= 1e-12
        with pytest.raises(ValueError):
            chained_dual_certificate(1)

    def test_chained_bound_equals_closed_form_to_machine_precision(self):
        for n in range(2, 65):
            assert abs(chained_dual_certificate(n)[0] - n * (1.0 + cos(pi / (2 * n)))) <= 1e-12

    def test_certificate_complements_primal(self):
        # Optimal pair: Z X = 0 for the closed-form certificate and optimizer.
        z = certificate_matrix(CHSH_GRAPH, chained_dual_certificate(2))
        x = reference_gram("chsh")
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
        y = chained_dual_certificate(2)
        with pytest.raises(ValueError, match="length"):
            verify_dual_certificate(CHSH_GRAPH, y[:-1])
        with pytest.raises(ValueError, match="length"):
            certificate_matrix(CHSH_GRAPH, y.reshape(1, -1))
        with pytest.raises(ValueError, match="length"):
            verify_dual_certificate(C5, chained_dual_certificate(2))

    def test_nan_entry_raises(self):
        # Non-finite t, lambda or mu entries.
        for index in (0, 1, -1):
            for value in (np.nan, np.inf, -np.inf):
                y = chained_dual_certificate(2)
                y[index] = value
                with pytest.raises(ValueError, match="non-finite"):
                    verify_dual_certificate(CHSH_GRAPH, y)
                with pytest.raises(ValueError, match="non-finite"):
                    certificate_matrix(CHSH_GRAPH, y)

    def test_mu_on_non_edge_is_malformed(self):
        # A mu for the non-edge (0, 2) of Ci_8(1, 4) has no slot in y.
        y = np.append(chained_dual_certificate(2), 0.0)
        with pytest.raises(ValueError, match="length"):
            verify_dual_certificate(CHSH_GRAPH, y)

    def test_mu_on_non_edge_rejected(self):
        # A certificate written for a supergraph does not verify on the graph.
        sup = WeightedGraph(5, C5.edges + ((0, 2),))
        with pytest.raises(ValueError, match="length"):
            verify_dual_certificate(C5, _multipliers(sup, 3.0, 2.0))

    def test_negative_eigenvalue_fails(self):
        # t = 1 is below theta(C5) = sqrt 5, so Z has a negative eigenvalue.
        cert = verify_dual_certificate(C5, _multipliers(C5, 1.0, 2.0))
        assert not cert.verified
        assert cert.bound == 1.0 and cert.min_eigenvalue < -1e-9

    def test_multiplier_recovery_roundtrip(self, monkeypatch):
        sol = solve_theta_problem(CHSH_GRAPH)
        monkeypatch.setattr(theta, "CERT_TOL", 1e-6)
        cert = verify_dual_certificate(CHSH_GRAPH, sol.dual_multipliers)
        assert cert.verified
        assert abs(cert.bound - (2.0 + sqrt(2.0))) <= 1e-6
        with pytest.raises(ValueError):
            verify_dual_certificate(CHSH_GRAPH, sol.dual_multipliers[:-1])

    def test_recovered_certificates_on_random_weighted_graphs(self, monkeypatch):
        monkeypatch.setattr(theta, "CERT_TOL", 1e-6)
        rng = np.random.default_rng(41)
        for _ in range(5):
            g = random_graph(rng, max_n=8)
            sol = solve_theta_problem(g)
            cert = verify_dual_certificate(g, sol.dual_multipliers)
            assert cert.verified
            assert abs(cert.bound - sol.value) <= 1e-6

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_dual_points())
    def test_verified_bound_is_at_least_theta(self, point):
        # Any y whose Z is PSD is dual feasible, so no structural check is
        # needed for verify_dual_certificate's t to bound theta.
        g, y, theta = point  # theta is solve_theta_problem(g).value
        cert = verify_dual_certificate(g, y)
        if cert.verified:
            assert cert.bound >= theta - 1e-6 * max(1.0, cert.bound)


class TestUniqueness:
    def test_chsh_nondegenerate(self):
        z = certificate_matrix(CHSH_GRAPH, chained_dual_certificate(2))
        verdict = dual_nondegenerate(CHSH_GRAPH, z)
        assert verdict.nondegenerate
        assert verdict.nullspace_dim == 0
        assert verdict.residual > 0

    def test_chained_nondegenerate(self):
        for n in (3, 4):
            g = circulant(4 * n, (1, 2 * n))
            z = certificate_matrix(g, chained_dual_certificate(n))
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
        assert verdict.nullspace_dim == _dense_dim(g, z) == 1

    def test_oversized_kernel_map_refused_before_allocating(self):
        # All-zero weights give Z = 0, so ker Z is everything: on 438 isolated
        # vertices the map would hold 439 * 439 * 440 / 2 doubles (339 MB),
        # just over the stack bound.  Z's eigh finds k = 439, and the map is
        # refused before it is built.
        g = WeightedGraph(438, [], np.zeros(438))
        z = certificate_matrix(g, np.zeros(439))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="kernel of Z needs 42398620 doubles"):
                dual_nondegenerate(g, z)
            assert tracemalloc.get_traced_memory()[1] <= 2e7
        finally:
            tracemalloc.stop()

    def test_identity_slack_forces_trivial_solution(self):
        # M I = 0 pins M = 0 outright: ker Z is trivial, so there is no map
        # to test, regardless of the sparsity pattern.
        verdict = dual_nondegenerate(CHSH_GRAPH, np.eye(9))
        assert verdict == (True, 0, 1.0)

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
        # PSD slacks with a random kernel of every dimension k: the kernel
        # map's null space is the loop-built system's, whether or not its
        # 1 + n + |E| rows can pin the k(k + 1)/2 unknowns.
        d = g.n + 1
        rng = np.random.default_rng(d)
        basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
        for k in range(d + 1):
            lam = np.concatenate((np.zeros(k), rng.uniform(0.5, 2.0, size=d - k)))
            z = (basis * lam) @ basis.T
            assert dual_nondegenerate(g, z).nullspace_dim == _dense_dim(g, z), k

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_invariant_circulant_slacks() | weighted_graphs())
    def test_fourier_blocks_match_dense_svd(self, point):
        # Rotation-invariant slacks, which split into Fourier blocks, and
        # solver slacks of random weighted graphs: one dense SVD of the whole
        # system counts the same null space as the kernel map.  A solver
        # slack with a singular value within two decades of the cut is
        # skipped: there the verdict hangs on the solver's rounding, and the
        # two maps, scaled differently, may fall on either side of it.
        if isinstance(point, WeightedGraph):
            try:
                y = solve_theta_problem(point).dual_multipliers
            except SolverError:
                return
            point = point, certificate_matrix(point, y)
            sv = _dense_svd(*point)
            if np.any((sv > NULL_THRESHOLD / 100) & (sv < NULL_THRESHOLD * 100)):
                return
        g, z = point
        assert dual_nondegenerate(g, z).nullspace_dim == _dense_dim(g, z)

    @pytest.mark.parametrize("scenario", ["mermin", "as4", "chained:4 nudged", "path"])
    def test_unrotatable_slack_takes_one_dense_svd(self, scenario):
        if scenario == "chained:4 nudged":
            g, y = circulant(16, (1, 8)), chained_dual_certificate(4)
            y[-1] += 1e-3
        elif scenario == "path":  # Z is rotation-invariant, the edges are not
            g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)])
            y = [2.0] + [2.0] * 4 + [0.0] * 3
        else:
            g = exclusivity_graph(builtin_witness(scenario))
            y = solve_theta_problem(g).dual_multipliers
        z = certificate_matrix(g, y)
        assert dual_nondegenerate(g, z).nullspace_dim == _dense_dim(g, z)

    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e9])
    def test_chained_certificate_verdict_ignores_weight_scale(self, scale):
        g, y = circulant(16, (1, 8)), chained_dual_certificate(4)
        want = dual_nondegenerate(g, certificate_matrix(g, y))
        g = reweight(g, np.asarray(g.weights) * scale)
        got = dual_nondegenerate(g, certificate_matrix(g, y * scale))
        assert got[:2] == want[:2] == (True, 0)
        assert abs(got.residual - want.residual) <= 1e-6 * want.residual

    @pytest.mark.parametrize("scale", [1e-3, 1e9])
    @pytest.mark.parametrize("name", ["chsh", "mermin", "C5"])
    def test_solver_verdict_ignores_weight_scale(self, name, scale):
        g = C5 if name == "C5" else exclusivity_graph(builtin_witness(name))
        y = solve_theta_problem(g).dual_multipliers
        want = dual_nondegenerate(g, certificate_matrix(g, y))
        scaled = reweight(g, np.asarray(g.weights) * scale)
        got = dual_nondegenerate(scaled, certificate_matrix(scaled, y * scale))
        assert got[:2] == want[:2] == (True, 0)
        assert abs(got.residual - want.residual) <= 1e-6 * want.residual
        # Solved afresh at the scaled weights, the slack differs by the
        # solver's accuracy, so only the verdict is compared.
        y = solve_theta_problem(scaled).dual_multipliers
        assert dual_nondegenerate(scaled, certificate_matrix(scaled, y))[:2] == (True, 0)

    def test_chained_16_takes_no_large_svd(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(theta.np.linalg, "svd", recording)
        g = circulant(64, (1, 32))
        z = certificate_matrix(g, chained_dual_certificate(16))
        assert dual_nondegenerate(g, z).nondegenerate
        assert shapes and max(rows for rows, _ in shapes) <= 200

    @staticmethod
    def _traced_peak(n: int) -> int:
        g = circulant(4 * n, (1, 2 * n))
        z = certificate_matrix(g, chained_dual_certificate(n))
        tracemalloc.start()
        try:
            assert dual_nondegenerate(g, z).nondegenerate
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chained_32_stays_within_40_mb(self):
        assert self._traced_peak(32) <= 40e6

    def test_chained_64_stays_within_10_mb(self):
        # ker Z is four-dimensional, so the map has 10 columns: the whole
        # system's d^3 entries alone (d = 257) would take about 136 MB.
        assert self._traced_peak(64) <= 10e6

    def test_nondegeneracy_implies_multi_start_agreement(self):
        # Re-solving from distinct strictly feasible starts recovers the same
        # primal matrix entrywise whenever the dual certificate is nondegenerate.
        z = certificate_matrix(CHSH_GRAPH, chained_dual_certificate(2))
        assert dual_nondegenerate(CHSH_GRAPH, z).nondegenerate
        problem = theta_problem(CHSH_GRAPH)
        primals = [
            solve_sdp(*problem, start=theta_start(CHSH_GRAPH, *s)).primal
            for s in _START_LADDER
        ]
        for p in primals[1:]:
            assert np.abs(p - primals[0]).max() <= 1e-6


class TestCirculantOracle:
    """Closed forms against circulant_theta, an LP that solves no SDP."""

    @pytest.fixture(autouse=True)
    def no_sdp(self, monkeypatch):
        pytest.importorskip("scipy.optimize")
        for module in (sdp, theta):
            monkeypatch.setattr(module, "solve_sdp", lambda *a, **k: pytest.fail("SDP solved"))

    @pytest.mark.parametrize("n", [*range(2, 65), 128, 256])
    def test_chained_closed_form_and_certificate(self, n):
        want = circulant_theta(4 * n, [1, 2 * n])
        assert abs(n * (1.0 + cos(pi / (2 * n))) - want) <= 1e-11 * want
        assert abs(chained_dual_certificate(n)[0] - want) <= 1e-11 * want

    @pytest.mark.parametrize("n", range(3, 102, 2))
    def test_odd_cycles(self, n):
        want = circulant_theta(n, [1])
        assert abs(n * cos(pi / n) / (1.0 + cos(pi / n)) - want) <= 1e-11 * want

    @pytest.mark.parametrize("n", range(6, 131, 4))
    def test_bipartite_mobius_ladders(self, n):
        # circulant(n, [1, n/2]) with n/2 odd is bipartite: theta = alpha = n/2.
        want = circulant_theta(n, [1, n // 2])
        assert abs(n / 2 - want) <= 1e-11 * want


class TestCertificateSerialization:
    def test_json_roundtrip(self):
        # The document carries y: t, lambda and mu keyed by edge rebuild the
        # multipliers, and its matrix is their slack Z.
        y = chained_dual_certificate(2)
        d = json.loads(json.dumps(certificate_to_json_dict(CHSH_GRAPH, y)))
        mu = [d["mu"][f"{i}-{j}"] for i, j in CHSH_GRAPH.edges]
        assert np.array_equal([d["t"], *d["lambda"], *mu], y)
        assert len(d["mu"]) == len(CHSH_GRAPH.edges)
        assert np.array_equal(np.asarray(d["matrix"]), certificate_matrix(CHSH_GRAPH, y))
