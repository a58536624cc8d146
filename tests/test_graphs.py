import itertools
import json
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_WEIGHTS,
    NOT_INTEGERS,
    brute_force_independence,
    brute_force_maximal_cliques,
    complement,
    random_graph,
    reweight,
    run_cli,
    weighted_graphs,
)
from theta_selftest import graphs
from theta_selftest.graphs import (
    PACKING_TOL,
    ResourceLimitError,
    WeightedGraph,
    canonical_json,
    circulant,
    fractional_packing,
    from_json_dict,
    independence_number,
    maximal_cliques,
    to_dot,
    to_json_dict,
)
from theta_selftest.scenarios import builtin_witness, exclusivity_graph, mermin_witness


class TestWeightedGraph:
    def test_defaults_and_canonicalization(self):
        g = WeightedGraph(3, [(2, 1), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.weights == (1.0, 1.0, 1.0)
        assert g.neighbor_sets == ({1}, {0, 2}, {1})

    @pytest.mark.parametrize(
        "n,edges,weights",
        [
            (0, [], None),
            (2, [(0, 0)], None),
            (2, [(0, 2)], None),
            (2, [(0, 1), (1, 0)], None),
            (2, [], [1.0]),
            (2, [], [1.0, -0.5]),
            (2, [], [1.0, float("nan")]),
            (2, [], [float("inf"), 1.0]),
            (2, [], [1.0, 1.0000001 * graphs.MAX_WEIGHT]),
        ],
    )
    def test_invalid_inputs(self, n, edges, weights):
        with pytest.raises(ValueError):
            WeightedGraph(n, edges, weights)

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("where", ["n", "first endpoint", "second endpoint"])
    def test_non_integer_count_or_endpoint_refused(self, where, bad):
        # Refused, never truncated to an integer.
        args = {"n": (bad, []), "first endpoint": (3, [(bad, 2)]),
                "second endpoint": (3, [(0, bad)])}[where]
        with pytest.raises(TypeError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            WeightedGraph(*args)

    @pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
    def test_bad_weight_refused(self, bad):
        with pytest.raises((TypeError, ValueError)):
            WeightedGraph(2, [], [1.0, bad])

    def test_numpy_numbers_accepted_as_python_numbers(self):
        g = WeightedGraph(np.int64(3), [(np.int32(2), np.int64(1))],
                          [np.float64(0.5), np.int64(2), 1])
        assert g == WeightedGraph(3, [(1, 2)], [0.5, 2.0, 1.0])
        assert type(g.n) is int and {type(v) for v in g.edges[0]} == {int}
        assert {type(w) for w in g.weights} == {float}


class TestGenerators:
    def test_circulant_edge_rule(self):
        g = circulant(8, (1, 4))
        for i, j in itertools.combinations(range(8), 2):
            d = (j - i) % 8
            expect = min(d, 8 - d) in (1, 4)
            assert (j in g.neighbor_sets[i]) == expect

    def test_circulant_validation(self):
        with pytest.raises(ValueError):
            circulant(2, (1,))
        with pytest.raises(ValueError):
            circulant(8, ())
        with pytest.raises(ValueError):
            circulant(8, (1, 5))
        with pytest.raises(ValueError, match="distinct"):
            circulant(8, (1, 1))

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("where", ["n", "offset"])
    def test_circulant_refuses_a_non_integer(self, where, bad):
        # Refused, never truncated to an integer.
        args = (bad, (1,)) if where == "n" else (8, (bad, 4))
        with pytest.raises(TypeError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            circulant(*args)

    def test_circulant_accepts_numpy_integers(self):
        assert circulant(np.int64(8), (np.int32(1), np.int64(4))) == circulant(8, (1, 4))

    def test_complement_involution(self):
        g = random_graph(np.random.default_rng(5), max_n=9)
        cc = complement(complement(g))
        assert cc.edges == g.edges and cc.weights == g.weights
        full = len(g.edges) + len(complement(g).edges)
        assert full == g.n * (g.n - 1) // 2

    def test_shrikhande_complement_structure(self):
        g = exclusivity_graph(mermin_witness())
        assert g.n == 16
        assert all(len(g.neighbor_sets[v]) == 9 for v in range(16))
        assert independence_number(g) == 3.0


class TestIndependence:
    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng, max_n=10)
            assert independence_number(g) == pytest.approx(
                brute_force_independence(g), rel=1e-12
            )

    def test_matches_brute_force_with_zero_and_tied_weights(self):
        # Zero and repeated weights make many optima tie; the search prunes
        # every branch that can at best tie with the value it holds.
        assert independence_number(WeightedGraph(2, [], [1.0, 0.0])) == 1.0
        rng = np.random.default_rng(0)
        palette = [0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0]
        for _ in range(300):
            n = int(rng.integers(1, 11))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = WeightedGraph(n, edges, rng.choice(palette, size=n))
            assert independence_number(g) == pytest.approx(
                brute_force_independence(g), rel=1e-12
            )

    def test_library_alpha_is_the_theta_commands(self, tmp_path):
        # In doubles {2, 3} weighs 0.1 + 0.2 = 0.30000000000000004, strictly
        # more than {1}.  The theta command searches the positive-weight
        # subgraph, without vertex 0, and must print the same alpha.
        assert Fraction(0.1) + Fraction(0.2) > Fraction(0.3)
        g = WeightedGraph(4, [(0, 1), (1, 2), (1, 3)], [0.0, 0.3, 0.1, 0.2])
        path = tmp_path / "star.json"
        path.write_text(json.dumps(to_json_dict(g)))
        code, out, _ = run_cli(["theta", "--graph", str(path), "--json"])
        assert code == 0
        alpha = json.loads(out)["alpha"]
        assert independence_number(g) == alpha == 0.30000000000000004

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e9])
    def test_matches_brute_force_at_large_weights(self, scale):
        # The search holds no slack, absolute or relative, so no magnitude
        # loses the optimum to rounding.
        rng = np.random.default_rng(int(np.log10(scale)))
        for _ in range(20):
            g = random_graph(rng, max_n=10)
            g = reweight(g, [scale * w for w in g.weights])
            assert independence_number(g) == pytest.approx(
                brute_force_independence(g), rel=1e-12
            )
        assert independence_number(WeightedGraph(2, [(0, 1)], [3e7, 3e7])) == 3e7

    def test_unweighted_cycle(self):
        assert independence_number(circulant(5, (1,))) == 2.0
        assert independence_number(circulant(8, (1, 4))) == 3.0

    def test_weight_zero_vertices_allowed(self):
        g = WeightedGraph(3, [(0, 1)], [0.0, 2.0, 0.5])
        assert independence_number(g) == 2.5

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(weighted_graphs(), weighted_graphs())
    def test_disjoint_union_adds(self, g1, g2):
        # alpha is additive over a disjoint union, so the parts' brute-force
        # values are the union's.
        shifted = tuple((i + g1.n, j + g1.n) for i, j in g2.edges)
        union = WeightedGraph(g1.n + g2.n, g1.edges + shifted, g1.weights + g2.weights)
        a1, a2 = independence_number(g1), independence_number(g2)
        assert a1 == pytest.approx(brute_force_independence(g1), rel=1e-12)
        assert a2 == pytest.approx(brute_force_independence(g2), rel=1e-12)
        assert independence_number(union) == pytest.approx(a1 + a2, rel=1e-12)

    @pytest.mark.parametrize(
        "g, alpha",
        [
            (WeightedGraph(60, [(5 * k + i, 5 * k + (i + 1) % 5)
                                for k in range(12) for i in range(5)]), 24.0),
            (WeightedGraph(2000, []), 2000.0),
            (WeightedGraph(2000, [], [0.0] * 2000), 0.0),
        ],
        ids=["12-C5", "2000-isolated", "2000-isolated-zero-weight"],
    )
    def test_disjoint_unions_are_fast(self, g, alpha):
        # One search per component: exponential only in the largest one.
        start = time.perf_counter()
        value = independence_number(g)
        assert time.perf_counter() - start < 2.0
        assert value == alpha

    @pytest.mark.parametrize(
        "g, alpha",
        [
            (WeightedGraph(500, [(i, i + 1) for i in range(499)]), 250.0),
            (WeightedGraph(2000, [(i, i + 1) for i in range(1999)], [0.0] * 2000), 0.0),
            (WeightedGraph(10000, [(i, i + 1) for i in range(9999)]), 5000.0),
        ],
        ids=["500-path", "2000-path-zero-weight", "10000-path"],
    )
    def test_ties_are_pruned(self, g, alpha):
        # One component with very many optima of equal weight: the greedy
        # value is optimal, and no branch that can only tie it is searched.
        # The clique-cover bound at the root scans, for each vertex, only the
        # cliques that hold a neighbour of it, so it is linear on a path.
        start = time.perf_counter()
        value = independence_number(g)
        assert time.perf_counter() - start < 2.0
        assert value == alpha


class TestCliquesAndPacking:
    def test_maximal_cliques_match_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_graph(rng, max_n=9)
            assert maximal_cliques(g) == brute_force_maximal_cliques(g)

    def test_clique_limit(self, monkeypatch):
        monkeypatch.setattr(graphs, "_CLIQUE_LIMIT", 4)
        g = complement(WeightedGraph(6, []))  # K6: 1 maximal clique, fine
        assert len(maximal_cliques(g)) == 1
        with pytest.raises(ResourceLimitError, match="more than 4 maximal cliques"):
            maximal_cliques(WeightedGraph(8, []))

    def test_fractional_packing_closed_forms(self):
        assert fractional_packing(circulant(5, (1,)))[1] == pytest.approx(2.5, abs=1e-9)
        assert fractional_packing(WeightedGraph(4, []))[1] == pytest.approx(4.0, abs=1e-9)
        k4 = complement(WeightedGraph(4, []))
        assert fractional_packing(k4)[1] == pytest.approx(1.0, abs=1e-9)

    def test_fractional_packing_weighted(self):
        g = WeightedGraph(2, [(0, 1)], [0.5, 2.0])
        assert fractional_packing(g)[1] == pytest.approx(2.0, abs=1e-9)


def _assert_closed(lo: float, hi: float) -> None:
    assert lo <= hi
    assert hi - lo <= PACKING_TOL * max(1.0, hi)


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestPackingLP:
    """The in-package clique LP and its certified enclosure [lo, hi] of alpha*."""

    @_PROPERTY
    @given(weighted_graphs())
    def test_enclosure_above_alpha_and_closed(self, g):
        lo, hi = fractional_packing(g)
        _assert_closed(lo, hi)
        alpha = independence_number(g)
        # alpha <= alpha* <= hi; lo may sit below alpha, by at most the
        # width, where alpha == alpha* (on perfect graphs, for one).
        assert alpha <= hi
        assert alpha - lo <= PACKING_TOL * max(1.0, hi)

    @_PROPERTY
    @given(weighted_graphs(bipartite=True), st.booleans())
    def test_exact_on_perfect_graphs(self, g, complemented):
        # The clique LP is exact on perfect graphs: bipartite graphs and,
        # by the weak perfect graph theorem, their complements.
        if complemented:
            g = complement(g)
        lo, hi = fractional_packing(g)
        _assert_closed(lo, hi)
        assert lo <= independence_number(g) <= hi

    @pytest.mark.parametrize(
        "g",
        [
            WeightedGraph(2, [], [1.0, 1.192092896e-07]),
            WeightedGraph(
                7, [(0, 4), (0, 6)], [1.0, 0.0, 0.0, 0.0, 4.621889863722993e-08, 0.0, 1.0]
            ),
            WeightedGraph(
                5,
                [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)],
                [7.624499714347505e-09, 0.0, 1.0, 1.0, 9.390584103660767e-13],
            ),
        ],
        ids=["edgeless", "forest", "five-vertex"],
    )
    def test_weights_far_apart(self, g):
        # Weights 1e-7 to 1e-12 times the largest: the directions they need
        # are lost in normal equations, and the dual stalls short of the
        # optimal face.  All three graphs are perfect, so alpha* == alpha.
        lo, hi = fractional_packing(g)
        _assert_closed(lo, hi)
        assert lo <= independence_number(g) <= hi

    @pytest.mark.parametrize(
        "g, value",
        [
            (WeightedGraph(3, [(0, 1)], [0.0, 0.0, 0.0]), 0.0),
            (reweight(complement(WeightedGraph(4, [])), [0.0] * 4), 0.0),
            (WeightedGraph(3, [(0, 1), (1, 2)], [1.5, 0.0, 0.5]), 2.0),
            (WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], [0.0, 1.0, 0.0, 1.0]), 2.0),
            (WeightedGraph(1, [], [0.7]), 0.7),
            (WeightedGraph(5, [], [0.3, 0.0, 2.0, 1.0, 0.25]), 3.55),
            (
                reweight(complement(WeightedGraph(6, [])), [0.5, 2.0, 1.0, 0.0, 1.5, 0.2]),
                2.0,
            ),
            (exclusivity_graph(builtin_witness("mermin")), 4.0),
            (exclusivity_graph(builtin_witness("as4")), 14.0),
        ],
        ids=["all-zero", "all-zero-complete", "one-zero-path", "zero-ends-path",
             "single-vertex", "edgeless", "complete", "mermin", "as4"],
    )
    def test_known_values(self, g, value):
        lo, hi = fractional_packing(g)
        _assert_closed(lo, hi)
        assert lo <= value <= hi

    def test_highs_value_inside_enclosure(self):
        """HiGHS, where scipy is installed, as an oracle independent of this solver."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(2024)
        for _ in range(24):
            n = int(rng.integers(12, 41))
            p = rng.uniform(0.1, 0.8)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = WeightedGraph(n, edges, rng.uniform(0.0, 2.0, size=n))
            cliques = maximal_cliques(g)
            a_ub = np.zeros((len(cliques), n))
            for r, clique in enumerate(cliques):
                a_ub[r, list(clique)] = 1.0
            res = linprog(-np.asarray(g.weights), A_ub=a_ub, b_ub=np.ones(len(cliques)),
                          bounds=(0, None), method="highs")
            assert res.success
            lo, hi = fractional_packing(g)
            _assert_closed(lo, hi)
            assert lo <= -res.fun <= hi


class TestSerialization:
    def test_json_roundtrip(self):
        g = random_graph(np.random.default_rng(3), max_n=7)
        doc = to_json_dict(g)
        assert from_json_dict(json.loads(json.dumps(doc))) == g

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            from_json_dict({"edges": [[0, 1]]})
        with pytest.raises(ValueError):
            from_json_dict({"n": 2, "edges": [[0, 5]], "weights": [1, 1]})
        # Vertex counts and indices must be integers and weights numbers, and
        # neither may be a boolean or a string.
        for doc in (
            {"n": 2, "edges": [[0, 1.7]]},
            {"n": 2.0, "edges": []},
            {"n": True, "edges": []},
            {"n": 2, "edges": [[False, 1]]},
            {"n": 2, "edges": [[0, 1]], "weights": [True, 2.5]},
            {"n": 2, "edges": [[0, 1]], "weights": [1.0, "2.5"]},
        ):
            with pytest.raises(ValueError, match="malformed graph document"):
                from_json_dict(doc)
        # Weights may be omitted (unit weights), but when present they must
        # be an array of n numbers.
        assert from_json_dict({"n": 2, "edges": []}).weights == (1.0, 1.0)
        for weights in (False, 0, "", {}, [], None):
            with pytest.raises(ValueError):
                from_json_dict({"n": 2, "edges": [[0, 1]], "weights": weights})

    def test_edge_that_is_not_a_pair_is_malformed(self):
        for edge in ([0, 1, 2], [0]):
            with pytest.raises(ValueError, match="^malformed graph document: "):
                from_json_dict({"n": 2, "edges": [edge]})
        # The graph's own checks give the reasons.
        with pytest.raises(ValueError, match="^malformed graph document: self-loop at vertex 1$"):
            from_json_dict({"n": 2, "edges": [[1, 1]]})
        with pytest.raises(ValueError,
                           match=r"^malformed graph document: duplicate edge \(0, 1\)$"):
            from_json_dict({"n": 2, "edges": [[0, 1], [1, 0]]})

    def test_graph_to_json_deterministic(self):
        g = circulant(6, (1, 3))
        assert canonical_json(to_json_dict(g)) == canonical_json(to_json_dict(g))

    def test_dot_output(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 2.0, 1.0])
        dot = to_dot(g)
        assert dot == to_dot(g)
        assert dot.count(" -- ") == 2
        assert dot.count('weight="') == 3
