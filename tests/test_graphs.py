import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_independence,
    brute_force_maximal_cliques,
    random_graph,
    weighted_graphs,
)
from theta_selftest import graphs
from theta_selftest.graphs import (
    PACKING_TOL,
    ResourceLimitError,
    WeightedGraph,
    circulant,
    complement,
    find_isomorphism,
    fractional_packing,
    fractional_packing_bounds,
    from_json_dict,
    graph_to_json,
    independence_number,
    maximal_cliques,
    mobius_ladder,
    to_dot,
    to_json_dict,
)
from theta_selftest.scenarios import builtin_witness, exclusivity_graph, mermin_witness


class TestWeightedGraph:
    def test_defaults_and_canonicalization(self):
        g = WeightedGraph(3, [(2, 1), (0, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.weights == (1.0, 1.0, 1.0)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2

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
        ],
    )
    def test_invalid_inputs(self, n, edges, weights):
        with pytest.raises(ValueError):
            WeightedGraph(n, edges, weights)


class TestGenerators:
    def test_circulant_edge_rule(self):
        g = circulant(8, (1, 4))
        for i, j in itertools.combinations(range(8), 2):
            d = (j - i) % 8
            expect = min(d, 8 - d) in (1, 4)
            assert g.has_edge(i, j) == expect

    def test_circulant_validation(self):
        with pytest.raises(ValueError):
            circulant(2, (1,))
        with pytest.raises(ValueError):
            circulant(8, ())
        with pytest.raises(ValueError):
            circulant(8, (1, 5))

    def test_mobius_ladder_is_circulant(self):
        for n in (2, 3, 5):
            assert mobius_ladder(n) == circulant(4 * n, (1, 2 * n))
        with pytest.raises(ValueError):
            mobius_ladder(1)

    def test_complement_involution(self):
        g = random_graph(np.random.default_rng(5), max_n=9)
        cc = complement(complement(g))
        assert cc.edges == g.edges and cc.weights == g.weights
        full = len(g.edges) + len(complement(g).edges)
        assert full == g.n * (g.n - 1) // 2

    def test_shrikhande_complement_structure(self):
        g = exclusivity_graph(mermin_witness())
        assert g.n == 16
        assert all(g.degree(v) == 9 for v in range(16))
        value, _ = independence_number(g)
        assert value == 3.0


class TestIndependence:
    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = random_graph(rng, max_n=10)
            value, witness = independence_number(g)
            bf_value, bf_witness = brute_force_independence(g)
            assert value == pytest.approx(bf_value, abs=1e-9)
            assert witness == bf_witness
            chosen = set(witness)
            assert not any(u in chosen and v in chosen for u, v in g.edges)

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e9])
    def test_matches_brute_force_at_large_weights(self, scale):
        # An absolute start slack below the greedy value is lost in rounding
        # at these magnitudes; the search must still record the optimum.
        rng = np.random.default_rng(int(np.log10(scale)))
        for _ in range(20):
            g = random_graph(rng, max_n=10)
            g = g.with_weights([scale * w for w in g.weights])
            assert independence_number(g) == brute_force_independence(g)
        g = WeightedGraph(2, [(0, 1)], [3e7, 3e7])
        assert independence_number(g) == (3e7, (0,))

    def test_unweighted_cycle(self):
        assert independence_number(circulant(5, (1,)))[0] == 2.0
        assert independence_number(circulant(8, (1, 4)))[0] == 3.0

    def test_weight_zero_vertices_allowed(self):
        g = WeightedGraph(3, [(0, 1)], [0.0, 2.0, 0.5])
        value, witness = independence_number(g)
        assert value == 2.5
        assert witness == (1, 2)


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
        assert fractional_packing(circulant(5, (1,))) == pytest.approx(2.5, abs=1e-9)
        assert fractional_packing(WeightedGraph(4, [])) == pytest.approx(4.0, abs=1e-9)
        k4 = complement(WeightedGraph(4, []))
        assert fractional_packing(k4) == pytest.approx(1.0, abs=1e-9)

    def test_fractional_packing_weighted(self):
        g = WeightedGraph(2, [(0, 1)], [0.5, 2.0])
        assert fractional_packing(g) == pytest.approx(2.0, abs=1e-9)


def _assert_closed(lo: float, hi: float) -> None:
    assert lo <= hi
    assert hi - lo <= PACKING_TOL * max(1.0, hi)


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestPackingLP:
    """The in-package clique LP and its certified enclosure [lo, hi] of alpha*."""

    @_PROPERTY
    @given(weighted_graphs())
    def test_enclosure_above_alpha_and_closed(self, g):
        lo, hi = fractional_packing_bounds(g)
        _assert_closed(lo, hi)
        alpha = independence_number(g)[0]
        # alpha <= alpha* <= hi; lo may sit below alpha, by at most the
        # width, where alpha == alpha* (on perfect graphs, for one).
        assert alpha <= hi
        assert alpha - lo <= PACKING_TOL * max(1.0, hi)
        assert fractional_packing(g) == hi

    @_PROPERTY
    @given(weighted_graphs(bipartite=True), st.booleans())
    def test_exact_on_perfect_graphs(self, g, complemented):
        # The clique LP is exact on perfect graphs: bipartite graphs and,
        # by the weak perfect graph theorem, their complements.
        if complemented:
            g = complement(g)
        lo, hi = fractional_packing_bounds(g)
        _assert_closed(lo, hi)
        assert lo <= independence_number(g)[0] <= hi

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
        lo, hi = fractional_packing_bounds(g)
        _assert_closed(lo, hi)
        assert lo <= independence_number(g)[0] <= hi

    @pytest.mark.parametrize(
        "g, value",
        [
            (WeightedGraph(3, [(0, 1)], [0.0, 0.0, 0.0]), 0.0),
            (complement(WeightedGraph(4, [])).with_weights([0.0] * 4), 0.0),
            (WeightedGraph(3, [(0, 1), (1, 2)], [1.5, 0.0, 0.5]), 2.0),
            (WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], [0.0, 1.0, 0.0, 1.0]), 2.0),
            (WeightedGraph(1, [], [0.7]), 0.7),
            (WeightedGraph(5, [], [0.3, 0.0, 2.0, 1.0, 0.25]), 3.55),
            (
                complement(WeightedGraph(6, [])).with_weights([0.5, 2.0, 1.0, 0.0, 1.5, 0.2]),
                2.0,
            ),
            (exclusivity_graph(builtin_witness("mermin")), 4.0),
            (exclusivity_graph(builtin_witness("as4")), 14.0),
        ],
        ids=["all-zero", "all-zero-complete", "one-zero-path", "zero-ends-path",
             "single-vertex", "edgeless", "complete", "mermin", "as4"],
    )
    def test_known_values(self, g, value):
        lo, hi = fractional_packing_bounds(g)
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
            lo, hi = fractional_packing_bounds(g)
            _assert_closed(lo, hi)
            assert lo <= -res.fun <= hi


class TestSymmetry:
    def test_isomorphism_roundtrip(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, max_n=8)
        perm = rng.permutation(g.n)
        h = WeightedGraph(
            g.n, [(int(perm[u]), int(perm[v])) for u, v in g.edges]
        )
        p = find_isomorphism(g, h)
        assert p is not None
        for u, v in itertools.combinations(range(g.n), 2):
            assert g.has_edge(u, v) == h.has_edge(p[u], p[v])

    def test_non_isomorphic(self):
        assert find_isomorphism(circulant(6, (1,)), circulant(6, (2,))) is None
        assert find_isomorphism(WeightedGraph(3, []), WeightedGraph(4, [])) is None


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

    def test_graph_to_json_deterministic(self):
        g = circulant(6, (1, 3))
        assert graph_to_json(g) == graph_to_json(g)

    def test_dot_output(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], [1.0, 2.0, 1.0])
        dot = to_dot(g)
        assert dot == to_dot(g)
        assert dot.count(" -- ") == 2
        assert dot.count('weight="') == 3
