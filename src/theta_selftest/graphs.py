"""Vertex-weighted graphs: generators, exact independence number, fractional packing."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Edge = tuple[int, int]


class ResourceLimitError(RuntimeError):
    """Raised when a combinatorial search exceeds its configured size limit."""


def _canonical_edges(n: int, edges) -> tuple[Edge, ...]:
    seen: set[Edge] = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with nonnegative vertex weights (default all ones)."""

    n: int
    edges: tuple[Edge, ...]
    weights: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        object.__setattr__(self, "edges", _canonical_edges(self.n, self.edges))
        w = (
            tuple(self.weights)
            if len(self.weights)
            else tuple(1.0 for _ in range(self.n))
        )
        w = tuple(float(x) for x in w)
        if len(w) != self.n:
            raise ValueError("weight vector length must equal vertex count")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.neighbor_sets[i]

    def degree(self, i: int) -> int:
        return len(self.neighbor_sets[i])

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def with_weights(self, weights) -> "WeightedGraph":
        return WeightedGraph(self.n, self.edges, tuple(float(x) for x in weights))


def circulant(n: int, offsets) -> WeightedGraph:
    """Circulant graph: vertex i adjacent to (i +/- l) mod n for each offset l."""
    if n < 3:
        raise ValueError("circulant graphs need n >= 3")
    offs = [int(l) for l in offsets]
    if not offs:
        raise ValueError("offsets must be nonempty")
    if len(set(offs)) != len(offs):
        raise ValueError("offsets must be distinct")
    if any(l < 1 or l > n // 2 for l in offs):
        raise ValueError(f"offsets must lie in [1, {n // 2}]")
    edges = {tuple(sorted((i, (i + l) % n))) for i in range(n) for l in offs}
    return WeightedGraph(n, tuple(edges))


def mobius_ladder(N: int) -> WeightedGraph:
    """The 4N-vertex graph circulant(4N, [1, 2N])."""
    if N < 2:
        raise ValueError("mobius_ladder requires N >= 2")
    return circulant(4 * N, [1, 2 * N])


def complement(g: WeightedGraph) -> WeightedGraph:
    """Same vertices and weights, complemented edge set."""
    edges = tuple(
        (i, j)
        for i in range(g.n)
        for j in range(i + 1, g.n)
        if not g.has_edge(i, j)
    )
    return WeightedGraph(g.n, edges, g.weights)


def _greedy_clique_cover_bound(g: WeightedGraph, candidates: list[int]) -> float:
    """Upper bound on the best weighted stable set inside `candidates`.

    Partitions the candidates into cliques greedily; a stable set meets each
    clique at most once, so the clique-wise weight maxima bound it from above.
    """
    cliques: list[list] = []  # [member list, max weight]
    for v in candidates:
        nv = g.neighbor_sets[v]
        for entry in cliques:
            if all(u in nv for u in entry[0]):
                entry[0].append(v)
                entry[1] = max(entry[1], g.weights[v])
                break
        else:
            cliques.append([[v], g.weights[v]])
    return sum(entry[1] for entry in cliques)


def _greedy_stable_value(g: WeightedGraph) -> float:
    taken: list[int] = []
    banned: set[int] = set()
    for v in sorted(range(g.n), key=lambda u: -g.weights[u]):
        if v not in banned:
            taken.append(v)
            banned.update(g.neighbor_sets[v])
    return sum(g.weights[v] for v in sorted(taken))


def independence_number(g: WeightedGraph) -> tuple[float, tuple[int, ...]]:
    """Exact maximum weight of a stable set, with the lexicographically
    smallest witness among optima.

    Branch and bound: depth-first search in increasing vertex order,
    include-branch first (so stable sets are visited in lexicographic
    order and the first strict improvement is the lex-smallest optimum),
    pruned by a greedy clique-cover bound.
    """
    # Start just below the greedy value so the DFS still visits (and records)
    # the lex-smallest optimum instead of keeping the greedy witness.
    best_value = _greedy_stable_value(g) - 1e-9
    best_set: tuple[int, ...] | None = None

    def dfs(candidates: list[int], current: list[int], value: float) -> None:
        nonlocal best_value, best_set
        if not candidates:
            if value > best_value + 1e-12:
                best_value = value
                best_set = tuple(current)
            return
        if value + _greedy_clique_cover_bound(g, candidates) <= best_value + 1e-12:
            return
        v = candidates[0]
        rest = candidates[1:]
        nv = g.neighbor_sets[v]
        current.append(v)
        dfs([u for u in rest if u not in nv], current, value + g.weights[v])
        current.pop()
        dfs(rest, current, value)

    dfs(list(range(g.n)), [], 0.0)
    assert best_set is not None
    return sum(g.weights[v] for v in best_set), best_set


def maximal_cliques(g: WeightedGraph, limit: int = 100_000) -> list[tuple[int, ...]]:
    """All maximal cliques, Bron-Kerbosch with pivoting, deterministic order."""
    out: list[tuple[int, ...]] = []
    adj = g.neighbor_sets

    def expand(r: list[int], p: list[int], x: list[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            if len(out) > limit:
                raise ResourceLimitError(f"more than {limit} maximal cliques")
            return
        pivot = max(p + x, key=lambda u: (len(adj[u] & set(p)), -u))
        for v in [u for u in p if u not in adj[pivot]]:
            nv = adj[v]
            expand(r + [v], [u for u in p if u in nv], [u for u in x if u in nv])
            p.remove(v)
            x.append(v)

    expand([], list(range(g.n)), [])
    return sorted(out)


def fractional_packing(g: WeightedGraph) -> float:
    """LP value max sum(w_i x_i) s.t. sum over each maximal clique <= 1, x >= 0."""
    # Imported here so that only the alpha* bound pays scipy's load time.
    from scipy.optimize import linprog

    cliques = maximal_cliques(g)
    a_ub = np.zeros((len(cliques), g.n))
    for r, clique in enumerate(cliques):
        a_ub[r, list(clique)] = 1.0
    res = linprog(
        c=-np.asarray(g.weights),
        A_ub=a_ub,
        b_ub=np.ones(len(cliques)),
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"fractional packing LP failed: {res.message}")
    return float(-res.fun)


def find_isomorphism(g: WeightedGraph, h: WeightedGraph) -> tuple[int, ...] | None:
    """Vertex bijection p with g.has_edge(i,j) == h.has_edge(p[i],p[j]), or None.

    Ignores weights; compares adjacency structure only.
    """
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return None
    n = g.n
    image = [-1] * n
    used = [False] * n

    def ok(v: int, t: int) -> bool:
        if g.degree(v) != h.degree(t):
            return False
        return all(
            g.has_edge(u, v) == h.has_edge(image[u], t) for u in range(v)
        )

    def dfs(v: int) -> bool:
        if v == n:
            return True
        for t in range(n):
            if not used[t] and ok(v, t):
                image[v] = t
                used[t] = True
                if dfs(v + 1):
                    return True
                image[v] = -1
                used[t] = False
        return False

    return tuple(image) if dfs(0) else None


def is_isomorphic(g: WeightedGraph, h: WeightedGraph) -> bool:
    return find_isomorphism(g, h) is not None


def to_json_dict(g: WeightedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [[i, j] for i, j in g.edges],
        "weights": [float(w) for w in g.weights],
    }


def from_json_dict(d: dict) -> WeightedGraph:
    try:
        n = int(d["n"])
        edges = tuple((int(i), int(j)) for i, j in d["edges"])
        weights = tuple(float(w) for w in d.get("weights") or [1.0] * n)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc
    return WeightedGraph(n, edges, weights)


def to_dot(g: WeightedGraph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f'  {v} [weight="{g.weights[v]!r}"];')
    for i, j in g.edges:
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: WeightedGraph) -> str:
    return json.dumps(to_json_dict(g), sort_keys=True, separators=(",", ":")) + "\n"
