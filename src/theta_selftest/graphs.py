"""Vertex-weighted graphs: generators, exact independence number, fractional packing.

The fractional packing number alpha* (the clique LP) is solved in-package by
a small interior-point method and enclosed in [lo, hi], whose ends are the
values of a primal and a dual point repaired to exact feasibility, widened
by a rounding allowance: they bound alpha* however inaccurate the solver's
last iterate is.  `theta` prints hi, the end that bounds theta from above.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sdp import SolverError

Edge = tuple[int, int]


PACKING_TOL = 1e-10  # relative width of the certified alpha* enclosure
_PACKING_MAX_ITER = 100
_CLIQUE_LIMIT = 100_000


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
        if not all(0.0 <= x < float("inf") for x in w):
            raise ValueError("weights must be finite and nonnegative")
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
    # the lex-smallest optimum instead of keeping the greedy witness.  Both
    # slacks are relative: an absolute one is lost in rounding at large weights.
    greedy = _greedy_stable_value(g)
    scale = max(1.0, greedy)
    best_value, tie = greedy - 1e-9 * scale, 1e-12 * scale
    best_set: tuple[int, ...] | None = None

    def dfs(candidates: list[int], current: list[int], value: float) -> None:
        nonlocal best_value, best_set
        if not candidates:
            if value > best_value + tie:
                best_value = value
                best_set = tuple(current)
            return
        if value + _greedy_clique_cover_bound(g, candidates) <= best_value + tie:
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


def maximal_cliques(g: WeightedGraph) -> list[tuple[int, ...]]:
    """All maximal cliques, Bron-Kerbosch with pivoting, deterministic order;
    ResourceLimitError beyond _CLIQUE_LIMIT of them."""
    out: list[tuple[int, ...]] = []
    adj = g.neighbor_sets

    def expand(r: list[int], p: list[int], x: list[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            if len(out) > _CLIQUE_LIMIT:
                raise ResourceLimitError(f"more than {_CLIQUE_LIMIT} maximal cliques")
            return
        pivot = max(p + x, key=lambda u: (len(adj[u] & set(p)), -u))
        for v in [u for u in p if u not in adj[pivot]]:
            nv = adj[v]
            expand(r + [v], [u for u in p if u in nv], [u for u in x if u in nv])
            p.remove(v)
            x.append(v)

    expand([], list(range(g.n)), [])
    return sorted(out)


def _packing_bounds(
    a: np.ndarray, w: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """Values of x and y repaired into the primal and dual feasible sets.

    x clipped at 0 and divided by max(1, max(Ax)) packs every clique, so
    w.x is a lower bound on alpha*.  y clipped at 0 covers w once each
    vertex's deficit max(0, w - A^T y) is added to one clique through it
    (every vertex lies in a maximal clique), so 1.y plus the deficits is an
    upper bound (weak duality).  The repair is additive, not a rescaling of
    y, because a vertex of tiny weight would otherwise inflate all of y.
    Both ends are widened by an allowance for the rounding of their sums.
    """
    x = np.maximum(x, 0.0)
    lo = float(w @ x) / max(1.0, float((a @ x).max()))
    y = np.maximum(y, 0.0)
    hi = float(y.sum()) + float(np.maximum(w - a.T @ y, 0.0).sum())
    # A sum of k nonnegative terms is off by at most about k*eps relative;
    # no sum here has more than (cliques + vertices) terms.
    rounding = (a.shape[0] + a.shape[1]) * sys.float_info.epsilon
    return lo * (1.0 - rounding), hi * (1.0 + rounding)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps v + step * dv nonnegative."""
    shrinking = dv < 0.0
    return min(1.0, float((-v[shrinking] / dv[shrinking]).min(initial=np.inf)))


def _face_projection(a, w, x, s, y, z) -> tuple[np.ndarray, np.ndarray]:
    """x and y moved onto the optimal face the iterate points to (Mehrotra and
    Ye, Math. Prog. 62, 1993): vertices with x > z and cliques with y > s are
    guessed to be the supports, and complementary slackness is imposed on
    them by least-change corrections.  The interior-point iterate itself
    approaches that face only as fast as its ill-conditioning allows.
    """
    basic, tight = x > z, y > s
    block = a[np.ix_(tight, basic)]
    xp, yp = np.where(basic, x, 0.0), np.where(tight, y, 0.0)
    xp[basic] += np.linalg.lstsq(block, 1.0 - block @ x[basic], rcond=None)[0]
    yp[tight] += np.linalg.lstsq(block.T, w[basic] - block.T @ y[tight], rcond=None)[0]
    return xp, yp


def fractional_packing_bounds(g: WeightedGraph) -> tuple[float, float]:
    """Certified enclosure lo <= alpha* <= hi of the clique LP
    max w.x  s.t.  sum of x over each maximal clique <= 1,  x >= 0,
    with hi - lo <= PACKING_TOL * max(1, hi).

    Mehrotra's predictor-corrector primal-dual interior-point method on
    Ax + s = 1 and A^T y - z = w (A the clique-vertex 0/1 matrix).  Its
    n x n normal equations (A^T diag(y/s) A + diag(z/x)) dx = r are solved
    as the least-squares problem they belong to, by QR, which does not
    square the condition number; weights many orders of magnitude apart
    stall the method otherwise.  Each iteration turns the iterate and its
    projection onto the optimal face into bounds (`_packing_bounds`) and
    stops once they are close.  Raises SolverError when they do not close
    in _PACKING_MAX_ITER iterations.
    """
    cliques = maximal_cliques(g)
    a = np.zeros((len(cliques), g.n))
    for r, clique in enumerate(cliques):
        a[r, list(clique)] = 1.0
    w = np.asarray(g.weights)
    x, z = np.ones(g.n), np.ones(g.n)
    s, y = np.ones(len(cliques)), np.ones(len(cliques))
    for _ in range(_PACKING_MAX_ITER):
        lo, hi = _packing_bounds(a, w, x, y)
        face_lo, face_hi = _packing_bounds(a, w, *_face_projection(a, w, x, s, y, z))
        lo, hi = max(lo, face_lo), min(hi, face_hi)
        if hi - lo <= PACKING_TOL * max(1.0, hi):
            return lo, hi
        rp = 1.0 - a @ x - s
        rd = w - a.T @ y + z
        mu = (x @ z + s @ y) / (x.size + s.size)
        # The normal matrix is K^T K; columns scaled to unit norm, so that
        # lstsq's relative cutoff keeps the directions of small columns.
        root_d, root_q = np.sqrt(y / s), np.sqrt(z / x)
        k = np.vstack((a * root_d[:, None], np.diag(root_q)))
        unit = 1.0 / np.linalg.norm(k, axis=0)
        q, r = np.linalg.qr(k * unit)

        def direction(rxz, rsy):
            rhs = np.concatenate(
                ((y * rp - rsy) / (s * root_d), (rd + rxz / x) / root_q)
            )
            dx = unit * np.linalg.lstsq(r, q.T @ rhs, rcond=None)[0]
            dy = (y * (a @ dx - rp) + rsy) / s
            return dx, (rsy - s * dy) / y, dy, (rxz - z * dx) / x

        dx, ds, dy, dz = direction(-x * z, -s * y)
        tp = min(_max_step(x, dx), _max_step(s, ds))
        td = min(_max_step(y, dy), _max_step(z, dz))
        mu_aff = ((x + tp * dx) @ (z + td * dz) + (s + tp * ds) @ (y + td * dy)) / (
            x.size + s.size
        )
        sigma = (mu_aff / mu) ** 3
        dx, ds, dy, dz = direction(
            sigma * mu - x * z - dx * dz, sigma * mu - s * y - ds * dy
        )
        tp = 0.99 * min(_max_step(x, dx), _max_step(s, ds))
        td = 0.99 * min(_max_step(y, dy), _max_step(z, dz))
        x, s = x + tp * dx, s + tp * ds
        y, z = y + td * dy, z + td * dz
        if not np.isfinite(np.concatenate((x, s, y, z))).all():
            break
    raise SolverError(
        "fractional packing LP did not converge",
        float(np.abs(rp).max()),
        float(np.abs(rd).max()),
        hi - lo,
    )


def fractional_packing(g: WeightedGraph) -> float:
    """The upper end of `fractional_packing_bounds`, so alpha* <= it (and theta)."""
    return fractional_packing_bounds(g)[1]


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


def to_json_dict(g: WeightedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [[i, j] for i, j in g.edges],
        "weights": [float(w) for w in g.weights],
    }


def _json_int(v) -> int:
    """An integer from a JSON document; floats and booleans are rejected."""
    if isinstance(v, bool):
        raise TypeError(f"expected an integer, got {v!r}")
    return operator.index(v)


def _json_float(v) -> float:
    """A real number from a JSON document; booleans and strings are rejected."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def from_json_dict(d: dict) -> WeightedGraph:
    try:
        n = _json_int(d["n"])
        edges = tuple((_json_int(i), _json_int(j)) for i, j in d["edges"])
        weights = tuple(_json_float(w) for w in d.get("weights") or [1.0] * n)
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


def canonical_json(obj) -> str:
    """The canonical JSON text of `obj`: sorted keys, no whitespace, one
    trailing newline.  Every JSON document the package writes uses it, so
    repeated runs are byte-identical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def graph_to_json(g: WeightedGraph) -> str:
    return canonical_json(to_json_dict(g))
