"""Vertex-weighted graphs: generators, exact independence number, fractional packing.

The exact independence number alpha is a branch and bound run once per
connected component, so a disjoint union costs the sum of its parts, not
their product.

The fractional packing number alpha* (the clique LP) is solved in-package by
a small interior-point method and enclosed in [lo, hi], whose ends are the
values of a primal and a dual point repaired to exact feasibility, widened
by a rounding allowance: they bound alpha* however inaccurate the solver's
last iterate is.  `theta` prints hi, the end that bounds theta from above.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .sdp import SolverError

Edge = tuple[int, int]


PACKING_TOL = 1e-10  # relative width of the certified alpha* enclosure
# Largest accepted vertex weight: the solvers form squared norms of weight
# vectors, which must stay finite (the float maximum is about 1.8e308).
MAX_WEIGHT = 1e150
_PACKING_MAX_ITER = 100
_CLIQUE_LIMIT = 100_000


class ResourceLimitError(RuntimeError):
    """Raised when a combinatorial search exceeds its size limit, or when
    theta.check_size refuses an array of a theta or uniqueness stage."""


def json_int(v) -> int:
    """The rule for an integer, in a document or a record: never a bool."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    raise TypeError(f"expected an integer, got {v!r}")


def json_float(v) -> float:
    """The rule for a real number, in a document or a record: never a bool."""
    if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
        return float(v)
    raise TypeError(f"expected a number, got {v!r}")


def _canonical_edges(n: int, edges) -> tuple[Edge, ...]:
    seen: set[Edge] = set()
    for i, j in edges:
        i, j = json_int(i), json_int(j)
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        e = (i, j) if i < j else (j, i)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    return tuple(sorted(seen))


class _GraphFields(NamedTuple):
    n: int
    edges: tuple[Edge, ...]
    weights: tuple[float, ...]


class WeightedGraph(_GraphFields):
    """Undirected graph with nonnegative vertex weights (default all ones); n
    and the endpoints keep the rule of `json_int`, the weights `json_float`'s."""

    # No __slots__: the cached neighbor_sets lives in the instance __dict__.

    def __new__(cls, n: int, edges, weights=None):
        n = json_int(n)
        if n < 1:
            raise ValueError("need at least one vertex")
        edges = _canonical_edges(n, edges)
        if weights is None:
            w = (1.0,) * n
        else:
            w = tuple(json_float(x) for x in weights)
        if len(w) != n:
            raise ValueError("weight vector length must equal vertex count")
        if not all(0.0 <= x <= MAX_WEIGHT for x in w):
            raise ValueError(
                f"weights must be finite, nonnegative and at most {MAX_WEIGHT:g}"
            )
        return super().__new__(cls, n, edges, w)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)


def circulant(n: int, offsets) -> WeightedGraph:
    """Circulant graph: vertex i adjacent to (i +/- l) mod n for each offset l."""
    if json_int(n) < 3:
        raise ValueError("circulant graphs need n >= 3")
    offs = [json_int(l) for l in offsets]
    if not offs:
        raise ValueError("offsets must be nonempty")
    if len(set(offs)) != len(offs):
        raise ValueError("offsets must be distinct")
    if any(l < 1 or l > n // 2 for l in offs):
        raise ValueError(f"offsets must lie in [1, {n // 2}]")
    edges = {tuple(sorted((i, (i + l) % n))) for i in range(n) for l in offs}
    return WeightedGraph(n, tuple(edges))


def _greedy_clique_cover_bound(g: WeightedGraph, candidates: list[int]) -> float:
    """Upper bound on the best weighted stable set inside `candidates`.

    Partitions the candidates into cliques greedily; a stable set meets each
    clique at most once, so the clique-wise weight maxima bound it from above.
    """
    cliques: list[list[int]] = []
    home: dict[int, int] = {}  # placed vertex -> index of its clique
    for v in candidates:
        nv = g.neighbor_sets[v]
        # v joins the first clique it is adjacent to in full, and only a
        # clique that holds a neighbour of v can be one.
        k = next((k for k in sorted({home[u] for u in nv if u in home})
                  if all(u in nv for u in cliques[k])), len(cliques))
        if k == len(cliques):
            cliques.append([])
        cliques[k].append(v)
        home[v] = k
    return sum(max(g.weights[u] for u in clique) for clique in cliques)


def _greedy_stable_value(g: WeightedGraph, vertices) -> float:
    taken: list[int] = []
    banned: set[int] = set()
    for v in sorted(vertices, key=lambda u: -g.weights[u]):
        if v not in banned:
            taken.append(v)
            banned.update(g.neighbor_sets[v])
    return sum(g.weights[v] for v in sorted(taken))


def components(g: WeightedGraph) -> list[list[int]]:
    """The connected components, each sorted, in order of their least vertex."""
    seen: set[int] = set()
    out: list[list[int]] = []
    for root in range(g.n):
        if root not in seen:
            component, stack = {root}, [root]
            while stack:
                reached = g.neighbor_sets[stack.pop()] - component
                component |= reached
                stack.extend(reached)
            seen |= component
            out.append(sorted(component))
    return out


def independence_number(g: WeightedGraph) -> float:
    """Exact maximum weight of a stable set.

    Branch and bound, once per connected component: depth-first search in
    increasing vertex order, include-branch first, from the component's
    greedy value, pruned by a greedy clique-cover bound wherever it cannot
    beat the best value so far.  Ties are pruned too, so many equal weights
    (a path of unit or zero weights, for one) cost no search.  The result is
    the sum of the components' values.
    """

    def dfs(candidates: list[int], value: float, best: float) -> float:
        """max(best, value + the heaviest stable set within `candidates`)."""
        if not candidates:
            return max(best, value)
        if value + _greedy_clique_cover_bound(g, candidates) <= best:
            return best
        v = candidates[0]
        rest = candidates[1:]
        nv = g.neighbor_sets[v]
        best = dfs([u for u in rest if u not in nv], value + g.weights[v], best)
        return dfs(rest, value, best)

    return sum(
        dfs(component, 0.0, _greedy_stable_value(g, component))
        for component in components(g)
    )


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


def fractional_packing(g: WeightedGraph) -> tuple[float, float]:
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
    for it in range(_PACKING_MAX_ITER + 1):
        lo, hi = _packing_bounds(a, w, x, y)
        face_lo, face_hi = _packing_bounds(a, w, *_face_projection(a, w, x, s, y, z))
        lo, hi = max(lo, face_lo), min(hi, face_hi)
        if hi - lo <= PACKING_TOL * max(1.0, hi):
            return lo, hi
        rp = 1.0 - a @ x - s
        rd = w - a.T @ y + z
        if it == _PACKING_MAX_ITER:
            break
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


def jsonable(obj):
    """`obj` in JSON types: a NamedTuple record as the object of its fields,
    a list or tuple as a list, a real array as nested lists, a complex
    number as a [real, imag] pair, and a numpy scalar as its Python value.
    A dict key is written as text, a tuple key (an edge (i, j)) as "i-j".
    Every document the package writes is built by one call."""
    # Scalars first, floats (np.float64 is one) foremost: most nodes are.
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, dict):
        return {"-".join(map(str, k)) if isinstance(k, tuple) else str(k): jsonable(v)
                for k, v in obj.items()}
    if hasattr(obj, "_asdict"):
        return jsonable(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        # tolist already gives JSON types unless an entry is complex.
        return jsonable(obj.tolist()) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, np.generic):  # a numpy bool, integer or complex number
        return jsonable(obj.item())
    return obj


def to_json_dict(g: WeightedGraph) -> dict:
    """The graph document: a WeightedGraph's fields n, edges and weights."""
    return jsonable(g)


def from_json_dict(d: dict) -> WeightedGraph:
    """The graph of {n, edges[, weights]}; WeightedGraph checks the numbers."""
    try:
        # A present `weights` must be an array: null does not mean omitted.
        weights = tuple(d["weights"]) if "weights" in d else None
        return WeightedGraph(d["n"], d["edges"], weights)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed graph document: {exc}") from exc


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
