"""Bell witnesses as weighted sums of event probabilities, their exclusivity
graphs, and reference realizations.

Events are p[a|x] with per-party outcome labels a and setting labels x.  A
witness states no Bell scenario of its own: the party count is the events'
arity, and a party's setting (outcome) count is one more than its largest
setting (outcome) label.  A witness stores only its terms: its classical
(local) bound is alpha of its weighted exclusivity graph, exactly (Cabello,
Severini and Winter, PRL 112, 040401), and its JSON document writes that.
Realizations carry a shared state and per-party, per-setting, per-outcome
projectors, and their JSON documents hold those alone with the dims.
"""

from __future__ import annotations

import re
from itertools import product
from math import cos, pi, sin, sqrt
from typing import NamedTuple

import numpy as np

from .graphs import (MAX_WEIGHT, WeightedGraph, circulant, independence_number, json_float,
                     json_int, jsonable)

PROJECTOR_TOL = 1e-10  # projector entries, completeness, exclusive-pair overlaps
NORM_TOL = 1e-12  # deviation of the state norm from 1
POLE_TOL = 1e-14  # Bloch directions this close to -z use the fixed south-pole ket
# Largest N a `chained:N` selector names: theta's dense constraint stack holds
# (10N + 1)(4N + 1)^2 doubles, and theta on chained:64 peaks at 1.7 GB.
MAX_CHAINED_N = 64


class _EventFields(NamedTuple):
    a: tuple[int, ...]
    x: tuple[int, ...]


class Event(_EventFields):
    """Joint event p(a|x): outcome labels a and setting labels x, one per
    party, each a non-negative integer by the rule of `graphs.json_int`."""

    __slots__ = ()

    def __new__(cls, a, x):
        a, x = tuple(map(json_int, a)), tuple(map(json_int, x))
        if len(a) != len(x):
            raise ValueError("outcome and setting tuples must have equal length")
        if min(a + x, default=0) < 0:
            raise ValueError("event labels must be non-negative")
        return super().__new__(cls, a, x)


class _WitnessFields(NamedTuple):
    terms: tuple[tuple[Event, float], ...]


class BellWitness(_WitnessFields):
    """Positive combination sum_i w_i p(event_i), stored as its terms alone;
    each weight is a real number (`graphs.json_float`) in (0,
    graphs.MAX_WEIGHT].  `witness_to_json_dict` computes the classical bound.
    """

    __slots__ = ()

    def __new__(cls, terms):
        terms = tuple((e, json_float(w)) for e, w in terms)
        events = [e for e, _ in terms]
        if not events:
            raise ValueError("a witness needs at least one term")
        if len(set(events)) != len(events):
            raise ValueError("witness events must be distinct")
        if not all(0 < w <= MAX_WEIGHT for _, w in terms):  # NaN fails both comparisons
            raise ValueError(f"weights must be strictly positive and at most {MAX_WEIGHT:g}")
        if len({len(e.a) for e in events}) > 1:
            raise ValueError("witness events must all have one arity")
        return super().__new__(cls, terms)


def _labels(wit: BellWitness) -> tuple[np.ndarray, np.ndarray]:
    """Setting and outcome labels, one row per event and one column per party."""
    x = np.array([e.x for e, _ in wit.terms], dtype=int)
    a = np.array([e.a for e, _ in wit.terms], dtype=int)
    return x, a


def exclusivity_graph(wit: BellWitness) -> WeightedGraph:
    """One vertex per term (with its weight); edges join exclusive events:
    pairs in which some party keeps its setting but changes its outcome,
    tested on all pairs at once."""
    x, a = _labels(wit)
    exclusive = ((x[:, None] == x) & (a[:, None] != a)).any(axis=2)
    i, j = np.nonzero(np.triu(exclusive, 1))
    return WeightedGraph(len(wit.terms), zip(i, j), [w for _, w in wit.terms])


def chained_witness(N: int) -> BellWitness:
    """4N unit-weight events listed around the Moebius ladder, so that the
    exclusivity graph is circulant(4N, [1, 2N]): each of two laps walks the
    measurement chain with correlated, alternating outcomes and closes it
    with an anti-correlated event; event i + 2N flips event i's outcomes.
    Classical bound alpha = 2N - 1."""
    if N < 2:
        raise ValueError("chained witnesses require N >= 2")
    setting_pairs = [(0, 0)]
    for m in range(1, N):
        setting_pairs.append((m, m - 1))
        setting_pairs.append((m, m))
    terms: list[tuple[Event, float]] = []
    for lap in (0, 1):
        for k, xy in enumerate(setting_pairs):
            a = (k + lap) % 2
            terms.append((Event((a, a), xy), 1.0))
        terms.append((Event((lap, 1 - lap), (0, N - 1)), 1.0))
    return BellWitness(tuple(terms))


def chained_dual_certificate(N: int) -> np.ndarray:
    """Dual optimal multipliers y for circulant(4N, [1, 2N]), the graph of
    chained_witness(N) in its event order: t = y[0] = N(1 + cos(pi/2N))."""
    if N < 2:
        raise ValueError("chained certificates require N >= 2")
    k = cos(pi / (2 * N))
    f = (1.0 - k) / (1.0 + k)
    l = 1.0 / (1.0 + k)
    n = 4 * N
    e = np.asarray(circulant(n, [1, 2 * N]).edges)
    mus = np.where(e[:, 1] - e[:, 0] == 2 * N, 2.0 * f, 2.0 * l)  # antipodal, cycle
    return np.concatenate(([N / l], np.full(n, 2.0), mus))


def mermin_witness(n: int = 3) -> BellWitness:
    """The n-party Mermin witness, 4^(n-1) unit-weight events from one rule:
    each setting string with an even number k of 1s carries the 2^(n-1)
    outcome strings of parity [k = 2 (mod 4)].  Strings run in (-weight,
    string) order, and a setting's outcomes are complemented unless
    k = 2 (mod 4).  The correlator form M = 2P - 2^(n-1) of the probability
    sum P is the Mermin polynomial, whose classical bound is 2^floor(n/2)."""
    strings = sorted(product((0, 1), repeat=n), key=lambda s: (-sum(s), s))
    terms = []
    for x in strings:
        k = sum(x)
        if k % 2 == 0:
            odd = k % 4 == 2
            outs = (s if odd else tuple(1 - b for b in s) for s in strings)
            terms += [(Event(a, x), 1.0) for a in outs if sum(a) % 2 == odd]
    return BellWitness(tuple(terms))


# Setting pairs carrying anti-correlated events in the 26-event witness.
_AS4_ANTI = {(0, 2), (1, 2), (1, 3), (3, 1)}
_AS4_PAIRS = [
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 0), (1, 1), (1, 2), (1, 3),
    (2, 0), (2, 1), (2, 2),
    (3, 0), (3, 1),
]


def as4_witness() -> BellWitness:
    """26 two-party events on 13 setting pairs; the two events on setting
    pair (2,2) carry weight 2; classical bound alpha = 10."""
    terms: list[tuple[Event, float]] = []
    for x, y in _AS4_PAIRS:
        w = 2.0 if (x, y) == (2, 2) else 1.0
        pair = ((0, 1), (1, 0)) if (x, y) in _AS4_ANTI else ((0, 0), (1, 1))
        for a in pair:
            terms.append((Event(a, (x, y)), w))
    return BellWitness(tuple(terms))


class Realization(NamedTuple):
    """Shared state plus per-party, per-setting, per-outcome projectors.

    `projectors[j][x][a]` acts on the party-j factor of dimension dims[j].
    Callers that build realizations from unit kets (the reference builders,
    bench/gen.py, the tests) carry them in `kets`, with the same nesting;
    the package never reads or checks them.  Arrays are complex.
    """

    dims: tuple[int, ...]
    state: np.ndarray
    projectors: tuple[tuple[tuple[np.ndarray, ...], ...], ...]
    kets: tuple[tuple[tuple[np.ndarray, ...], ...], ...] | None = None


def validate_realization(r: Realization, events) -> None:
    """Raise ValueError unless `r` can carry the witness `events`: each
    event's arity is the party count and, in event order, each of its labels
    names a projector of `r`.  Then check the state and the projectors.  A
    dim that is not an integer (`graphs.json_int`) raises TypeError first."""
    dims = tuple(map(json_int, r.dims))
    parties, table = len(dims), r.projectors
    for e in events:
        if len(e.x) != parties:
            raise ValueError(f"realization has {parties} parties, the witness {len(e.x)}")
        for j, (x, a) in enumerate(zip(e.x, e.a)):
            if not (j < len(table) and x < len(table[j]) and a < len(table[j][x])):
                raise ValueError(
                    "realization has no projector for witness label "
                    f"(party {j}, setting {x}, outcome {a})"
                )
    state = np.asarray(r.state)
    if state.shape != (int(np.prod(dims)),):
        raise ValueError("state length must equal the product of the dims")
    # No normalized state or projector has an entry above 1 in magnitude, so
    # this refuses overflowing input before any norm or product; NaN fails too.
    if not (np.abs(state) <= 1.0 + NORM_TOL).all():
        raise ValueError("state has a non-finite entry or one above 1 in magnitude")
    if abs(np.linalg.norm(state) - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized")
    if len(table) != parties:
        raise ValueError(f"projectors cover {len(table)} parties but dims list {parties}")
    for j, party in enumerate(table):
        for x, setting in enumerate(party):
            for a, p in enumerate(setting):
                p = np.asarray(p)
                if p.shape != (dims[j], dims[j]):
                    raise ValueError(f"projector {j}:{x}:{a} has wrong shape")
                if not (np.abs(p) <= 1.0 + PROJECTOR_TOL).all():
                    raise ValueError(
                        f"projector {j}:{x}:{a} has a non-finite entry or one above 1 in magnitude"
                    )
                if np.abs(p - p.conj().T).max() > PROJECTOR_TOL:
                    raise ValueError(f"projector {j}:{x}:{a} not Hermitian")
                if np.abs(p @ p - p).max() > PROJECTOR_TOL:
                    raise ValueError(f"projector {j}:{x}:{a} not idempotent")
            for a in range(len(setting)):
                for b in range(a + 1, len(setting)):
                    if np.abs(setting[a] @ setting[b]).max() > PROJECTOR_TOL:
                        raise ValueError(
                            f"projectors {j}:{x}:{a} and {j}:{x}:{b} not orthogonal"
                        )


def event_projectors(r: Realization, e: Event) -> list[np.ndarray]:
    return [r.projectors[j][e.x[j]][e.a[j]] for j in range(len(e.x))]


def apply_local(ops, t: np.ndarray, j: int) -> np.ndarray:
    """Apply a local map to party axis j of the batch `t` (shape (batch,
    d_1, ..., d_n)): `ops` is one (d', d_j) matrix for every batch entry or
    a (batch, d', d_j) stack, one per entry."""
    moved = np.moveaxis(t, j + 1, 1)
    out = np.matmul(ops, moved.reshape(moved.shape[0], moved.shape[1], -1))
    return np.moveaxis(out.reshape(out.shape[:2] + moved.shape[2:]), 1, j + 1)


def event_vectors(r: Realization, events) -> np.ndarray:
    """Rows psi, Pi_1 psi, ..., Pi_n psi of `r` on `events`: each party's
    per-event projectors act on that party's axis of the state tensor."""
    psi = np.asarray(r.state, dtype=complex)
    dims = tuple(r.dims)
    ops = [event_projectors(r, e) for e in events]
    t = np.broadcast_to(psi.reshape(dims), (len(ops),) + dims)
    for j in range(len(dims)):
        t = apply_local(np.array([op[j] for op in ops], dtype=complex), t, j)
    return np.vstack([psi, t.reshape(len(ops), -1)])


def evaluate_witness(wit: BellWitness, r: Realization) -> tuple[float, np.ndarray]:
    """Witness value sum_i w_i p_i and the per-event behavior vector.

    Validates the realization on the witness's events and checks
    exclusivity: tr(Pi_i Pi_j), a product of one trace per party, <=
    PROJECTOR_TOL on every graph edge.
    """
    events = [e for e, _ in wit.terms]
    validate_realization(r, events)
    vecs = event_vectors(r, events)
    behavior = np.real(vecs[1:] @ vecs[0].conj())
    for i, j in exclusivity_graph(wit).edges:
        pairs = zip(event_projectors(r, events[i]), event_projectors(r, events[j]))
        overlap = float(np.abs(np.prod([np.trace(p @ q) for p, q in pairs])))
        if overlap > PROJECTOR_TOL:
            raise ValueError(
                f"events {i} and {j} are exclusive but tr(Pi_i Pi_j) = {overlap:.3e}"
            )
    value = float(sum(w * p for (_, w), p in zip(wit.terms, behavior)))
    return value, behavior


def _rank_one_realization(
    dims: tuple[int, ...], state: np.ndarray, kets
) -> Realization:
    """Assemble projectors |k><k| from nested kets [party][setting][outcome]."""
    kets = tuple(
        tuple(
            tuple(np.asarray(k, dtype=complex) / np.linalg.norm(k) for k in setting)
            for setting in party
        )
        for party in kets
    )
    projectors = tuple(
        tuple(tuple(np.outer(k, k.conj()) for k in setting) for setting in party)
        for party in kets
    )
    state = np.asarray(state, dtype=complex)
    return Realization(dims, state / np.linalg.norm(state), projectors, kets)


def chained_realization(N: int) -> Realization:
    """Maximally entangled state; party kets at evenly interleaved angles."""
    if N < 2:
        raise ValueError("chained realizations require N >= 2")

    def ket(theta: float, outcome: int):
        if outcome == 0:
            return (cos(theta / 2.0), sin(theta / 2.0))
        return (-sin(theta / 2.0), cos(theta / 2.0))

    alice = tuple(
        (ket(x * pi / N, 0), ket(x * pi / N, 1)) for x in range(N)
    )
    bob = tuple(
        (ket((2 * y + 1) * pi / (2 * N), 0), ket((2 * y + 1) * pi / (2 * N), 1))
        for y in range(N)
    )
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / sqrt(2.0)
    return _rank_one_realization((2, 2), psi, (alice, bob))


def mermin_realization(n: int = 3) -> Realization:
    """The GHZ-type reference of `mermin_witness(n)`, under which every event
    has probability 2^(1-n).  Each party measures Z (setting 0, outcome 1 on
    |0>) or X (setting 1, outcome 1 on |+>), and the state has amplitude
    (-1)^((n - w)/2) on each string of weight w = n (mod 2)."""
    z, o = (1.0, 0.0), (0.0, 1.0)
    p, m = (1.0 / sqrt(2.0), 1.0 / sqrt(2.0)), (1.0 / sqrt(2.0), -1.0 / sqrt(2.0))
    psi = np.zeros(2**n)
    for i in range(2**n):
        w = i.bit_count()
        if w % 2 == n % 2:
            psi[i] = (-1.0) ** ((n - w) // 2)
    return _rank_one_realization((2,) * n, psi, (((o, z), (m, p)),) * n)


def _bloch_ket(n: np.ndarray) -> np.ndarray:
    if n[2] < -1.0 + POLE_TOL:
        return np.array([0.0, 1.0], dtype=complex)
    v = np.array([1.0 + n[2], n[0] + 1j * n[1]], dtype=complex)
    return v / np.linalg.norm(v)


def as4_realization() -> Realization:
    """Two-qubit realization of the 26-event witness.

    Party measurement directions are fixed by a closed-form Gram target: both
    parties share the pairwise-overlap matrix with entries (1, 2/3, 1/6,
    -+1/sqrt 6), which forces complex kets.  Outcome 0 projects along the
    direction, outcome 1 along its antipode.
    """
    s6, s5 = sqrt(6.0), sqrt(5.0)
    k = np.array(
        [
            [11 * s6 / 36 - 1 / 6, 11 * s6 / 36 + 1 / 6, 2 * s6 / 9, 1 / s6],
            [11 * s6 / 36 + 1 / 6, 11 * s6 / 36 - 1 / 6, 2 * s6 / 9, -1 / s6],
            [2 * s6 / 9, 2 * s6 / 9, -5 * s6 / 18, 0.0],
            [1 / s6, -1 / s6, 0.0, -1.0],
        ]
    )
    n = np.array(
        [
            [0.0, 0.0, 1.0],
            [s5 / 3.0, 0.0, 2.0 / 3.0],
            [1.0 / (6.0 * s5), sqrt(29.0 / 30.0), 1.0 / 6.0],
            [sqrt(5.0 / 6.0), 0.0, -1.0 / s6],
        ]
    )
    mu = np.linalg.solve(n[:3], k[:3]).T  # Bob directions, one per row
    m = (np.diag([1.0, -1.0, 1.0]) @ mu.T).T
    m[2] = -m[2]  # outcome relabel on Bob setting 2
    alice = tuple((_bloch_ket(n[x]), _bloch_ket(-n[x])) for x in range(4))
    bob = tuple((_bloch_ket(m[y]), _bloch_ket(-m[y])) for y in range(4))
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / sqrt(2.0)
    return _rank_one_realization((2, 2), psi, (alice, bob))


# The built-in scenarios: (witness, reference realization, closed-form dual
# certificate or None) builders.  Only the chained builders are passed an
# argument, the N of 'chained:N'; the mermin builders run at three parties.
_SCENARIOS = {
    "chsh": (lambda: chained_witness(2), lambda: chained_realization(2),
             lambda: chained_dual_certificate(2)),
    "chained": (chained_witness, chained_realization, chained_dual_certificate),
    "mermin": (mermin_witness, mermin_realization, None),
    "as4": (as4_witness, as4_realization, None),
}


def parse_scenario_name(name: str) -> tuple[str, int | None]:
    """Normalize a scenario selector: 'chsh', 'mermin', 'as4', or 'chained:'
    followed by ASCII digits naming at most MAX_CHAINED_N, case and
    surrounding blanks aside."""
    key = name.strip().lower()
    if key.startswith("chained:"):
        if not re.fullmatch(r"chained:[0-9]+", key):
            raise ValueError(f"bad chained selector {name!r}")
        n = int(key[len("chained:"):])
        if n > MAX_CHAINED_N:
            raise ValueError(f"chained selector {name!r} exceeds N = {MAX_CHAINED_N}")
        return "chained", n
    if key in _SCENARIOS and key != "chained":
        return key, None
    raise ValueError(f"unknown scenario {name!r}")


def _build(name: str, which: int):
    kind, N = parse_scenario_name(name)
    build = _SCENARIOS[kind][which]
    if build is None:
        return None
    return build() if N is None else build(N)


def builtin_witness(name: str) -> BellWitness:
    return _build(name, 0)


def reference_realization(name: str) -> Realization:
    return _build(name, 1)


def closed_form_certificate(name: str) -> np.ndarray | None:
    """The closed-form multipliers y of chsh and chained:N; None for the rest."""
    return _build(name, 2)


def witness_to_json_dict(wit: BellWitness) -> dict:
    """The terms, the classical bound alpha of the exclusivity graph, and
    under `scenario` the counts that the events' labels imply."""
    x, a = _labels(wit)
    return jsonable({
        "scenario": {
            "parties": x.shape[1],
            "settings": x.max(axis=0) + 1,
            "outcomes": a.max(axis=0) + 1,
        },
        "terms": [{"a": e.a, "x": e.x, "w": w} for e, w in wit.terms],
        "classical_bound": independence_number(exclusivity_graph(wit)),
    })


def realization_to_json_dict(r: Realization) -> dict:
    return jsonable({
        "dims": r.dims,
        "state": np.asarray(r.state, dtype=complex),
        "projectors": [[[np.asarray(p, dtype=complex) for p in s] for s in party]
                       for party in r.projectors],
    })


def _complex_entries(v, depth: int):
    """`depth` levels of nested lists of [re, im] pairs, as complex numbers."""
    if depth:
        return [_complex_entries(u, depth - 1) for u in v]
    real, imag = v
    return complex(json_float(real), json_float(imag))


def realization_from_json_dict(d: dict) -> Realization:
    """Read dims, state and projectors, which validate_realization checks;
    other keys, such as an older document's `kets`, are ignored unchecked."""
    try:
        state = np.array(_complex_entries(d["state"], 1))
        projectors = tuple(
            tuple(tuple(np.array(_complex_entries(p, 2)) for p in s) for s in party)
            for party in d["projectors"]
        )
        return Realization(tuple(d["dims"]), state, projectors)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed realization document: {exc}") from exc
