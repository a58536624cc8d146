"""Witness constructors, exclusivity graphs, reference realizations."""

import hashlib
import json
import re
from itertools import product
from math import cos, pi, sqrt

import numpy as np
import pytest
from conftest import (
    BAD_WEIGHTS,
    NOT_INTEGERS,
    complement,
    kron_all,
    padded_candidate,
    rotated_candidate,
    tensor_padded_candidate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_selftest.graphs import WeightedGraph, circulant, independence_number, jsonable
from theta_selftest.scenarios import (
    MAX_CHAINED_N,
    PROJECTOR_TOL,
    BellWitness,
    Event,
    Realization,
    as4_witness,
    builtin_witness,
    chained_realization,
    chained_witness,
    evaluate_witness,
    event_projectors,
    event_vectors,
    exclusivity_graph,
    mermin_realization,
    mermin_witness,
    parse_scenario_name,
    realization_from_json_dict,
    realization_to_json_dict,
    reference_realization,
    validate_realization,
    witness_to_json_dict,
)
from theta_selftest.selftest import run_selftest
from theta_selftest.theta import solve_theta_problem

ALL_NAMES = ["chsh", "chained:2", "chained:3", "chained:4", "mermin", "as4"]
CHSH_EVENTS = [e for e, _ in builtin_witness("chsh").terms]

CLOSED_FORM_THETA = {
    "chsh": 2.0 + sqrt(2.0),
    "chained:2": 2.0 * (1.0 + cos(pi / 4.0)),
    "chained:3": 3.0 * (1.0 + cos(pi / 6.0)),
    "chained:4": 4.0 * (1.0 + cos(pi / 8.0)),
    "mermin": 4.0,
    "as4": 7.0 + 5.0 * sqrt(6.0) / 3.0,
}


def events_exclusive(e1: Event, e2: Event) -> bool:
    """The exclusivity rule, pair by pair: some party keeps its setting but
    changes its outcome.  The oracle that exclusivity_graph is checked on."""
    return any(
        x == y and a != b
        for a, b, x, y in zip(e1.a, e2.a, e1.x, e2.x)
    )


class TestEventAlgebra:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event((0, 1), (0,))
        # A float label is refused, even an integral one, never truncated.
        with pytest.raises(TypeError, match=r"^expected an integer, got 0\.0$"):
            Event((0.0, 1.0), (1.0, 0.0))

    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("field", ["a", "x"])
    def test_non_integer_label_refused(self, field, bad):
        labels = {"a": (0, 1), "x": (1, 0), field: (1, bad)}
        with pytest.raises(TypeError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            Event(**labels)

    def test_numpy_labels_accepted_as_python_integers(self):
        e = Event((np.int64(0), np.int32(1)), (np.int64(1), 0))
        assert e == Event((0, 1), (1, 0))
        assert {type(v) for v in e.a + e.x} == {int}

    def test_exclusivity_rule(self):
        a = Event((0, 0), (0, 0))
        assert events_exclusive(a, Event((1, 0), (0, 1)))  # shared x, new a
        assert not events_exclusive(a, Event((1, 1), (1, 1)))  # settings differ
        assert not events_exclusive(a, Event((0, 0), (0, 0)))  # same event
        b = Event((1, 0), (0, 1))
        assert events_exclusive(a, b) == events_exclusive(b, a)

    def test_single_event_witness_graph(self):
        wit = BellWitness(((Event((0, 0), (0, 0)), 1.0),))
        g = exclusivity_graph(wit)
        assert g.n == 1 and g.edges == ()


    @pytest.mark.parametrize("name", [*ALL_NAMES, "chained:7"])
    def test_graph_edges_are_the_pairwise_rule(self, name):
        # events_exclusive is the definition; the graph applies it to all
        # pairs at once and must list the same edges in the same order.
        events = [e for e, _ in builtin_witness(name).terms]
        want = tuple(
            (i, j)
            for i in range(len(events))
            for j in range(i + 1, len(events))
            if events_exclusive(events[i], events[j])
        )
        assert exclusivity_graph(builtin_witness(name)).edges == want


class TestWitnessValidation:
    def test_empty_witness_rejected(self):
        # No term means no events, so no party count to check a realization on.
        with pytest.raises(ValueError, match="^a witness needs at least one term$"):
            BellWitness(())

    def test_duplicate_events_rejected(self):
        e = Event((0, 0), (0, 0))
        with pytest.raises(ValueError):
            BellWitness(((e, 1.0), (e, 2.0)))

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), 0.0, -1.0])
    def test_weight_not_finite_and_positive_rejected(self, w):
        # Refused at construction, before exclusivity_graph builds anything.
        with pytest.raises(ValueError, match="strictly positive"):
            BellWitness(((Event((0,), (0,)), w),))

    @pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
    def test_bad_weight_refused(self, bad):
        # The graph's weight rule and bound; a term's weight must also be positive.
        with pytest.raises((TypeError, ValueError)):
            BellWitness(((Event((0,), (0,)), 1.0), (Event((1,), (0,)), bad)))

    def test_numpy_weights_accepted_as_floats(self):
        wit = BellWitness(((Event((0,), (0,)), np.float64(0.5)),
                           (Event((1,), (0,)), np.int64(2))))
        assert [w for _, w in wit.terms] == [0.5, 2.0]
        assert {type(w) for _, w in wit.terms} == {float}

    @pytest.mark.parametrize("a, x", [((0, -1), (0, 0)), ((0, 0), (-2, 0))])
    def test_negative_label_rejected(self, a, x):
        # The event refuses it, before any witness is built.
        with pytest.raises(ValueError, match="^event labels must be non-negative$"):
            Event(a, x)

    def test_mixed_arity_rejected(self):
        terms = ((Event((0, 0), (0, 0)), 1.0), (Event((0, 0, 0), (0, 0, 0)), 1.0))
        with pytest.raises(ValueError, match="^witness events must all have one arity$"):
            BellWitness(terms)

    def test_scenario_counts_are_read_off_the_labels(self):
        # Labels need not start at 0 or be contiguous: a party's counts are
        # one more than its largest labels.
        wit = BellWitness(((Event((0, 4), (2, 0)), 1.0), (Event((1, 0), (0, 1)), 1.0)))
        assert witness_to_json_dict(wit)["scenario"] == {
            "parties": 2, "settings": [3, 2], "outcomes": [2, 5]}


class TestBuiltinWitnesses:
    def test_chsh_structure(self):
        wit = builtin_witness("chsh")
        assert len(wit.terms) == 8
        assert witness_to_json_dict(wit)["classical_bound"] == 3.0
        assert all(w == 1.0 for _, w in wit.terms)
        assert exclusivity_graph(wit) == circulant(8, (1, 4))

    def test_chsh_is_chained_at_two(self):
        assert builtin_witness("chsh") == chained_witness(2)
        r, c = reference_realization("chsh"), chained_realization(2)
        assert r.dims == c.dims
        assert np.array_equal(r.state, c.state)
        assert np.array_equal(np.array(r.projectors), np.array(c.projectors))
        assert np.array_equal(np.array(r.kets), np.array(c.kets))

    def test_chained_structure(self):
        for n in range(2, 17):
            wit = chained_witness(n)
            assert len(wit.terms) == 4 * n
            assert witness_to_json_dict(wit)["classical_bound"] == 2.0 * n - 1.0
            assert all(w == 1.0 for _, w in wit.terms)
            # Listed around the ladder: the graph is the circulant itself.
            assert exclusivity_graph(wit) == circulant(4 * n, (1, 2 * n))
            chain = [(0, 0)] + [(m, m - d) for m in range(1, n) for d in (1, 0)]
            expected = {(a, xy) for xy in chain for a in ((0, 0), (1, 1))}
            expected |= {((0, 1), (0, n - 1)), ((1, 0), (0, n - 1))}
            assert {(e.a, e.x) for e, _ in wit.terms} == expected
        with pytest.raises(ValueError, match="witnesses require N >= 2"):
            chained_witness(1)
        with pytest.raises(ValueError, match="realizations require N >= 2"):
            chained_realization(1)

    def test_mermin_structure(self):
        wit = mermin_witness()
        assert len(wit.terms) == 16
        assert witness_to_json_dict(wit)["classical_bound"] == 3.0
        # The complement is the Shrikhande graph: the Cayley graph of
        # Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}.  Event i
        # maps to the group element p[i], written 4a + b.
        shrikhande = WeightedGraph(16, tuple(
            (4 * a + b, 4 * ((a + c) % 4) + (b + d) % 4)
            for a in range(4) for b in range(4) for c, d in ((1, 0), (0, 1), (1, 1))
        ))
        p = (0, 2, 8, 10, 1, 3, 9, 11, 12, 14, 4, 6, 7, 5, 15, 13)
        g = exclusivity_graph(wit)
        assert g.weights == (1.0,) * 16
        mapped = WeightedGraph(16, [(p[i], p[j]) for i, j in complement(g).edges])
        assert len(shrikhande.edges) == 48
        assert mapped.edges == shrikhande.edges

    def test_as4_structure(self):
        wit = as4_witness()
        assert len(wit.terms) == 26
        assert witness_to_json_dict(wit)["classical_bound"] == 10.0
        heavy = [(e, w) for e, w in wit.terms if w == 2.0]
        assert len(heavy) == 2
        assert all(e.x == (2, 2) for e, _ in heavy)
        assert sum(w for _, w in wit.terms) == 28.0
        assert exclusivity_graph(wit).n == 26

    def test_name_parsing(self):
        assert parse_scenario_name("chsh") == ("chsh", None)
        assert parse_scenario_name(" CHAINED:7 ") == ("chained", 7)
        assert parse_scenario_name("AS4") == ("as4", None)
        assert parse_scenario_name("chained:016") == ("chained", 16)
        assert parse_scenario_name(f"chained:{MAX_CHAINED_N}") == ("chained", 64)
        # int() reads all of these as numbers; the selector takes ASCII digits.
        for bad in ("chained:x", "nope", "chained:1_6", "chained:+3", "chained: 3",
                    "chained:-3", "chained:\u0663", "chained:", "chained:3 4"):
            with pytest.raises(ValueError):
                parse_scenario_name(bad)
        with pytest.raises(ValueError, match="exceeds"):
            parse_scenario_name(f"chained:{MAX_CHAINED_N + 1}")
        with pytest.raises(ValueError):
            builtin_witness("chained:1")


def local_bound(wit: BellWitness) -> float:
    """The largest witness value of a deterministic local strategy, by brute
    force: each party fixes one outcome per setting, and an event counts when
    every party's fixed outcome at the event's setting is the event's."""
    events = [e for e, _ in wit.terms]
    per_party = (
        product(range(max(e.a[j] for e in events) + 1), repeat=max(e.x[j] for e in events) + 1)
        for j in range(len(events[0].x))
    )
    return max(
        sum(w for e, w in wit.terms if all(s[x] == a for s, x, a in zip(strategy, e.x, e.a)))
        for strategy in product(*per_party)
    )


@st.composite
def small_witnesses(draw) -> BellWitness:
    """1 to 12 distinct events on 1 to 3 parties, at most 3 settings and 3
    outcomes per party (2 at three parties), with integer weights 1 to 5, so
    that every sum of weights is exact."""
    parties = draw(st.integers(1, 3))
    top = 2 if parties == 3 else 3
    counts = [(draw(st.integers(1, top)), draw(st.integers(1, top))) for _ in range(parties)]
    event = st.tuples(*(st.tuples(st.integers(0, s - 1), st.integers(0, o - 1))
                        for s, o in counts))
    labels = draw(st.lists(event, min_size=1, max_size=12, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(labels), max_size=len(labels)))
    return BellWitness(
        (Event(tuple(a for _, a in xa), tuple(x for x, _ in xa)), w)
        for xa, w in zip(labels, weights)
    )


class TestClassicalBound:
    # The document's classical bound is alpha of the exclusivity graph; in a
    # Bell scenario that is exactly the local bound (Cabello, Severini and
    # Winter, PRL 112, 040401): the events a deterministic strategy makes
    # certain are pairwise non-exclusive, and every stable set is the
    # certain-event set of some deterministic strategy.
    @given(small_witnesses())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_alpha_is_the_local_bound(self, wit):
        assert witness_to_json_dict(wit)["classical_bound"] == local_bound(wit)

    @pytest.mark.parametrize("wit, bound", [
        (builtin_witness("chsh"), 3.0),
        *((chained_witness(n), 2.0 * n - 1.0) for n in range(2, 17)),
        (mermin_witness(), 3.0),
        (mermin_witness(4), 6.0),
        (as4_witness(), 10.0),
    ], ids=["chsh", *(f"chained:{n}" for n in range(2, 17)), "mermin", "mermin:4", "as4"])
    def test_builtin_bounds(self, wit, bound):
        assert witness_to_json_dict(wit)["classical_bound"] == bound
        if max(max(e.x) for e, _ in wit.terms) < 6:  # at most 2^12 strategies here
            assert local_bound(wit) == bound


def _sha256_of_arrays(r: Realization) -> str:
    """SHA-256 of the dims, then the dtype, shape and bytes of the state,
    every projector and every ket in nesting order."""
    h = hashlib.sha256(repr(r.dims).encode())
    nested = (a for f in (r.projectors, r.kets) for party in f for st in party for a in st)
    for a in (r.state, *nested):
        h.update(f"{a.dtype} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestMerminRule:
    # The built-in mermin is the rules at n = 3, pinned bit for bit: every
    # command's bytes and the bench plans rest on its event order and
    # reference.  No command prints the kets, but bench/gen.py builds its
    # candidates from them.  The repr names each event Event(a=..., x=...).
    def test_three_party_witness_bytes_pinned(self):
        got = hashlib.sha256(repr(mermin_witness()).encode()).hexdigest()
        assert got == "2d6d01879d2a9cd9c2eef0129fd1bee7f184af52c1ac0c1308995c06e34fec8f"

    def test_three_party_terms_bytes_pinned(self):
        # The events and weights in order, apart from the record's type name.
        got = hashlib.sha256(repr(mermin_witness().terms).encode()).hexdigest()
        assert got == "f3288379344c9dd9634b64ce776e42480537a6a48a45f6dd57796b350b8d8069"

    def test_three_party_reference_bytes_pinned(self):
        got = _sha256_of_arrays(mermin_realization())
        assert got == "e3c58d66744d6cf77bbb3a693629871f624d25bd6bf926750fc539854e0ec128"

    def test_four_party_graph(self):
        # The classical bound of the four-party rule, (2^2 + 2^3)/2, is its
        # graph's alpha.
        wit = mermin_witness(4)
        g = exclusivity_graph(wit)
        assert (g.n, len(g.edges)) == (64, 1376)
        assert independence_number(g) == witness_to_json_dict(wit)["classical_bound"] == 6.0

    @pytest.mark.parametrize("n,value", [(4, 8.0), (5, 16.0)])
    def test_every_event_of_the_rule_is_equally_likely(self, n, value):
        wit = mermin_witness(n)
        assert len(wit.terms) == 4 ** (n - 1)
        got, behavior = evaluate_witness(wit, mermin_realization(n))
        assert np.abs(behavior - 2.0 ** (1 - n)).max() <= 1e-12
        assert abs(got - value) <= 1e-12 * value


def _correlator_terms(sign: int, xy: tuple[int, int]):
    """+-<A_x B_y> = 2 P(same outcomes) - 1 (sign +1) or 2 P(different
    outcomes) - 1 (sign -1), outcomes labelled 0 and 1: (terms, offset)."""
    pairs = [(0, 0), (1, 1)] if sign == 1 else [(0, 1), (1, 0)]
    return [(Event(a, xy), 2.0) for a in pairs], -1.0


class TestCorrelatorExpansion:
    def test_expansion_reproduces_chained_witness(self):
        for n in (2, 3):
            wit = chained_witness(n)
            setting_pairs = [(0, 0)]
            for m in range(1, n):
                setting_pairs += [(m, m - 1), (m, m)]
            expanded: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            total_offset = 0.0
            for xy in setting_pairs:
                terms, off = _correlator_terms(1, xy)
                expanded += [(e.a, e.x) for e, _ in terms]
                total_offset += off
            terms, off = _correlator_terms(-1, (0, n - 1))
            expanded += [(e.a, e.x) for e, _ in terms]
            total_offset += off
            assert sorted(expanded) == sorted(
                (e.a, e.x) for e, _ in wit.terms
            )
            # Correlator bound 2N-2 maps to the probability-sum bound 2N-1,
            # alpha of the exclusivity graph.
            alpha = independence_number(exclusivity_graph(wit))
            assert (2.0 * n - 2.0) == 2.0 * alpha + total_offset

    def test_correlator_identity_on_quantum_states(self):
        r = reference_realization("chsh")
        psi = np.asarray(r.state)
        for x, y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            a_obs = r.projectors[0][x][0] - r.projectors[0][x][1]
            b_obs = r.projectors[1][y][0] - r.projectors[1][y][1]
            corr = float(np.real(np.vdot(psi, kron_all([a_obs, b_obs]) @ psi)))
            terms, offset = _correlator_terms(1, (x, y))
            prob_form = offset
            for e, w in terms:
                op = kron_all(event_projectors(r, e))
                prob_form += w * float(np.real(np.vdot(psi, op @ psi)))
            assert abs(corr - prob_form) <= 1e-12


class TestReferenceRealizations:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reference_is_valid_and_optimal(self, name):
        wit = builtin_witness(name)
        r = reference_realization(name)
        validate_realization(r, [e for e, _ in wit.terms])
        value, behavior = evaluate_witness(wit, r)
        assert abs(value - CLOSED_FORM_THETA[name]) <= 1e-9
        assert behavior.min() >= -1e-12 and behavior.max() <= 1.0 + 1e-12
        g = exclusivity_graph(wit)
        for i, j in g.edges:
            assert behavior[i] + behavior[j] <= 1.0 + 1e-10

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reference_value_matches_solver_theta(self, name):
        wit = builtin_witness(name)
        value, _ = evaluate_witness(wit, reference_realization(name))
        theta = solve_theta_problem(exclusivity_graph(wit)).value
        assert abs(value - theta) <= 1e-6

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_event_vectors_give_feasible_gram_matrix(self, name):
        # {psi, Pi_i psi}, each Pi_i applied party by party, equals the full
        # Kronecker operator's image and is a feasible theta-primal point
        # whose objective attains the certified bound, for the reference and
        # for rotated, padded and ancilla-tensored copies of it.
        wit = builtin_witness(name)
        events = [e for e, _ in wit.terms]
        r = reference_realization(name)
        ancilla = np.zeros(2 ** len(r.dims), dtype=complex)
        ancilla[0], ancilla[-1] = 0.8, 0.6
        g = exclusivity_graph(wit)
        for cand in (
            r,
            rotated_candidate(r, 1),
            padded_candidate(r, extra=2, seed=11),
            tensor_padded_candidate(r, ancilla),
        ):
            psi = np.asarray(cand.state, dtype=complex)
            oracle = [psi] + [kron_all(event_projectors(cand, e)) @ psi for e in events]
            vecs = event_vectors(cand, events)
            assert np.abs(vecs - np.array(oracle)).max() <= 1e-14
            x = np.real(vecs.conj() @ vecs.T)
            assert abs(x[0, 0] - 1.0) <= 1e-12
            for i in range(g.n):
                assert abs(x[0, i + 1] - x[i + 1, i + 1]) <= 1e-12
            for i, j in g.edges:
                assert abs(x[i + 1, j + 1]) <= 1e-10
            assert float(np.linalg.eigvalsh(x).min()) >= -1e-10
            objective = float(sum(w * x[i + 1, i + 1] for i, (_, w) in enumerate(wit.terms)))
            assert objective >= CLOSED_FORM_THETA[name] - 1e-6

    def test_mermin_behavior_is_uniform(self):
        _, behavior = evaluate_witness(mermin_witness(), reference_realization("mermin"))
        assert np.abs(behavior - 0.25).max() <= 1e-12

    def test_chsh_behavior_is_uniform(self):
        _, behavior = evaluate_witness(builtin_witness("chsh"), reference_realization("chsh"))
        assert np.abs(behavior - (2.0 + sqrt(2.0)) / 8.0).max() <= 1e-12

    def test_kets_define_projectors(self):
        r = reference_realization("as4")
        assert r.kets is not None
        for party, kparty in zip(r.projectors, r.kets):
            for setting, ksetting in zip(party, kparty):
                for p, k in zip(setting, ksetting):
                    assert abs(np.linalg.norm(k) - 1.0) <= 1e-12
                    assert np.abs(p - np.outer(k, k.conj())).max() <= 1e-12

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            reference_realization("ghz")


class TestRealizationValidation:
    @pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
    @pytest.mark.parametrize("party", [0, 1])
    def test_non_integer_dim_refused(self, party, bad):
        r = reference_realization("chsh")
        dims = tuple(bad if j == party else d for j, d in enumerate(r.dims))
        with pytest.raises(TypeError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
            validate_realization(r._replace(dims=dims), CHSH_EVENTS)

    def test_numpy_dims_accepted(self):
        r = reference_realization("chsh")
        validate_realization(r._replace(dims=(np.int64(2), np.int32(2))), CHSH_EVENTS)

    def test_rejects_unnormalized_state(self):
        r = reference_realization("chsh")
        bad = Realization(r.dims, np.asarray(r.state) * 2.0, r.projectors, r.kets)
        with pytest.raises(ValueError):
            validate_realization(bad, CHSH_EVENTS)

    def test_rejects_non_projector(self):
        r = reference_realization("chsh")
        mats = [[[np.array(p) for p in s] for s in party] for party in r.projectors]
        mats[0][0][0] = 0.5 * mats[0][0][0]
        bad = Realization(r.dims, r.state, tuple(
            tuple(tuple(s) for s in party) for party in mats
        ))
        with pytest.raises(ValueError):
            validate_realization(bad, CHSH_EVENTS)

    def test_rejects_non_orthogonal_outcomes(self):
        k = np.array([1.0, 0.0])
        proj = np.outer(k, k)
        party = ((proj, proj),)
        bad = Realization((2, 2), np.array([1, 0, 0, 0], dtype=complex),
                          (party, party))
        with pytest.raises(ValueError, match="not orthogonal"):
            validate_realization(bad, [Event((0, 0), (0, 0))])

    def test_party_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_witness(mermin_witness(), reference_realization("chsh"))

    @pytest.mark.parametrize("entry", ["evaluate_witness", "reference", "candidate"])
    @pytest.mark.parametrize("cut", ["party", "setting", "outcome", "arity"])
    @pytest.mark.parametrize("name", ["chsh", "mermin", "as4", "chained:3"])
    def test_realization_that_cannot_carry_the_witness(self, name, cut, entry):
        # The reference with party 1's projectors, party 0's last setting or
        # party 0's setting-0 outcome 1 cut, or a reference of the other
        # arity, is refused by each entry point with a ValueError that names
        # the first missing label in event order, or both party counts.
        wit = builtin_witness(name)
        events = [e for e, _ in wit.terms]
        ref = reference_realization(name)
        projs = [list(party) for party in ref.projectors]
        if cut == "party":
            projs[1] = []
            label = (1, events[0].x[1], events[0].a[1])
        elif cut == "setting":
            last = len(projs[0]) - 1
            projs[0] = projs[0][:last]
            label = (0, last, next(e.a[0] for e in events if e.x[0] == last))
        elif cut == "outcome":
            projs[0][0] = projs[0][0][:1]
            label = (0, 0, 1)
        bad = Realization(ref.dims, ref.state, tuple(tuple(p) for p in projs))
        message = "realization has no projector for witness label "
        message += "(party {}, setting {}, outcome {})"
        if cut == "arity":
            bad = reference_realization("chsh" if name == "mermin" else "mermin")
            message = f"realization has {len(bad.dims)} parties, the witness {len(ref.dims)}"
        else:
            message = message.format(*label)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            if entry == "evaluate_witness":
                evaluate_witness(wit, bad)
            elif entry == "reference":
                run_selftest(wit, bad, ref)
            else:
                run_selftest(wit, ref, bad)

    def test_projector_party_count_must_match_dims(self):
        r = reference_realization("chsh")
        bad = Realization(r.dims, r.state, r.projectors[:1])
        with pytest.raises(ValueError, match="projectors cover 1 parties"):
            validate_realization(bad, ())

    def test_edge_projectors_are_orthogonal(self):
        # Exclusive events share a setting with differing outcomes at some
        # party, so their joint projectors are orthogonal in any valid
        # realization; the trace check in evaluate_witness enforces this.
        wit = builtin_witness("chsh")
        r = reference_realization("chsh")
        g = exclusivity_graph(wit)
        ops = [
            kron_all(event_projectors(r, e)) for e, _ in wit.terms
        ]
        for i, j in g.edges:
            assert abs(np.trace(ops[i] @ ops[j])) <= 1e-12

    def test_exclusive_overlap_within_entry_tolerance_refused(self):
        # Two events exclusive at party 0, whose setting is I and
        # (3/4) PROJECTOR_TOL I: every entry check holds within PROJECTOR_TOL,
        # but the traces add up to tr(Pi_0 Pi_1) = 3 PROJECTOR_TOL.
        wit = BellWitness(((Event((0, 0), (0, 0)), 1.0), (Event((1, 0), (0, 0)), 1.0)))
        eye = np.eye(2, dtype=complex)
        r = Realization(
            (2, 2), np.eye(4, dtype=complex)[0],
            (((eye, 3 * PROJECTOR_TOL / 4 * eye),), ((eye, 0 * eye),)),
        )
        with pytest.raises(ValueError, match="^events 0 and 1 are exclusive but tr"):
            evaluate_witness(wit, r)


class TestSerialization:
    @pytest.mark.parametrize("name", ["chsh", "mermin", "as4", "chained:3"])
    def test_witness_roundtrip(self, name):
        # The written document survives JSON text and carries every term.
        wit = builtin_witness(name)
        doc = json.loads(json.dumps(witness_to_json_dict(wit)))
        parties, settings = {"chsh": (2, 2), "mermin": (3, 2), "as4": (2, 4),
                             "chained:3": (2, 3)}[name]
        assert doc["scenario"] == {
            "parties": parties,
            "settings": [settings] * parties,
            "outcomes": [2] * parties,
        }
        assert [(tuple(t["a"]), tuple(t["x"]), t["w"]) for t in doc["terms"]] == [
            (e.a, e.x, w) for e, w in wit.terms
        ]
        assert doc["classical_bound"] == independence_number(exclusivity_graph(wit))
        assert "affine" not in doc

    @pytest.mark.parametrize("name", ["chsh", "mermin", "as4"])
    def test_realization_roundtrip(self, name):
        r = reference_realization(name)
        back = realization_from_json_dict(realization_to_json_dict(r))
        assert back.dims == r.dims
        assert np.abs(np.asarray(back.state) - np.asarray(r.state)).max() <= 1e-15
        for pa, pb in zip(r.projectors, back.projectors):
            for sa, sb in zip(pa, pb):
                for a, b in zip(sa, sb):
                    assert np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-15
        value_a, _ = evaluate_witness(builtin_witness(name), r)
        value_b, _ = evaluate_witness(builtin_witness(name), back)
        assert abs(value_a - value_b) <= 1e-12

    def test_jsonable_keeps_booleans(self):
        doc = jsonable({"a": True, "b": np.bool_(False), "c": np.int64(1), "z": 1j,
                        "e": Event((1, 0), (0, 1)), "r": np.array([[1.5, -0.0]]),
                        "i": np.array([2, 3]), "m": np.array([1 + 2j, 3.0])})
        # A NamedTuple record is the object of its fields; a real array is
        # its nested lists, a complex one has [real, imag] pairs.
        expected = ('{"a": true, "b": false, "c": 1, '
                    '"e": {"a": [1, 0], "x": [0, 1]}, "i": [2, 3], '
                    '"m": [[1.0, 2.0], [3.0, 0.0]], "r": [[1.5, -0.0]], "z": [0.0, 1.0]}')
        assert json.dumps(doc, sort_keys=True) == expected

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            realization_from_json_dict({"dims": [2, 2]})
        # Dims are an array and complex numbers [re, im] pairs of numbers;
        # JSON booleans and strings are neither.  validate_realization
        # refuses a dim that is not an integer (TestRealizationValidation).
        good = realization_to_json_dict(reference_realization("chsh"))
        for key, value in (
            ("dims", 2),
            ("state", [["0.7071067811865476", 0.0]] + good["state"][1:]),
            ("state", [[good["state"][0][0], False]] + good["state"][1:]),
            ("state", [good["state"][0] + [99.0]] + good["state"][1:]),
        ):
            with pytest.raises(ValueError, match="malformed realization document"):
                realization_from_json_dict({**good, key: value})
