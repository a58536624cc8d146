"""Witness constructors, exclusivity graphs, reference realizations."""

import json
from math import cos, pi, sqrt

import numpy as np
import pytest
from conftest import padded_candidate, rotated_candidate, tensor_padded_candidate

from theta_selftest import (
    BellWitness,
    Realization,
    WeightedGraph,
    builtin_witness,
    circulant,
    evaluate_witness,
    exclusivity_graph,
    lovasz_theta,
    realization_from_json_dict,
    reference_realization,
)
from theta_selftest.graphs import complement, find_isomorphism
from theta_selftest.scenarios import (
    BellScenario,
    Event,
    as4_witness,
    chained_witness,
    chsh_witness,
    correlator_to_probability_terms,
    event_projectors,
    event_vectors,
    events_exclusive,
    kron_all,
    mermin_witness,
    parse_scenario_name,
    realization_to_json_dict,
    validate_realization,
    witness_to_json_dict,
)

ALL_NAMES = ["chsh", "chained:2", "chained:3", "chained:4", "mermin", "as4"]

CLOSED_FORM_THETA = {
    "chsh": 2.0 + sqrt(2.0),
    "chained:2": 2.0 * (1.0 + cos(pi / 4.0)),
    "chained:3": 3.0 * (1.0 + cos(pi / 6.0)),
    "chained:4": 4.0 * (1.0 + cos(pi / 8.0)),
    "mermin": 4.0,
    "as4": 7.0 + 5.0 * sqrt(6.0) / 3.0,
}


class TestEventAlgebra:
    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            BellScenario(2, (2,), (2, 2))
        with pytest.raises(ValueError):
            BellScenario(1, (0,), (2,))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event((0, 1), (0,))
        e = Event((0.0, 1.0), (1.0, 0.0))
        assert e.outcomes == (0, 1) and e.settings == (1, 0)

    def test_exclusivity_rule(self):
        a = Event((0, 0), (0, 0))
        assert events_exclusive(a, Event((1, 0), (0, 1)))  # shared x, new a
        assert not events_exclusive(a, Event((1, 1), (1, 1)))  # settings differ
        assert not events_exclusive(a, Event((0, 0), (0, 0)))  # same event
        b = Event((1, 0), (0, 1))
        assert events_exclusive(a, b) == events_exclusive(b, a)

    def test_single_event_witness_graph(self):
        wit = BellWitness(
            BellScenario(2, (1, 1), (2, 2)), ((Event((0, 0), (0, 0)), 1.0),), 1.0
        )
        g = exclusivity_graph(wit)
        assert g.n == 1 and g.edges == ()


class TestWitnessValidation:
    def test_duplicate_events_rejected(self):
        sc = BellScenario(2, (1, 1), (2, 2))
        e = Event((0, 0), (0, 0))
        with pytest.raises(ValueError):
            BellWitness(sc, ((e, 1.0), (e, 2.0)), 1.0)

    def test_nonpositive_weight_rejected(self):
        sc = BellScenario(2, (1, 1), (2, 2))
        with pytest.raises(ValueError):
            BellWitness(sc, ((Event((0, 0), (0, 0)), 0.0),), 1.0)

    def test_label_ranges_enforced(self):
        sc = BellScenario(2, (1, 1), (2, 2))
        with pytest.raises(ValueError):
            BellWitness(sc, ((Event((0, 2), (0, 0)), 1.0),), 1.0)
        with pytest.raises(ValueError):
            BellWitness(sc, ((Event((0, 0), (0, 1)), 1.0),), 1.0)
        with pytest.raises(ValueError):
            BellWitness(sc, ((Event((0, 0, 0), (0, 0, 0)), 1.0),), 1.0)


class TestBuiltinWitnesses:
    def test_chsh_structure(self):
        wit = chsh_witness()
        assert len(wit.terms) == 8
        assert wit.classical_bound == 3.0
        assert all(w == 1.0 for _, w in wit.terms)
        assert exclusivity_graph(wit) == circulant(8, (1, 4))

    def test_chained_structure(self):
        for n in (2, 3, 5):
            wit = chained_witness(n)
            assert len(wit.terms) == 4 * n
            assert wit.classical_bound == 2.0 * n - 1.0
            g = exclusivity_graph(wit)
            assert find_isomorphism(g, circulant(4 * n, (1, 2 * n))) is not None
        with pytest.raises(ValueError):
            chained_witness(1)

    def test_mermin_structure(self):
        wit = mermin_witness()
        assert len(wit.terms) == 16
        assert wit.classical_bound == 3.0
        assert wit.affine == (2.0, -4.0)
        # The complement is the Shrikhande graph: the Cayley graph of
        # Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}.
        shrikhande = WeightedGraph(16, tuple(
            (4 * a + b, 4 * ((a + c) % 4) + (b + d) % 4)
            for a in range(4) for b in range(4) for c, d in ((1, 0), (0, 1), (1, 1))
        ))
        g = exclusivity_graph(wit)
        assert g.weights == (1.0,) * 16
        assert find_isomorphism(complement(g), shrikhande) is not None

    def test_as4_structure(self):
        wit = as4_witness()
        assert len(wit.terms) == 26
        assert wit.classical_bound == 10.0
        heavy = [(e, w) for e, w in wit.terms if w == 2.0]
        assert len(heavy) == 2
        assert all(e.settings == (2, 2) for e, _ in heavy)
        assert sum(w for _, w in wit.terms) == 28.0
        assert exclusivity_graph(wit).n == 26

    def test_name_parsing(self):
        assert parse_scenario_name("chsh") == ("chsh", None)
        assert parse_scenario_name(" CHAINED:7 ") == ("chained", 7)
        assert parse_scenario_name("AS4") == ("as4", None)
        for bad in ("chained:x", "nope"):
            with pytest.raises(ValueError):
                parse_scenario_name(bad)
        with pytest.raises(ValueError):
            builtin_witness("chained:1")


class TestCorrelatorExpansion:
    def test_correlated_and_anticorrelated_terms(self):
        terms, offset = correlator_to_probability_terms(1, (1, 2))
        assert offset == -1.0
        assert [(e.outcomes, e.settings, w) for e, w in terms] == [
            ((1, 1), (1, 2), 2.0),
            ((-1, -1), (1, 2), 2.0),
        ]
        terms, _ = correlator_to_probability_terms(-1, (1, 2), outcome_labels=(0, 1))
        assert [(e.outcomes, w) for e, w in terms] == [((0, 1), 2.0), ((1, 0), 2.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            correlator_to_probability_terms(2, (0, 0))
        with pytest.raises(ValueError):
            correlator_to_probability_terms(1, (0, 0), outcome_labels=(1, 1))

    def test_completeness_sums_to_constant(self):
        plus, off1 = correlator_to_probability_terms(1, (0, 1), outcome_labels=(0, 1))
        minus, off2 = correlator_to_probability_terms(-1, (0, 1), outcome_labels=(0, 1))
        events = {e.outcomes for e, _ in plus + minus}
        assert events == {(0, 0), (1, 1), (0, 1), (1, 0)}
        assert off1 + off2 == -2.0  # 2 * (sum of all four) - 2 = 0

    def test_expansion_reproduces_chained_witness(self):
        for n in (2, 3):
            wit = chained_witness(n)
            setting_pairs = [(0, 0)]
            for m in range(1, n):
                setting_pairs += [(m, m - 1), (m, m)]
            expanded: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
            total_offset = 0.0
            for xy in setting_pairs:
                terms, off = correlator_to_probability_terms(1, xy, (0, 1))
                expanded += [(e.outcomes, e.settings) for e, _ in terms]
                total_offset += off
            terms, off = correlator_to_probability_terms(-1, (0, n - 1), (0, 1))
            expanded += [(e.outcomes, e.settings) for e, _ in terms]
            total_offset += off
            assert sorted(expanded) == sorted(
                (e.outcomes, e.settings) for e, _ in wit.terms
            )
            # Correlator bound 2N-2 maps to the probability-sum bound 2N-1.
            assert (2.0 * n - 2.0) == 2.0 * wit.classical_bound + total_offset

    def test_correlator_identity_on_quantum_states(self):
        r = reference_realization("chsh")
        psi = np.asarray(r.state)
        for x, y in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            a_obs = r.projectors[0][x][0] - r.projectors[0][x][1]
            b_obs = r.projectors[1][y][0] - r.projectors[1][y][1]
            corr = float(np.real(np.vdot(psi, kron_all([a_obs, b_obs]) @ psi)))
            terms, offset = correlator_to_probability_terms(1, (x, y), (0, 1))
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
        validate_realization(r)
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
        theta, _ = lovasz_theta(exclusivity_graph(wit))
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
        _, behavior = evaluate_witness(chsh_witness(), reference_realization("chsh"))
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
    def test_rejects_unnormalized_state(self):
        r = reference_realization("chsh")
        bad = Realization(r.dims, np.asarray(r.state) * 2.0, r.projectors, r.kets)
        with pytest.raises(ValueError):
            validate_realization(bad)

    def test_rejects_non_projector(self):
        r = reference_realization("chsh")
        mats = [[[np.array(p) for p in s] for s in party] for party in r.projectors]
        mats[0][0][0] = 0.5 * mats[0][0][0]
        bad = Realization(r.dims, r.state, tuple(
            tuple(tuple(s) for s in party) for party in mats
        ))
        with pytest.raises(ValueError):
            validate_realization(bad)

    def test_rejects_non_orthogonal_outcomes(self):
        k = np.array([1.0, 0.0])
        proj = np.outer(k, k)
        party = ((proj, proj),)
        bad = Realization((2, 2), np.array([1, 0, 0, 0], dtype=complex),
                          (party, party))
        with pytest.raises(ValueError):
            validate_realization(bad)

    def test_party_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_witness(mermin_witness(), reference_realization("chsh"))

    def test_projector_party_count_must_match_dims(self):
        r = reference_realization("chsh")
        bad = Realization(r.dims, r.state, r.projectors[:1])
        with pytest.raises(ValueError, match="projectors cover 1 parties"):
            validate_realization(bad)

    def test_edge_projectors_are_orthogonal(self):
        # Exclusive events share a setting with differing outcomes at some
        # party, so their joint projectors are orthogonal in any valid
        # realization; the trace check in evaluate_witness enforces this.
        wit = chsh_witness()
        r = reference_realization("chsh")
        g = exclusivity_graph(wit)
        ops = [
            kron_all(event_projectors(r, e)) for e, _ in wit.terms
        ]
        for i, j in g.edges:
            assert abs(np.trace(ops[i] @ ops[j])) <= 1e-12


class TestSerialization:
    @pytest.mark.parametrize("name", ["chsh", "mermin", "as4", "chained:3"])
    def test_witness_roundtrip(self, name):
        # The written document survives JSON text and carries every term.
        wit = builtin_witness(name)
        doc = json.loads(json.dumps(witness_to_json_dict(wit)))
        sc = wit.scenario
        assert doc["scenario"] == {
            "parties": sc.parties,
            "settings": list(sc.settings),
            "outcomes": list(sc.outcomes),
        }
        assert [(tuple(t["a"]), tuple(t["x"]), t["w"]) for t in doc["terms"]] == [
            (e.outcomes, e.settings, w) for e, w in wit.terms
        ]
        assert doc["classical_bound"] == wit.classical_bound
        assert doc.get("affine") == (None if wit.affine is None else list(wit.affine))

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

    def test_jsonify_keeps_booleans(self):
        from theta_selftest.scenarios import _jsonify

        doc = _jsonify({"a": True, "b": np.bool_(False), "c": np.int64(1), "z": 1j})
        expected = '{"a": true, "b": false, "c": 1, "z": [0.0, 1.0]}'
        assert json.dumps(doc, sort_keys=True) == expected

    def test_malformed_documents_rejected(self):
        with pytest.raises(ValueError):
            realization_from_json_dict({"dims": [2, 2]})
        # Dims are integers and complex numbers [re, im] pairs of numbers;
        # JSON booleans and strings are neither.
        good = realization_to_json_dict(reference_realization("chsh"))
        for key, value in (
            ("dims", [2.7, 2]),
            ("dims", ["2", 2]),
            ("dims", [True, 2]),
            ("state", [["0.7071067811865476", 0.0]] + good["state"][1:]),
            ("state", [[good["state"][0][0], False]] + good["state"][1:]),
            ("state", [good["state"][0] + [99.0]] + good["state"][1:]),
        ):
            with pytest.raises(ValueError, match="malformed realization document"):
                realization_from_json_dict({**good, key: value})
