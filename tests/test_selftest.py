"""Product structure, structural conditions, and isometry extraction tests."""

import itertools
import json

import numpy as np
import pytest
from conftest import (
    MERMIN_SEVEN_DIM,
    dense_claim_residuals,
    embedded_candidate,
    haar_isometry,
    kron_all,
    padded_candidate,
    perturbed_candidate,
    reference_gram,
    rotated_candidate,
    run_cli,
    tensor_padded_candidate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_selftest import selftest
from theta_selftest.graphs import jsonable
from theta_selftest.scenarios import (
    BellWitness,
    Event,
    Realization,
    _rank_one_realization,
    builtin_witness,
    evaluate_witness,
    event_projectors,
    event_vectors,
    exclusivity_graph,
    mermin_realization,
    mermin_witness,
    realization_to_json_dict,
    reference_realization,
)
from theta_selftest.selftest import (
    SELFTEST_TOL,
    NotOptimizerError,
    PreconditionError,
    _claim_residuals,
    candidate_is_rank_one,
    check_conditions,
    interleave_with_junk,
    product_structure_from_realization,
    run_selftest,
    selftest_report_to_json_dict,
)

ALL_NAMES = ["chsh", "chained:2", "chained:3", "chained:4", "mermin", "as4"]


def _structure(name):
    wit = builtin_witness(name)
    r = reference_realization(name)
    return wit, r, _structure_of(r, wit)


def _structure_of(r, wit):
    return product_structure_from_realization(r, tuple(e for e, _ in wit.terms))


def _projected_state(r, e) -> np.ndarray:
    return kron_all(event_projectors(r, e)) @ np.asarray(r.state, dtype=complex)


def _eig_rank(m: np.ndarray, threshold: float) -> int:
    return int(np.sum(np.linalg.eigvalsh(m) > threshold))


def _oracle_max(ref, cand, report) -> float:
    """The largest dense claim residual of a report (NaN when one is NaN)."""
    isometry_dev, state_res, vec_res = dense_claim_residuals(ref, cand, report)
    return float(np.max([isometry_dev, state_res, *vec_res]))


def _assert_oracle_accepts(ref, cand, report, tol=1e-7):
    """The dense oracle gives the report's state and event residuals to
    1e-13 and holds the claim within tol."""
    isometry_dev, state_res, vec_res = dense_claim_residuals(ref, cand, report)
    assert abs(state_res - report.state_residual) <= 1e-13
    assert np.abs(vec_res - report.vector_residuals).max() <= 1e-13
    assert max(isometry_dev, state_res, float(vec_res.max())) <= tol


class TestProductStructure:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reconstructs_projected_states(self, name):
        # Each product ket is the normalized projected state up to a phase.
        wit, r, ps = _structure(name)
        n = len(wit.terms)
        assert ps.dims == r.dims
        assert ps.event_locals.shape == (n, len(r.dims))
        assert ps.products.shape == (n, int(np.prod(r.dims)))
        assert np.array_equal(ps.state, np.asarray(r.state, dtype=complex))
        for i, (e, _) in enumerate(wit.terms):
            target = _projected_state(r, e)
            target = target / np.linalg.norm(target)
            assert abs(abs(np.vdot(ps.products[i], target)) - 1.0) <= 1e-12

    def test_locals_are_unit_vectors(self):
        for name in ALL_NAMES:
            _, r, ps = _structure(name)
            for keys, kets, d in zip(ps.local_keys, ps.locals_, r.dims):
                assert kets.shape == (len(keys), d)
                assert np.abs(np.linalg.norm(kets, axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_products_are_phased_local_kets(self, name):
        # Each product ket is the Kronecker product of the local kets its
        # index row names, each in the canonical phase gauge.
        _, _, ps = _structure(name)
        for i, row in enumerate(ps.event_locals):
            kets = [ps.locals_[j][k] for j, k in enumerate(row)]
            assert np.abs(ps.products[i] - kron_all(kets)).max() <= 1e-15

    def test_negligible_event_refused(self):
        # On |00> the first chsh event of zero probability is event 4,
        # outcomes (1, 1) at settings (0, 0).  The reference's table is
        # checked first, so |00> as both names the reference.
        wit = builtin_witness("chsh")
        r = reference_realization("chsh")
        zero = r._replace(state=np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        for ref, cand, role in ((zero, zero, "reference"), (r, zero, "candidate")):
            pattern = f"^{role} event 4 has negligible probability$"
            with pytest.raises(PreconditionError, match=pattern):
                run_selftest(wit, ref, cand)

    def test_reference_projector_not_rank_one_refused(self):
        # Party 0's first setting as the projectors I and 0 is a valid
        # realization, but the reference is read as local kets.
        wit = builtin_witness("chsh")
        r = reference_realization("chsh")
        eye = np.eye(2, dtype=complex)
        ref = r._replace(projectors=(((eye, 0 * eye), r.projectors[0][1]), r.projectors[1]))
        with pytest.raises(PreconditionError, match="^projector is not rank one$"):
            run_selftest(wit, ref, ref)

    def test_mermin_etas_are_uniform(self):
        # eta_i = |Pi_i psi| is 1/2 for each of the 16 GHZ events.
        wit, r, _ = _structure("mermin")
        etas = [np.linalg.norm(_projected_state(r, e)) for e, _ in wit.terms]
        assert np.abs(np.array(etas) - 0.5).max() <= 1e-12


class TestConditions:
    @pytest.mark.parametrize(
        "name,a4", [("chsh", True), ("chained:2", True), ("chained:3", False),
                    ("chained:4", False), ("as4", False)]
    )
    def test_bipartite_verdicts(self, name, a4):
        _, _, ps = _structure(name)
        rep = check_conditions(ps)
        assert sorted(rep.verdicts) == ["A1", "A2", "A3", "A4"]
        for key in ("A1", "A2", "A3"):
            assert rep.verdicts[key], key
        assert rep.verdicts["A4"] == a4
        if not a4:
            assert "A4" in rep.reasons
        assert rep.evidence["A1"]["span_dim"] == 4
        search = rep.evidence["A2"]
        assert len(search["I_B"]) == 2 and len(search["I_A"]) == 2

    def test_tripartite_verdicts(self):
        _, _, ps = _structure("mermin")
        rep = check_conditions(ps)
        assert rep.verdicts == dict.fromkeys(["A5", "A6", "A7", "A8", "A9"], True)
        a5 = rep.evidence["A5"]
        assert a5["party_span_dims"] == (2, 2, 2)
        assert a5["joint_span_dim"] == 7
        assert a5["state_residual"] <= 1e-12
        a6 = rep.evidence["A6"]
        assert len(a6["I_A"]) == 2
        assert set(a6["I_BC"]) == set(a6["I_A"])
        assert all(len(rows) == 4 for rows in a6["I_BC"].values())
        assert a6["G_A_edges"]
        a7 = rep.evidence["A7"]
        assert len(a7["I_B"]) == 2
        assert all(len(v) == 2 for v in a7["I_C"].values())

    # The reference's condition report, read through run_selftest: verdicts
    # in key order, reasons, and evidence as JSON without the state residual.
    PINNED_REPORTS = {
        "chsh": (
            [("A1", True), ("A2", True), ("A3", True), ("A4", True)],
            {},
            {"A1": {"span_dim": 4},
             "A2": {"I_B": [0, 2], "I_A": {"0": [0, 2], "2": [1, 2]}, "edges": [[0, 2]]},
             "A4": [[[0, 1], [2, 3]], [[0, 1], [2, 3]]]},
        ),
        "chained:3": (
            [("A1", True), ("A2", True), ("A3", True), ("A4", False)],
            {"A4": "party 0 has no orthogonal pairing of 4 local kets"},
            {"A1": {"span_dim": 4},
             "A2": {"I_B": [0, 2], "I_A": {"0": [0, 2], "2": [2, 4]}, "edges": [[0, 2]]}},
        ),
        "chained:8": (
            [("A1", True), ("A2", True), ("A3", True), ("A4", False)],
            {"A4": "party 0 has no orthogonal pairing of 4 local kets"},
            {"A1": {"span_dim": 4},
             "A2": {"I_B": [0, 2], "I_A": {"0": [0, 2], "2": [2, 4]}, "edges": [[0, 2]]}},
        ),
        "mermin": (
            [("A5", True), ("A6", True), ("A7", True), ("A8", True), ("A9", True)],
            {},
            {"A5": {"party_span_dims": [2, 2, 2], "joint_span_dim": 7},
             "A6": {"I_A": [0, 2],
                    "I_BC": {"0": [[0, 0], [1, 1], [2, 3], [3, 2]],
                             "2": [[0, 3], [1, 2], [2, 1], [3, 0]]},
                    "G_A_edges": [[0, 2]],
                    "linked_triples": {"(0, 2)": [1, 5, 9]}},
             "A7": {"I_B": [0, 2], "I_C": {"0": [0, 3], "2": [1, 3]}, "G_B_edges": [[0, 2]]},
             "A9": [[[0, 1], [2, 3]], [[0, 1], [2, 3]], [[0, 1], [2, 3]]]},
        ),
        "as4": (
            [("A1", True), ("A2", True), ("A3", True), ("A4", False)],
            {"A4": "party 0 has no orthogonal pairing of 4 local kets"},
            {"A1": {"span_dim": 4},
             "A2": {"I_B": [0, 2], "I_A": {"0": [0, 2], "2": [0, 2]}, "edges": [[0, 2]]}},
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_reports_pinned(self, name):
        wit, r, _ = _structure(name)
        rep = run_selftest(wit, r, r).conditions
        evidence = jsonable(rep.evidence)
        for key in ("A1", "A5"):
            evidence.get(key, {}).pop("state_residual", None)
        verdicts, reasons, want_evidence = self.PINNED_REPORTS[name]
        assert list(rep.verdicts.items()) == verdicts
        assert list(rep.reasons.items()) == list(reasons.items())
        assert list(evidence) == list(want_evidence)
        assert evidence == want_evidence

    @pytest.mark.parametrize("name", ["chsh", "chained:3", "chained:8", "mermin", "as4"])
    def test_invariant_under_local_unitaries(self, name):
        # 20 draws per scenario from a fixed generator: Haar-random local
        # unitaries on the reference leave every verdict, reason and piece of
        # evidence unchanged, the state residual's rounding aside.
        wit, r, ps = _structure(name)

        def report(ps):
            d = jsonable(check_conditions(ps))
            for key in ("A1", "A5"):
                d["evidence"].get(key, {}).pop("state_residual", None)
            return d

        want = report(ps)
        rng = np.random.default_rng(7)
        for _ in range(20):
            us = [haar_isometry(rng, d, d) for d in r.dims]
            assert report(_structure_of(embedded_candidate(r, us), wit)) == want

    # References whose first party measures one basis at both settings: its
    # kets have no intermediate overlap, so the condition search finds no
    # family and extraction has no block to build on.  Every event keeps a
    # positive probability.
    def test_commuting_bipartite_reference(self):
        wit = builtin_witness("chsh")
        z, p = ((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (1.0, -1.0))
        ref = _rank_one_realization((2, 2), [1.0, 0.0, 0.0, 1.0], ((z, z), (p, p)))
        rep = check_conditions(_structure_of(ref, wit))
        assert rep.verdicts == {"A1": True, "A2": False, "A3": True, "A4": True}
        assert rep.reasons == {"A2": "no index family of the required sizes spans "
                                     "both sides with a connected overlap graph"}
        with pytest.raises(PreconditionError) as exc:
            run_selftest(wit, ref, ref)
        assert str(exc.value) == "party 0 has no pair of reference kets with intermediate overlap"

    # With party 1 commuting instead, A6's family is found on party 0 and
    # A7's search on it finds nothing.
    @pytest.mark.parametrize("party,a6,reasons", [
        (0, False, {"A6": "no spanning first-party family with a connected linked-triple graph",
                    "A7": "searched only after A6"}),
        (1, True, {"A7": "no spanning index family on the second/third factors"}),
    ])
    def test_commuting_tripartite_reference(self, party, a6, reasons):
        wit = builtin_witness("mermin")
        mermin = reference_realization("mermin")
        flipped = ((0.0, 1.0), (1.0, 0.0))
        kets = tuple((flipped, flipped) if j == party else k for j, k in enumerate(mermin.kets))
        ref = _rank_one_realization(mermin.dims, mermin.state, kets)
        rep = check_conditions(_structure_of(ref, wit))
        assert rep.verdicts == {"A5": True, "A6": a6, "A7": False, "A8": True, "A9": True}
        assert rep.reasons == reasons
        with pytest.raises(PreconditionError) as exc:
            run_selftest(wit, ref, ref)
        assert str(exc.value) == (
            f"party {party} has no pair of reference kets with intermediate overlap"
        )

    # Each party padded into a qutrit: the reference's kets and state keep
    # their qubit span, so the span conditions and the qubit condition fail.
    def test_padded_bipartite_reference(self):
        wit = builtin_witness("chsh")
        ref = padded_candidate(reference_realization("chsh"))
        rep = check_conditions(_structure_of(ref, wit))
        assert rep.verdicts == {"A1": False, "A2": False, "A3": False, "A4": True}
        assert rep.reasons["A1"] == "event vectors and state span 4 < 9 dims"
        assert rep.reasons["A3"] == "ideal dimensions are 3 x 3"

    def test_padded_tripartite_reference(self):
        # The residual's digits come from rounding, so only the prefix is pinned.
        wit = builtin_witness("mermin")
        ref = padded_candidate(reference_realization("mermin"))
        rep = check_conditions(_structure_of(ref, wit))
        assert rep.verdicts == {"A5": False, "A6": False, "A7": False, "A8": False, "A9": True}
        assert rep.reasons["A5"].startswith("party span dims [2, 2, 2], state residual ")
        assert rep.reasons["A8"] == "ideal dimensions are (3, 3, 3)"

    def test_condition_report_json(self):
        _, _, ps = _structure("chained:3")
        rep = check_conditions(ps)
        d = jsonable(rep)
        assert d["verdicts"]["A4"] is False
        assert isinstance(d["reasons"]["A4"], str)


class TestRankOneExtraction:
    @pytest.mark.parametrize("name", ALL_NAMES + ["chained:8"])
    def test_identity_candidate_accepted(self, name):
        wit, r, _ = _structure(name)
        report = run_selftest(wit, r, r)
        assert report.state_residual <= 1e-9
        assert report.vector_residuals.max() <= 1e-9
        assert report.junk_dims == (1,) * len(r.dims)
        for v, d in zip(report.isometries, r.dims):
            assert np.abs(v - np.eye(d)).max() <= 1e-12
        assert np.abs(report.junk - [1.0]).max() <= 1e-12
        _assert_oracle_accepts(r, r, report)

    def test_nan_candidate_never_verifies(self, monkeypatch):
        # A NaN state makes the oracle's residuals NaN, which hold no claim.
        # run_selftest refuses the NaN state as input, and its acceptance
        # test refuses a NaN residual wherever it sits.
        wit, r, _ = _structure("chsh")
        report = run_selftest(wit, r, r)
        state = np.full_like(np.asarray(r.state, dtype=complex), np.nan)
        cand = Realization(r.dims, state, r.projectors, r.kets)
        assert not _oracle_max(r, cand, report) <= 1e-7
        with pytest.raises(ValueError, match="non-finite"):
            run_selftest(wit, r, cand)
        for k, name in enumerate(["isometry deviation", "state residual", "event 0 residual"]):
            res = np.zeros(10)
            res[k] = np.nan
            monkeypatch.setattr(
                selftest, "_claim_residuals", lambda *args, res=res: (res[0], res[1], res[2:])
            )
            with pytest.raises(NotOptimizerError, match=f"{name} nan exceeds the tolerance 1e-07"):
                run_selftest(wit, r, r)

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rotated_candidate_accepted(self, name, seed):
        wit, r, _ = _structure(name)
        cand = rotated_candidate(r, seed)
        report = run_selftest(wit, r, cand)
        assert report.vector_residuals.max() <= 1e-8
        _assert_oracle_accepts(r, cand, report)

    @pytest.mark.parametrize("name", ["chsh", "mermin", "as4"])
    def test_padded_candidate_accepted(self, name):
        wit, r, _ = _structure(name)
        cand = padded_candidate(r, extra=2, seed=11)
        report = run_selftest(wit, r, cand)
        _assert_oracle_accepts(r, cand, report)
        for v, cd, rd in zip(report.isometries, cand.dims, r.dims):
            assert v.shape == (cd, rd)

    @pytest.mark.parametrize("name", ["chsh", "mermin"])
    def test_perturbed_candidate_rejected(self, name):
        wit, r, _ = _structure(name)
        cand = perturbed_candidate(r, angle=0.05)
        with pytest.raises(NotOptimizerError, match="Gram mismatch"):
            run_selftest(wit, r, cand)

    @pytest.mark.parametrize("rank", ["rank-one", "general"])
    @pytest.mark.parametrize("name", ["chsh", "mermin"])
    def test_candidate_within_default_tolerance_accepted(self, name, rank, monkeypatch):
        # A 4e-8 rotation moves the Gram matrix by 1.7e-8 (chsh) and 5e-9
        # (mermin): inside the 1e-7 acceptance tolerance that run_selftest and
        # the CLI share, for the Gram match and the claim residuals of every
        # rank; outside a 1e-9 one.
        wit, r, _ = _structure(name)
        cand = perturbed_candidate(r, angle=4e-8)
        if rank == "general":
            ancilla = np.zeros(2 ** len(r.dims), dtype=complex)
            ancilla[[0, -1]] = 0.8, 0.6
            cand = tensor_padded_candidate(cand, ancilla, k=2)
        report = run_selftest(wit, r, cand)
        _assert_oracle_accepts(r, cand, report, SELFTEST_TOL)
        monkeypatch.setattr(selftest, "SELFTEST_TOL", 1e-9)
        with pytest.raises(NotOptimizerError, match="Gram mismatch"):
            run_selftest(wit, r, cand)

    def test_residual_rejection_names_its_numbers(self, monkeypatch):
        # At SELFTEST_TOL = 0.03 the perturbed candidate passes the Gram
        # check (it is 2.2e-2 off) and is rejected by its claim residuals: the
        # state residual is 0.049979.  The message names the residual with
        # plain numbers, not numpy's repr.
        wit, r, _ = _structure("chsh")
        cand = perturbed_candidate(r, angle=0.05)
        monkeypatch.setattr(selftest, "SELFTEST_TOL", 0.03)
        with pytest.raises(NotOptimizerError) as exc:
            run_selftest(wit, r, cand)
        message = str(exc.value)
        assert "state residual 0.049979" in message
        assert message.endswith(" exceeds the tolerance 0.03")
        assert "np." not in message

    def test_isometry_check_uses_acceptance_tolerance(self, monkeypatch):
        # The reference as its own candidate, with every extracted isometry
        # scaled by 1 + 1e-9: an isometry deviation of 2e-9, accepted under
        # the default tolerance and refused under 1e-10 by the isometry
        # check itself (the unscaled claim passes 1e-10).
        wit, r, _ = _structure("chained:3")
        extract = selftest._general_isometries

        def scaled(ps, cand):
            isometries, junk, junk_dims = extract(ps, cand)
            return tuple(v * (1 + 1e-9) for v in isometries), junk, junk_dims

        monkeypatch.setattr(selftest, "_general_isometries", scaled)
        run_selftest(wit, r, r)
        monkeypatch.setattr(selftest, "SELFTEST_TOL", 1e-10)
        with pytest.raises(NotOptimizerError) as exc:
            run_selftest(wit, r, r)
        assert str(exc.value).startswith("isometry deviation")
        monkeypatch.setattr(selftest, "_general_isometries", extract)
        run_selftest(wit, r, r)

    def test_qutrit_reference_rejected_by_its_residuals(self):
        # Two qutrits measured in the computational and Fourier bases on the
        # maximally entangled state, one event per nonzero probability (24):
        # it satisfies A1 and A2 and fails A3.  The conditions refuse nothing:
        # the block construction builds qubit maps, and the claim residuals
        # reject them.
        omega = np.exp(2j * np.pi / 3)
        bases = (np.eye(3, dtype=complex),
                 np.array([[omega ** (a * k) for k in range(3)] for a in range(3)]) / np.sqrt(3))
        party_kets = tuple(tuple(b) for b in bases)
        party_projs = tuple(tuple(np.outer(k, k.conj()) for k in b) for b in party_kets)
        state = np.eye(3, dtype=complex).reshape(-1) / np.sqrt(3)
        r = Realization((3, 3), state, (party_projs, party_projs), (party_kets, party_kets))
        events = []
        for x, y, a, b in itertools.product(range(2), range(2), range(3), range(3)):
            amp = np.vdot(np.kron(bases[x][a], bases[y][b]), state)
            if abs(amp) > 1e-9:
                events.append((Event(outcomes=(a, b), settings=(x, y)), 1.0))
        assert len(events) == 24
        wit = BellWitness(tuple(events), 2.0)
        conditions = check_conditions(_structure_of(r, wit))
        assert conditions.verdicts == {"A1": True, "A2": True, "A3": False, "A4": False}
        with pytest.raises(NotOptimizerError, match="^isometry deviation"):
            run_selftest(wit, r, r)

    def test_witness_value_drop_of_rejected_candidate(self):
        wit, r, _ = _structure("chsh")
        cand = perturbed_candidate(r, angle=0.05)
        value, _ = evaluate_witness(wit, cand)
        ref_value, _ = evaluate_witness(wit, r)
        assert value < ref_value - 1e-4  # strictly suboptimal candidate


class TestLocallyEquivalentCandidates:
    # 30 draws per scenario, 180 in all: each party gets a complex Haar
    # unitary (extra 0) or a Haar isometric embedding into 1 or 2 more
    # dimensions, drawn per party (the third entry is unused by two parties).
    @pytest.mark.parametrize("name", ALL_NAMES)
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        extras=st.lists(st.integers(0, 2), min_size=3, max_size=3),
    )
    def test_accepted_and_verified(self, name, seed, extras):
        wit, r, _ = _structure(name)
        rng = np.random.default_rng(seed)
        ws = [haar_isometry(rng, d + k, d) for d, k in zip(r.dims, extras)]
        cand = embedded_candidate(r, ws)
        report = run_selftest(wit, r, cand)
        _assert_oracle_accepts(r, cand, report)
        assert report.state_residual <= 1e-8
        assert report.vector_residuals.max() <= 1e-8


class TestGeneralRankExtraction:
    def test_chsh_recovers_entangled_ancilla(self):
        wit, r, _ = _structure("chsh")
        ancilla = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
        cand = tensor_padded_candidate(r, ancilla, k=2)
        assert not candidate_is_rank_one(cand)
        report = run_selftest(wit, r, cand)
        assert report.junk_dims == (2, 2)
        _assert_oracle_accepts(r, cand, report)
        schmidt = np.linalg.svd(report.junk.reshape(2, 2), compute_uv=False)
        assert np.abs(np.sort(schmidt) - [0.6, 0.8]).max() <= 1e-7

    def test_mermin_recovers_ghz_ancilla(self):
        wit, r, _ = _structure("mermin")
        ancilla = np.zeros(8, dtype=complex)
        ancilla[0] = 0.8
        ancilla[7] = 0.6
        cand = tensor_padded_candidate(r, ancilla, k=2)
        report = run_selftest(wit, r, cand)
        assert report.junk_dims == (2, 2, 2)
        _assert_oracle_accepts(r, cand, report)
        j = report.junk.reshape(2, 2, 2)
        for axis in range(3):
            rho = np.tensordot(
                np.moveaxis(j, axis, 0).reshape(2, 4),
                np.moveaxis(j, axis, 0).reshape(2, 4).conj(),
                axes=([1], [1]),
            )
            spectrum = np.sort(np.linalg.eigvalsh(rho))
            assert np.abs(spectrum - [0.36, 0.64]).max() <= 1e-7

    def test_product_ancilla_gives_product_junk(self):
        wit, r, _ = _structure("chsh")
        ancilla = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        cand = tensor_padded_candidate(r, ancilla, k=2)
        report = run_selftest(wit, r, cand)
        _assert_oracle_accepts(r, cand, report)
        schmidt = np.linalg.svd(report.junk.reshape(2, 2), compute_uv=False)
        assert np.abs(np.sort(schmidt) - [0.0, 1.0]).max() <= 1e-7

    @pytest.mark.parametrize(
        "name,ancilla",
        [("chsh", [0.8, 0.0, 0.0, 0.6]), ("mermin", [0.8] + [0.0] * 6 + [0.6])],
    )
    def test_perturbed_ancilla_candidate_rejected(self, name, ancilla):
        wit, r, _ = _structure(name)
        cand = tensor_padded_candidate(
            perturbed_candidate(r, 0.05), np.array(ancilla, dtype=complex), k=2
        )
        assert not candidate_is_rank_one(cand)
        with pytest.raises(NotOptimizerError, match="Gram mismatch"):
            run_selftest(wit, r, cand)

    # Each party of an ancilla-padded candidate conjugated by a complex Haar
    # unitary: the phase gauge of the assembled isometries must reach the junk.
    @pytest.mark.parametrize(
        "name,ancilla",
        [("chsh", [0.8, 0.0, 0.0, 0.6]), ("mermin", [0.8] + [0.0] * 6 + [0.6])],
    )
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_haar_rotated_ancilla_candidate_accepted(self, name, ancilla, seed):
        wit, r, _ = _structure(name)
        padded = tensor_padded_candidate(r, np.array(ancilla, dtype=complex), k=2)
        rng = np.random.default_rng(seed)
        cand = embedded_candidate(padded, [haar_isometry(rng, d, d) for d in padded.dims])
        report = run_selftest(wit, r, cand)
        _assert_oracle_accepts(r, cand, report)
        assert report.state_residual <= 1e-8
        assert report.vector_residuals.max() <= 1e-8

    def test_candidate_differing_off_the_state_support_accepted(self):
        # chsh with a qubit register on each party, jointly in |00>: every
        # projector is P x |0><0| + P' x |1><1|, where P' = P except that
        # party 0's setting-1 projectors are rotated by 0.4 rad.  The state
        # never sees P', and a self-test certifies nothing there.
        wit, r, _ = _structure("chsh")
        c, s = np.cos(0.4), np.sin(0.4)
        rot = np.array([[c, -s], [s, c]], dtype=complex)
        on0, on1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        projs = tuple(
            tuple(
                tuple(
                    np.kron(p, on0) + np.kron(rot @ p @ rot.T if (j, x) == (0, 1) else p, on1)
                    for p in setting
                )
                for x, setting in enumerate(party)
            )
            for j, party in enumerate(r.projectors)
        )
        padded = tensor_padded_candidate(r, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
        cand = Realization(padded.dims, padded.state, projs, None)
        assert not candidate_is_rank_one(cand)
        report = run_selftest(wit, r, cand)
        assert report.junk_dims == (2, 2)
        _assert_oracle_accepts(r, cand, report)
        assert report.state_residual <= 1e-15
        assert report.vector_residuals.max() <= 1e-15

    @pytest.mark.parametrize("name", ["chsh", "mermin", "chained:3"])
    def test_incomplete_projectors_judged_by_residuals(self, name):
        # A qutrit register on each party, jointly in |0...0>: every projector
        # is P x diag(1, 1, 0), so a setting's projectors do not sum to the
        # identity.  The state never sees the register's |2>, and the claim
        # residuals accept; chained:3 still fails the pairing condition A4.
        wit, r, _ = _structure(name)
        ancilla = np.zeros(3 ** len(r.dims), dtype=complex)
        ancilla[0] = 1.0
        padded = tensor_padded_candidate(r, ancilla, k=3)
        restrict = np.kron(np.eye(2), np.diag([1.0, 1.0, 0.0]))
        projs = tuple(
            tuple(tuple(p @ restrict for p in setting) for setting in party)
            for party in padded.projectors
        )
        cand = Realization(padded.dims, padded.state, projs, None)
        assert not candidate_is_rank_one(cand)
        if name == "chained:3":
            with pytest.raises(PreconditionError, match=r"\['A4'\]"):
                run_selftest(wit, r, cand)
            return
        report = run_selftest(wit, r, cand)
        assert report.junk_dims == (2,) * len(r.dims)
        _assert_oracle_accepts(r, cand, report)

    def test_precondition_failure_names_condition(self):
        wit, r, _ = _structure("chained:3")
        ancilla = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        cand = tensor_padded_candidate(r, ancilla, k=2)
        with pytest.raises(PreconditionError, match="A4"):
            run_selftest(wit, r, cand)

    def test_classical_candidate_has_no_blocks(self):
        # Both parties measure Z and X on a maximally entangled pair, and the
        # witness keeps the four events at equal settings, which a classical
        # model reproduces: each party's local index 2a + s carries its Z
        # outcome a and its X outcome s, and the state is uniform over equal
        # indices.  The candidate has the reference's Gram matrix and
        # pairings, but its projectors commute, so they split into no
        # two-dimensional block.
        z, o, p, m = (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)
        ref = _rank_one_realization((2, 2), [1.0, 0.0, 0.0, 1.0], (((z, o), (p, m)),) * 2)
        wit = BellWitness(tuple((Event((a, a), (x, x)), 1.0) for x in (0, 1) for a in (0, 1)), 1.0)
        e = np.eye(4)
        projs = tuple(
            tuple(sum(np.outer(e[k], e[k]) for k in keys) for keys in outcomes)
            for outcomes in (((0, 1), (2, 3)), ((0, 2), (1, 3)))
        )
        cand = Realization((4, 4), e.reshape(-1) / 2, (projs, projs), None)
        assert not candidate_is_rank_one(cand)
        assert check_conditions(_structure_of(ref, wit)).verdicts["A4"]
        with pytest.raises(NotOptimizerError) as exc:
            run_selftest(wit, ref, cand)
        assert str(exc.value) == "party 0 has no intermediate-overlap blocks"


class TestVerifyClaim:
    def test_tampered_junk_fails(self):
        wit, r, _ = _structure("chsh")
        report = run_selftest(wit, r, r)
        tampered = type(report)(
            isometries=report.isometries,
            junk=report.junk * np.exp(0.3j),
            junk_dims=report.junk_dims,
            state_residual=report.state_residual,
            vector_residuals=report.vector_residuals,
            events=report.events,
            conditions=report.conditions,
        )
        assert _oracle_max(r, r, tampered) > 1e-7

    def test_tampered_isometry_fails(self):
        wit, r, _ = _structure("chsh")
        report = run_selftest(wit, r, r)
        bad = list(report.isometries)
        bad[0] = 1.1 * bad[0]
        tampered = type(report)(
            isometries=tuple(bad),
            junk=report.junk,
            junk_dims=report.junk_dims,
            state_residual=report.state_residual,
            vector_residuals=report.vector_residuals,
            events=report.events,
            conditions=report.conditions,
        )
        assert _oracle_max(r, r, tampered) > 1e-7

    @pytest.mark.parametrize("rank", ["rank-one", "general"])
    def test_report_residuals_are_the_claim_residuals(self, rank):
        wit, r, _ = _structure("chsh")
        if rank == "rank-one":
            cand = rotated_candidate(r, 0)
        else:
            cand = tensor_padded_candidate(r, np.array([0.8, 0.0, 0.0, 0.6], dtype=complex))
        report = run_selftest(wit, r, cand)
        _, state_res, vec_res = _claim_residuals(
            event_vectors(r, report.events),
            event_vectors(cand, report.events),
            r.dims,
            report.isometries,
            report.junk,
            report.junk_dims,
        )
        assert report.state_residual == state_res
        assert np.array_equal(report.vector_residuals, vec_res)

    @pytest.mark.parametrize("rank", ["rank-one", "general"])
    def test_each_event_table_is_built_once(self, monkeypatch, tmp_path, rank):
        # One ACCEPT through the command line builds the reference's and the
        # candidate's event table once each and measures the claim once.
        r = reference_realization("mermin")
        if rank == "rank-one":
            cand = rotated_candidate(r, 0)
        else:
            cand = tensor_padded_candidate(r, np.array([0.8] + [0.0] * 6 + [0.6], dtype=complex))
        path = tmp_path / "cand.json"
        path.write_text(json.dumps(realization_to_json_dict(cand)), encoding="utf-8")
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(selftest, "event_vectors", counted("table", event_vectors))
        monkeypatch.setattr(
            selftest, "_claim_residuals", counted("claim", selftest._claim_residuals)
        )
        code, out, _ = run_cli(["selftest", "--scenario", "mermin", "--candidate", str(path)])
        assert (code, out.splitlines()[-1]) == (0, "self-test: ACCEPT")
        assert calls == ["table", "table", "claim"]

    def test_report_json_is_serializable(self):
        wit, r, _ = _structure("chsh")
        report = run_selftest(wit, r, r)
        d = selftest_report_to_json_dict(report)
        json.dumps(d)
        assert d["junk_dims"] == [1, 1]
        assert len(d["events"]) == 8


class TestDispatch:
    def test_rank_one_detection(self):
        r = reference_realization("chsh")
        assert candidate_is_rank_one(r)
        cand = tensor_padded_candidate(r, np.array([1, 0, 0, 0], dtype=complex))
        assert not candidate_is_rank_one(cand)

    @pytest.mark.parametrize("parties", [1, 4])
    def test_unsupported_party_count(self, parties):
        if parties == 4:
            wit, r = mermin_witness(4), mermin_realization(4)
        else:
            wit = BellWitness(((Event((0,), (0,)), 1.0),), 1.0)
            k = np.array([1.0, 0.0], dtype=complex)
            party = ((np.outer(k, k), np.eye(2) - np.outer(k, k)),)
            r = Realization((2,), k, (party,), (((k, np.array([0.0, 1.0], dtype=complex)),),))
        with pytest.raises(ValueError, match="^self-testing supports two or three parties$"):
            run_selftest(wit, r, r)


class TestInterleave:
    def test_single_party(self):
        vec = np.array([1.0, 0.0])
        junk = np.array([0.0, 1.0])
        out = interleave_with_junk(vec[None], junk, (2,), (2,))[0]
        assert np.array_equal(out, [0.0, 1.0, 0.0, 0.0])

    def test_trivial_junk_is_identity(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = interleave_with_junk(vec[None], np.array([1.0 + 0j]), (2, 3), (1, 1))[0]
        assert np.abs(out - vec).max() == 0.0

    def test_two_party_ordering(self):
        # |ab> x |jk> -> |a j b k> index a*8 + j*4 + b*2 + k.
        vec = np.zeros(4)
        vec[0b10] = 1.0  # a=1, b=0
        junk = np.zeros(4)
        junk[0b01] = 1.0  # j=0, k=1
        out = interleave_with_junk(vec[None], junk, (2, 2), (2, 2))[0]
        want = np.zeros(16)
        want[0b1001] = 1.0
        assert np.array_equal(out, want)


    def test_each_row_is_interleaved(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        junk = rng.normal(size=8) + 1j * rng.normal(size=8)
        out = interleave_with_junk(vecs, junk, (2, 3), (4, 2))
        for vec, row in zip(vecs, out):
            want = np.einsum("ab,jk->ajbk", vec.reshape(2, 3), junk.reshape(4, 2))
            assert np.abs(row - want.reshape(-1)).max() <= 1e-15


class TestSevenDimensionalConfiguration:
    def test_shape_and_handle(self):
        v = MERMIN_SEVEN_DIM
        assert v.shape == (17, 7)
        assert np.array_equal(v[0], [1, 0, 0, 0, 0, 0, 0])
        assert np.abs(v[1:, 0] - 0.25).max() <= 1e-12

    def test_gram_rank_is_seven(self):
        v = MERMIN_SEVEN_DIM
        gram = v @ v.T
        assert _eig_rank(gram, 1e-2) == 7

    def test_matches_sixteen_event_optimizer(self):
        v = MERMIN_SEVEN_DIM
        assert np.abs(v @ v.T - reference_gram("mermin")).max() <= 5e-3

    def test_rows_follow_the_witness_events(self):
        # Row 1 + i is event i: the near-orthogonal pairs are the exclusive ones.
        v = MERMIN_SEVEN_DIM
        gram = (v @ v.T)[1:, 1:]
        i, j = np.triu_indices(16, 1)
        near = np.abs(gram[i, j]) < 0.06
        pattern = set(zip(i[near].tolist(), j[near].tolist()))
        assert pattern == set(exclusivity_graph(mermin_witness()).edges)


class TestOptimizerRanks:
    def test_bipartite_rank_four(self):
        assert _eig_rank(reference_gram("chsh"), 1e-8) == 4

    def test_tripartite_rank_seven(self):
        assert _eig_rank(reference_gram("mermin"), 1e-8) == 7
