"""Product structure, structural conditions, and isometry extraction tests."""

import numpy as np
import pytest
from conftest import (
    padded_candidate,
    perturbed_candidate,
    rotated_candidate,
    tensor_padded_candidate,
)

from theta_selftest import (
    BellWitness,
    NotOptimizerError,
    PreconditionError,
    Realization,
    builtin_witness,
    chsh_primal_matrix,
    evaluate_witness,
    mermin_primal_matrix,
    mermin_seven_dim_check,
    reference_realization,
    run_selftest,
    seven_dim_vectors,
)
from theta_selftest.scenarios import BellScenario, Event, event_projectors, kron_all
from theta_selftest.selftest import (
    SELFTEST_TOL,
    _claim_residuals,
    candidate_is_rank_one,
    check_bipartite_conditions,
    check_projector_condition_C1,
    check_tripartite_conditions,
    condition_report_to_json_dict,
    interleave_with_junk,
    product_structure_from_realization,
    selftest_report_to_json_dict,
    verify_selftest_claim,
)

ALL_NAMES = ["chsh", "chained:2", "chained:3", "chained:4", "mermin", "as4"]


def _structure(name):
    wit = builtin_witness(name)
    r = reference_realization(name)
    events = tuple(e for e, _ in wit.terms)
    return wit, r, product_structure_from_realization(r, events)


def _projected_state(r, e) -> np.ndarray:
    return kron_all(event_projectors(r, e)) @ np.asarray(r.state, dtype=complex)


def _eig_rank(m: np.ndarray, threshold: float) -> int:
    return int(np.sum(np.linalg.eigvalsh(m) > threshold))


class TestProductStructure:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_reconstructs_projected_states(self, name):
        wit, r, ps = _structure(name)
        assert ps.party_count == wit.scenario.parties
        assert ps.dims == r.dims
        for i, (e, _) in enumerate(wit.terms):
            target = _projected_state(r, e)
            target = target / np.linalg.norm(target)
            assert np.linalg.norm(ps.product_vector(i) - target) <= 1e-10
            assert abs(abs(ps.phases[i]) - 1.0) <= 1e-12

    def test_locals_are_unit_vectors(self):
        _, _, ps = _structure("as4")
        for party in ps.locals_:
            for k in party:
                assert abs(np.linalg.norm(k) - 1.0) <= 1e-12

    def test_mermin_etas_are_uniform(self):
        # eta_i = |Pi_i psi| is 1/2 for each of the 16 GHZ events.
        wit, r, _ = _structure("mermin")
        etas = [np.linalg.norm(_projected_state(r, e)) for e, _ in wit.terms]
        assert np.abs(np.array(etas) - 0.5).max() <= 1e-12


class TestConditions:
    BIPARTITE_KEYS = ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"]

    @pytest.mark.parametrize(
        "name,a4", [("chsh", True), ("chained:2", True), ("chained:3", False),
                    ("chained:4", False), ("as4", False)]
    )
    def test_bipartite_verdicts(self, name, a4):
        _, _, ps = _structure(name)
        rep = check_bipartite_conditions(ps)
        for key in ("A1", "A2", "A3", "B1", "B2", "B3", "B4"):
            assert rep.verdicts[key], key
        assert rep.verdicts["A4"] == a4
        if not a4:
            assert "A4" in rep.reasons
        assert rep.evidence["A1"]["span_dim"] == 4
        search = rep.evidence["A2"]
        assert len(search["I_B"]) == 2 and len(search["I_A"]) == 2

    def test_tripartite_verdicts(self):
        _, _, ps = _structure("mermin")
        rep = check_tripartite_conditions(ps)
        assert rep.all_true(["A5", "A6", "A7", "A8", "A9"])
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

    def test_party_count_guards(self):
        _, _, ps2 = _structure("chsh")
        _, _, ps3 = _structure("mermin")
        with pytest.raises(ValueError):
            check_bipartite_conditions(ps3)
        with pytest.raises(ValueError):
            check_tripartite_conditions(ps2)

    def test_projector_completeness_detects_violation(self):
        _, r, ps = _structure("chsh")
        assert check_projector_condition_C1(r, ps)
        mats = [[[np.array(p) for p in s] for s in party] for party in r.projectors]
        mats[0][0][1] = mats[0][0][0]  # no longer sums to identity
        broken = Realization(
            r.dims, r.state,
            tuple(tuple(tuple(s) for s in party) for party in mats),
        )
        assert not check_projector_condition_C1(broken, ps)

    def test_condition_report_json(self):
        _, _, ps = _structure("chained:3")
        rep = check_bipartite_conditions(ps)
        d = condition_report_to_json_dict(rep)
        assert d["verdicts"]["A4"] is False
        assert isinstance(d["reasons"]["A4"], str)


class TestRankOneExtraction:
    @pytest.mark.parametrize("name", ALL_NAMES + ["chained:8"])
    def test_identity_candidate_accepted(self, name):
        wit, r, _ = _structure(name)
        report = run_selftest(wit, r, r)
        assert report.state_residual <= 1e-9
        assert report.vector_residuals.max() <= 1e-9
        assert report.junk_dims == (1,) * wit.scenario.parties
        for v, d in zip(report.isometries, r.dims):
            assert np.abs(v - np.eye(d)).max() <= 1e-12
        assert np.abs(report.junk - [1.0]).max() <= 1e-12
        assert verify_selftest_claim(r, r, report, 1e-7)

    def test_nan_candidate_never_verifies(self):
        # The claim check runs on its own inputs: a NaN residual must fail it.
        wit, r, _ = _structure("chsh")
        report = run_selftest(wit, r, r)
        state = np.full_like(np.asarray(r.state, dtype=complex), np.nan)
        cand = Realization(r.dims, state, r.projectors, r.kets)
        assert not verify_selftest_claim(r, cand, report, 1e-7)

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rotated_candidate_accepted(self, name, seed):
        wit, r, _ = _structure(name)
        cand = rotated_candidate(r, seed)
        report = run_selftest(wit, r, cand)
        assert report.vector_residuals.max() <= 1e-8
        assert verify_selftest_claim(r, cand, report, 1e-7)

    @pytest.mark.parametrize("name", ["chsh", "mermin", "as4"])
    def test_padded_candidate_accepted(self, name):
        wit, r, _ = _structure(name)
        cand = padded_candidate(r, extra=2, seed=11)
        report = run_selftest(wit, r, cand)
        assert verify_selftest_claim(r, cand, report, 1e-7)
        for v, cd, rd in zip(report.isometries, cand.dims, r.dims):
            assert v.shape == (cd, rd)

    @pytest.mark.parametrize("name", ["chsh", "mermin"])
    def test_perturbed_candidate_rejected(self, name):
        wit, r, _ = _structure(name)
        cand = perturbed_candidate(r, angle=0.05)
        with pytest.raises(NotOptimizerError, match="Gram mismatch"):
            run_selftest(wit, r, cand)

    def test_candidate_within_default_tolerance_accepted(self):
        # A 4e-8 rotation moves the Gram matrix by 1.7e-8: inside the 1e-7
        # acceptance tolerance that run_selftest and the CLI share.
        wit, r, _ = _structure("chsh")
        cand = perturbed_candidate(r, angle=4e-8)
        report = run_selftest(wit, r, cand)
        assert verify_selftest_claim(r, cand, report, SELFTEST_TOL)

    def test_witness_value_drop_of_rejected_candidate(self):
        wit, r, _ = _structure("chsh")
        cand = perturbed_candidate(r, angle=0.05)
        value, _ = evaluate_witness(wit, cand)
        ref_value, _ = evaluate_witness(wit, r)
        assert value < ref_value - 1e-4  # strictly suboptimal candidate


class TestGeneralRankExtraction:
    def test_chsh_recovers_entangled_ancilla(self):
        wit, r, _ = _structure("chsh")
        ancilla = np.array([0.8, 0.0, 0.0, 0.6], dtype=complex)
        cand = tensor_padded_candidate(r, ancilla, k=2)
        assert not candidate_is_rank_one(cand)
        report = run_selftest(wit, r, cand)
        assert report.junk_dims == (2, 2)
        assert verify_selftest_claim(r, cand, report, 1e-7)
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
        assert verify_selftest_claim(r, cand, report, 1e-7)
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
        assert verify_selftest_claim(r, cand, report, 1e-7)
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

    def test_precondition_failure_names_condition(self):
        wit, r, _ = _structure("chained:3")
        ancilla = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        cand = tensor_padded_candidate(r, ancilla, k=2)
        with pytest.raises(PreconditionError, match="A4"):
            run_selftest(wit, r, cand)


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
        assert not verify_selftest_claim(r, r, tampered, 1e-7)

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
        assert not verify_selftest_claim(r, r, tampered, 1e-7)

    @pytest.mark.parametrize("rank", ["rank-one", "general"])
    def test_report_residuals_are_the_claim_residuals(self, rank):
        wit, r, _ = _structure("chsh")
        if rank == "rank-one":
            cand = rotated_candidate(r, 0)
        else:
            cand = tensor_padded_candidate(r, np.array([0.8, 0.0, 0.0, 0.6], dtype=complex))
        report = run_selftest(wit, r, cand)
        _, state_res, vec_res = _claim_residuals(
            r, cand, report.isometries, report.junk, report.junk_dims, report.events
        )
        assert report.state_residual == state_res
        assert np.array_equal(report.vector_residuals, vec_res)

    def test_report_json_is_serializable(self):
        import json

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

    def test_unsupported_party_count(self):
        sc = BellScenario(1, (1,), (2,))
        wit = BellWitness(sc, ((Event((0,), (0,)), 1.0),), 1.0)
        k = np.array([1.0, 0.0], dtype=complex)
        party = ((np.outer(k, k), np.eye(2) - np.outer(k, k)),)
        r = Realization((2,), k, (party,), (((k, np.array([0.0, 1.0], dtype=complex)),),))
        with pytest.raises(ValueError):
            run_selftest(wit, r, r)


class TestInterleave:
    def test_single_party(self):
        vec = np.array([1.0, 0.0])
        junk = np.array([0.0, 1.0])
        out = interleave_with_junk(vec, junk, (2,), (2,))
        assert np.array_equal(out, [0.0, 1.0, 0.0, 0.0])

    def test_trivial_junk_is_identity(self):
        rng = np.random.default_rng(0)
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = interleave_with_junk(vec, np.array([1.0 + 0j]), (2, 3), (1, 1))
        assert np.abs(out - vec).max() == 0.0

    def test_two_party_ordering(self):
        # |ab> x |jk> -> |a j b k> index a*8 + j*4 + b*2 + k.
        vec = np.zeros(4)
        vec[0b10] = 1.0  # a=1, b=0
        junk = np.zeros(4)
        junk[0b01] = 1.0  # j=0, k=1
        out = interleave_with_junk(vec, junk, (2, 2), (2, 2))
        want = np.zeros(16)
        want[0b1001] = 1.0
        assert np.array_equal(out, want)


class TestSevenDimensionalConfiguration:
    def test_shape_and_handle(self):
        v = seven_dim_vectors()
        assert v.shape == (17, 7)
        assert np.array_equal(v[0], [1, 0, 0, 0, 0, 0, 0])
        assert np.abs(v[1:, 0] - 0.25).max() <= 1e-12

    def test_gram_rank_is_seven(self):
        v = seven_dim_vectors()
        gram = v @ v.T
        assert _eig_rank(gram, 1e-2) == 7

    def test_matches_sixteen_event_optimizer(self):
        assert mermin_seven_dim_check() <= 5e-3


class TestOptimizerRanks:
    def test_bipartite_rank_four(self):
        assert _eig_rank(chsh_primal_matrix(), 1e-8) == 4

    def test_tripartite_rank_seven(self):
        assert _eig_rank(mermin_primal_matrix(), 1e-8) == 7
