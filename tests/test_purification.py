"""Tests for purification constructions and cut entanglement."""

import json

import numpy as np
import pytest

from purecorr.linalg import DimPair, multi_partial_trace, tensor_product
from purecorr.purification import (
    apply_ancilla_unitary,
    cut_entanglement,
    embed_ancilla,
    entanglement_campaign,
    factored_purification,
    purify,
    verify_purification_entanglement,
)
from purecorr.states import (
    BipartiteState,
    DensityMatrix,
    PureState,
    example_source_state,
    from_pure,
    ghz,
    random_density,
    random_product_state,
    random_pure,
    random_unitary,
)


def trace_out_ancillas(p):
    keep = [i for i, lab in enumerate(p.state.labels) if not lab.startswith("C")]
    return multi_partial_trace(p.state.density(), p.state.factor_dims, keep)


class TestPurify:
    def test_pure_input_has_trivial_ancilla(self):
        psi = random_pure(4, 3)
        p = purify(from_pure(psi))
        assert p.state.layout == (("AB", 4), ("C", 1))
        rep = cut_entanglement(p.state, ("AB",))
        assert rep.schmidt_rank == 1
        assert rep.entropy_bits <= 1e-12

    def test_maximally_mixed_qubit(self):
        p = purify(DensityMatrix(np.eye(2) / 2))
        rep = cut_entanglement(p.state, ("AB",))
        np.testing.assert_allclose(
            rep.schmidt_coefficients, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12
        )

    def test_source_state_entropy_one_bit(self):
        p = purify(example_source_state())
        assert p.state.layout == (("AB", 4), ("C", 2))
        rep = cut_entanglement(p.state, ("AB",))
        assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)
        assert rep.schmidt_rank == 2

    @pytest.mark.parametrize("dims,rank,seed", [
        ((2, 2), 4, 0),
        ((2, 2), 2, 1),
        ((2, 3), 6, 2),
        ((3, 3), 9, 3),
        ((3, 3), 1, 4),
    ])
    def test_roundtrip(self, dims, rank, seed):
        rho = random_density(DimPair(*dims), rank, seed)
        p = purify(rho)
        defect = np.linalg.norm(trace_out_ancillas(p) - rho.matrix)
        assert defect <= 1e-10

    def test_ancilla_dimension_is_rank(self):
        rho = random_density(DimPair(2, 2), 3, 9)
        assert purify(rho).state.layout[1] == ("C", 3)

    def test_deterministic(self):
        rho = random_density(DimPair(2, 2), 4, 6)
        np.testing.assert_array_equal(
            purify(rho).state.amplitudes, purify(rho).state.amplitudes
        )


class TestFactoredPurification:
    def test_pure_product_input(self):
        zero = DensityMatrix(np.diag([1.0, 0.0]))
        p = factored_purification(zero, zero)
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(p.state.amplitudes, expected, atol=1e-12)

    def test_mixed_times_pure(self):
        p = factored_purification(
            DensityMatrix(np.eye(2) / 2), DensityMatrix(np.diag([1.0, 0.0]))
        )
        assert cut_entanglement(p.state, ("A", "C1")).schmidt_rank == 1
        np.testing.assert_allclose(
            cut_entanglement(p.state, ("A",)).schmidt_coefficients,
            [np.sqrt(0.5), np.sqrt(0.5)],
            atol=1e-12,
        )
        # the B C2 block is exactly |00>
        bc = cut_entanglement(p.state, ("B", "C2"))
        assert bc.schmidt_rank == 1

    def test_total_dimension_is_square(self):
        a = random_density(DimPair(2, 1), 2, 0).state
        b = random_density(DimPair(2, 1), 2, 1).state
        p = factored_purification(a, b)
        assert p.state.dim == 16 == (a.dim * b.dim) ** 2

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_rank_one_and_recovery(self, seed):
        a = random_density(DimPair(2, 1), 2, seed).state
        b = random_density(DimPair(3, 1), 3, seed + 100).state
        p = factored_purification(a, b)
        rep = cut_entanglement(p.state, ("A", "C1"))
        assert rep.schmidt_rank == 1
        assert rep.entropy_bits <= 1e-12
        defect = np.linalg.norm(trace_out_ancillas(p) - np.kron(a.matrix, b.matrix))
        assert defect <= 1e-10


class TestEmbedAncilla:
    def test_preserves_recovery(self):
        rho = random_density(DimPair(2, 2), 4, 8)
        p = embed_ancilla(purify(rho), (4, 4))
        assert p.state.labels == ("A", "B", "C1", "C2")
        assert np.linalg.norm(trace_out_ancillas(p) - rho.matrix) <= 1e-10

    def test_rejects_too_small_ancilla(self):
        rho = random_density(DimPair(2, 2), 4, 8)
        with pytest.raises(ValueError, match="cannot hold rank"):
            embed_ancilla(purify(rho), (1, 2))

    def test_rejects_wrong_layout(self):
        rho = random_density(DimPair(2, 2), 4, 8)
        p = embed_ancilla(purify(rho), (4, 4))
        with pytest.raises(ValueError, match="layout"):
            embed_ancilla(p, (4, 4))


class TestApplyAncillaUnitary:
    def test_identity_is_noop(self):
        p = purify(example_source_state())
        q = apply_ancilla_unitary(p, np.eye(2))
        np.testing.assert_array_equal(q.state.amplitudes, p.state.amplitudes)

    @pytest.mark.parametrize("seed", range(5))
    def test_haar_unitary_preserves_reduction(self, seed):
        rho = random_density(DimPair(2, 2), 4, seed)
        p = purify(rho)
        q = apply_ancilla_unitary(p, random_unitary(4, seed + 50))
        assert np.linalg.norm(trace_out_ancillas(q) - rho.matrix) <= 1e-10

    def test_rejects_non_unitary(self):
        p = purify(example_source_state())
        with pytest.raises(ValueError, match="unitary"):
            apply_ancilla_unitary(p, np.ones((2, 2)))

    def test_rejects_dimension_mismatch(self):
        p = purify(example_source_state())
        with pytest.raises(ValueError, match="does not match"):
            apply_ancilla_unitary(p, np.eye(3))

    def test_can_entangle_factored_purification(self):
        # a factorable state has entangled purifications too: some seeded
        # ancilla unitary pushes the (A C1 | B C2) entropy above 0.1 bits
        half = DensityMatrix(np.eye(2) / 2)
        p = factored_purification(half, half)
        entropies = []
        for seed in range(50):
            q = apply_ancilla_unitary(p, random_unitary(4, seed))
            entropies.append(cut_entanglement(q.state, ("A", "C1")).entropy_bits)
        assert max(entropies) > 0.1


class TestCutEntanglement:
    def test_bell_pair(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = np.sqrt(0.5)
        psi = PureState(bell, (("A", 2), ("B", 2)))
        rep = cut_entanglement(psi, ("A",))
        np.testing.assert_allclose(
            rep.schmidt_coefficients, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15
        )
        assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)
        assert rep.entangled

    def test_ghz_cut_ab_c(self):
        rep = cut_entanglement(ghz(), ("A", "B"))
        assert rep.schmidt_rank == 2
        assert rep.entropy_bits == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_pure(2, rng).amplitudes
        b = random_pure(3, rng).amplitudes
        psi = PureState(np.kron(a, b), (("A", 2), ("B", 3)))
        rep = cut_entanglement(psi, ("A",))
        assert rep.schmidt_rank == 1
        assert not rep.entangled
        assert rep.entropy_bits <= 1e-12

    def test_cut_must_match_layout(self):
        with pytest.raises(ValueError, match="does not match"):
            cut_entanglement(ghz(), ("A", "X"))
        with pytest.raises(ValueError, match="nonempty"):
            cut_entanglement(ghz(), ())

    def test_squared_coefficients_sum_to_one(self):
        psi = random_pure(12, 5)
        psi = PureState(psi.amplitudes, (("A", 3), ("B", 4)))
        rep = cut_entanglement(psi, ("A",))
        assert np.sum(rep.schmidt_coefficients**2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_left_unitary_invariance(self, seed):
        psi = random_pure(12, seed)
        psi = PureState(psi.amplitudes, (("A", 3), ("B", 4)))
        before = cut_entanglement(psi, ("A",)).schmidt_coefficients
        u = random_unitary(3, seed + 7)
        rotated = (u @ psi.amplitudes.reshape(3, 4)).reshape(-1)
        after = cut_entanglement(
            PureState(rotated, psi.layout), ("A",)
        ).schmidt_coefficients
        assert np.max(np.abs(before - after)) <= 1e-10


class TestVerifyPurificationEntanglement:
    def test_source_state_all_trials_entangled(self):
        report = verify_purification_entanglement(example_source_state(), 100, 7)
        assert report.passed
        assert report.stats["factorable"] == 0.0
        assert report.stats["min_entropy_bits"] > 1e-3

    def test_product_state_has_unentangled_witness(self):
        rho = random_product_state(DimPair(2, 2), 3)
        report = verify_purification_entanglement(rho, 20, 11)
        assert report.passed
        assert report.stats["factorable"] == 1.0
        assert report.stats["identity_entropy_bits"] <= 1e-7
        # Haar trials still find entangled purifications of the same state
        assert report.stats["max_entropy_bits"] > 0.1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_nonfactorable_states(self, seed):
        rho = random_density(DimPair(2, 2), 4, seed)
        report = verify_purification_entanglement(rho, 10, seed + 30)
        assert report.passed
        assert report.stats["min_entropy_bits"] > 1e-3

    def test_deterministic_report(self):
        r1 = verify_purification_entanglement(example_source_state(), 5, 9)
        r2 = verify_purification_entanglement(example_source_state(), 5, 9)
        assert r1.to_json() == r2.to_json()

    def test_report_embeds_provenance(self):
        report = verify_purification_entanglement(example_source_state(), 2, 1)
        payload = json.loads(report.to_json())
        assert payload["generator"] == "numpy-PCG64"
        assert payload["seed"] == 1
        assert "rank_tol" in payload["tolerances"]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            verify_purification_entanglement(example_source_state(), 0, 1)


class TestEntanglementCampaign:
    def test_passes_and_is_deterministic(self):
        r1 = entanglement_campaign(DimPair(2, 2), 10, 7)
        r2 = entanglement_campaign(DimPair(2, 2), 10, 7)
        assert r1.passed
        assert r1.to_json() == r2.to_json()
        assert r1.stats["random_min_entropy_bits"] > 1e-3
        assert r1.stats["product_identity_entropy_bits"] <= 1e-7

    def test_asymmetric_and_larger_dims(self):
        assert entanglement_campaign(DimPair(2, 3), 3, 1).passed
        assert entanglement_campaign(DimPair(3, 3), 3, 2).passed


class TestPurificationInvariant:
    def test_constructor_rejects_wrong_original(self):
        from purecorr.purification import Purification

        p = purify(example_source_state())
        wrong = random_density(DimPair(2, 2), 4, 0)
        with pytest.raises(ValueError, match="misses the original"):
            Purification(p.state, wrong)

    def test_tensor_product_marginals_recover(self):
        # sanity for the helper used throughout this module
        a = random_density(DimPair(2, 1), 2, 0).state
        b = random_density(DimPair(2, 1), 2, 1).state
        p = factored_purification(a, b)
        np.testing.assert_allclose(
            trace_out_ancillas(p), tensor_product(a.matrix, b.matrix), atol=1e-12
        )
