"""Tests for purification constructions and cut entanglement."""

import json
import math

import numpy as np
import pytest

from purecorr import purification
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
    random_isometry,
    random_pure,
    random_unitary,
)


@pytest.mark.parametrize("dims,seed", [((1, 1), 1), ((2, 2), 1), ((2, 2), 0)])
def test_campaign_entropies_are_never_negative_or_negative_zero(dims, seed):
    # 1x1 (seed 1) printed -0.0 and -6.4e-16 bits; 2x2 product trials printed
    # 3.2e-16 (seed 1) and -6.4e-16 (seed 0) bits
    report = entanglement_campaign(DimPair(*dims), 2, seed)
    stats = {k: v for k, v in report.stats.items() if k.endswith("entropy_bits")}
    assert stats
    for key, value in stats.items():
        assert math.copysign(1.0, value) == 1.0, key
    # every 1x1 trial is a product; elsewhere the factored purification is
    zero = [k for k in stats if dims == (1, 1) or k == "product_identity_entropy_bits"]
    assert zero and all(stats[k] == 0.0 for k in zero)


def accepted_within_tolerance(defect, scale):
    """``random_density((2, 2), 4, 1)`` times ``scale``, with ``defect`` added
    at [0, 1] and subtracted at [1, 0]: moved by what the constructor accepts.

    A defect of 1e-10 used to make the recovery check miss by 2.0e-10; a
    scale of 1 + 2e-10, and so a trace of 1 + 2e-10, by 1.3e-10.
    """
    rho = random_density(DimPair(2, 2), 4, 1).matrix * scale
    rho[0, 1] += defect
    rho[1, 0] -= defect
    return BipartiteState(DensityMatrix(rho), DimPair(2, 2))


WITHIN_TOLERANCE = pytest.mark.parametrize("defect, scale", [
    pytest.param(1e-10, 1.0, id="hermitian-defect"),
    *(pytest.param(0.0, 1 + x, id=f"trace{x:+g}") for x in (2e-10, -2e-10, 9e-10, -9e-10)),
])


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

    def test_keeps_small_genuine_eigenvalue(self):
        # an eigenvalue of 5e-10 is far above rounding; zeroing it missed
        # the state by 5.9e-10, beyond the recovery check's 1e-10
        u = random_unitary(4, 1)
        lam = np.array([0.5, 0.3, 0.2 - 5e-10, 5e-10])
        rho = BipartiteState(DensityMatrix((u * lam) @ u.conj().T), DimPair(2, 2))
        p = purify(rho)
        assert p.ancilla_dim == 4
        assert np.linalg.norm(trace_out_ancillas(p) - rho.matrix) <= 1e-10

    @WITHIN_TOLERANCE
    def test_purifies_states_accepted_within_tolerance(self, defect, scale):
        rho = accepted_within_tolerance(defect, scale)
        recovered = trace_out_ancillas(purify(rho))
        assert np.linalg.norm(recovered - rho.matrix / np.trace(rho.matrix).real) <= 1e-10

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="PSD_TOL admits eigenvalues that RECOVERY_TOL cannot meet")
    def test_purifies_every_accepted_state(self):
        # DensityMatrix accepts eigenvalues down to -PSD_TOL = -1e-9, but no
        # purification comes closer to this state than 5.9e-10 while the
        # recovery check allows RECOVERY_TOL = 1e-10
        u = random_unitary(4, 1)
        lam = np.array([0.5, 0.3, 0.2 + 5e-10, -5e-10])
        rho = BipartiteState(DensityMatrix((u * lam) @ u.conj().T), DimPair(2, 2))
        p = purify(rho)
        assert np.linalg.norm(trace_out_ancillas(p) - rho.matrix) <= 1e-10


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

    def test_rejects_empty_ancilla_factor(self):
        p = purify(random_density(DimPair(2, 2), 4, 8))
        with pytest.raises(ValueError, match=r"^ancilla dimensions must be >= 1, got \(0, 4\)$"):
            embed_ancilla(p, (0, 4))

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
        with pytest.raises(ValueError, match="does not match"):
            apply_ancilla_unitary(p, np.eye(2, 3))

    @pytest.mark.parametrize("dims,rank,seed", [
        ((2, 2), 4, 0), ((2, 2), 2, 1), ((2, 3), 3, 2), ((3, 3), 5, 3),
    ])
    def test_isometry_matches_unitary_on_padded_base(self, dims, rank, seed):
        rho = random_density(DimPair(*dims), rank, seed)
        n = rho.dims.total
        base = embed_ancilla(purify(rho), (n, n))
        u = random_unitary(n * n, seed + 10)
        full = apply_ancilla_unitary(base, u)
        thin = apply_ancilla_unitary(base, u[:, :rank])
        assert np.max(np.abs(full.state.amplitudes - thin.state.amplitudes)) <= 1e-13

    def test_rejects_non_isometry(self):
        base = embed_ancilla(purify(example_source_state()), (2, 2))
        with pytest.raises(ValueError, match="unitary"):
            apply_ancilla_unitary(base, np.ones((4, 2)))
        with pytest.raises(ValueError, match="unitary"):
            apply_ancilla_unitary(base, 2 * random_isometry(4, 2, 1))

    def test_rejects_isometry_missing_amplitude(self):
        # the spectral purification of a rank-2 state fills two ancilla
        # basis states; an isometry on the first one alone would drop half
        base = embed_ancilla(purify(example_source_state()), (2, 2))
        with pytest.raises(ValueError, match="amplitude outside"):
            apply_ancilla_unitary(base, random_isometry(4, 1, 1))
        rotated = apply_ancilla_unitary(base, random_unitary(4, 2))
        with pytest.raises(ValueError, match="amplitude outside"):
            apply_ancilla_unitary(rotated, random_isometry(4, 2, 3))

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

    def test_product_state_entropy_is_exactly_zero(self):
        # the top squared coefficient rounds to within an ulp or two of 1,
        # which used to leave +-1e-16 bits (or -0.0) of pure noise
        for da, db in [(1, 1), (2, 2), (2, 3), (3, 3)]:
            for seed in range(8):
                p = factored_purification(
                    *(random_product_state(DimPair(da, db), seed).marginal(k) for k in "AB")
                )
                rep = cut_entanglement(p.state, ("A", "C1"))
                assert math.copysign(1.0, rep.entropy_bits) == 1.0
                assert rep.entropy_bits == 0.0

    def test_weak_entanglement_is_still_counted(self):
        delta = 1e-6  # squared coefficients 1 - 1e-12 and 1e-12
        amps = np.zeros(4)
        amps[0], amps[3] = math.sqrt(1 - delta**2), delta
        rep = cut_entanglement(PureState(amps, (("A", 2), ("B", 2))), ("A",))
        p = delta**2
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert rep.entropy_bits == pytest.approx(expected, rel=1e-3)

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

    @WITHIN_TOLERANCE
    def test_states_accepted_within_tolerance(self, defect, scale):
        rho = accepted_within_tolerance(defect, scale)
        assert verify_purification_entanglement(rho, 3, 1).passed

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

    def test_eight_by_eight(self):
        # 4096-dimensional ancilla: only the rank-64 support is sampled
        assert entanglement_campaign(DimPair(8, 8), 1, 3).passed

    def test_state_with_smallest_eigenvalue_near_1e_10(self):
        # the Ginibre state's smallest eigenvalue is 1.295e-10; clipping it
        # raised "misses the original state by 1.377e-10"
        assert entanglement_campaign(DimPair(4, 4), 2, 2475038374).passed

    @pytest.mark.parametrize("rank_tol, counterexamples", [
        # no coefficient exceeds 2: every trial of the random state is
        # reported, the identity first
        (2.0, (
            "random state: unentangled purification at trial identity: "
            "entropy 0.986544 bits",
            "random state: unentangled purification at trial haar[0]: "
            "entropy 3.08247 bits",
            "random state: unentangled purification at trial haar[1]: "
            "entropy 2.95155 bits",
        )),
        # every coefficient, zeros included, exceeds -1
        (-1.0, (
            "product state: factored purification is entangled: rank 4, "
            "entropy 0 bits",
        )),
    ])
    def test_counterexample_strings(self, rank_tol, counterexamples, monkeypatch):
        monkeypatch.setattr(purification, "RANK_TOL", rank_tol)
        report = entanglement_campaign(DimPair(2, 3), 2, 5)
        assert report.counterexamples == counterexamples
        assert not report.passed
        assert report.tolerances["rank_tol"] == rank_tol


class TestPurificationInvariant:
    def test_constructor_rejects_wrong_original(self):
        from purecorr.purification import Purification

        p = purify(example_source_state())
        wrong = random_density(DimPair(2, 2), 4, 0)
        with pytest.raises(ValueError, match="misses the original"):
            Purification(p.state, wrong)

    @pytest.mark.parametrize("labels", [("AB", "D"), ("C1", "C2")])
    def test_constructor_needs_system_and_ancilla_factors(self, labels):
        from purecorr.purification import Purification

        p = purify(example_source_state())
        psi = PureState(p.state.amplitudes, tuple(zip(labels, p.state.factor_dims)))
        with pytest.raises(ValueError, match="^purification needs system and ancilla factors$"):
            Purification(psi, example_source_state())

    def test_ancilla_first_layout(self):
        from purecorr.purification import Purification

        rho = random_density(DimPair(2, 2), 3, 5)
        p = purify(rho)
        (_, n), (_, r) = p.state.layout
        swapped = p.state.amplitudes.reshape(n, r).T.reshape(-1)
        psi = PureState(swapped, (("C", r), ("AB", n)))
        assert Purification(psi, rho).state is psi
        wrong = random_density(DimPair(2, 2), 3, 6)
        with pytest.raises(ValueError, match="misses the original"):
            Purification(psi, wrong)

    def test_tensor_product_marginals_recover(self):
        # sanity for the helper used throughout this module
        a = random_density(DimPair(2, 1), 2, 0).state
        b = random_density(DimPair(2, 1), 2, 1).state
        p = factored_purification(a, b)
        np.testing.assert_allclose(
            trace_out_ancillas(p), tensor_product(a.matrix, b.matrix), atol=1e-12
        )
