"""Tests for covariance, factorability, witness synthesis and sampling."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from purecorr.correlation import (
    Observable,
    _chi2_sf,
    brute_force_max_covariance,
    chi_square_goodness,
    chi_square_homogeneity,
    correlation_operator,
    covariance,
    is_factorable,
    named_observable,
    operator_schmidt,
    sample_measurements,
    synthesize_witness,
    to_projective,
    verify_witness_criterion,
)
from purecorr.linalg import DimPair, multi_partial_trace, tensor_product
from purecorr.states import (
    BipartiteState,
    DensityMatrix,
    example_source_state,
    from_pure,
    ghz,
    random_density,
    random_product_state,
)
from purecorr.stateio import emit_state_file, parse_state_file

SZ = named_observable("z")
SX = named_observable("x")
# 1e6 X with 1e-4 added at [0, 1]: a Hermitian defect far inside the
# tolerance relative to its norm of 1.4e6, yet its covariances used to
# carry an imaginary residue of 7.5e-7, beyond an absolute 1e-10.
NEAR_HERMITIAN_X = 1e6 * SX.matrix + np.array([[0, 1e-4], [0, 0]])


def near_hermitian_state():
    """``random_density((2, 2), 4, 1)`` with a real antisymmetric 1e-10 defect.

    The constructor accepts it; the witness used to raise "coefficient
    matrix has imaginary part 1.411e-10".
    """
    rho = random_density(DimPair(2, 2), 4, 1)
    defect = np.zeros((4, 4))
    defect[0, 1], defect[1, 0] = 1e-10, -1e-10
    return rho, BipartiteState(DensityMatrix(rho.matrix + defect), rho.dims)


@st.composite
def claim2_states(draw):
    """Ginibre, product and near-product states on dims up to 3x3.

    The near-product kind is (1 - eps) product + eps Ginibre with eps from
    1e-3 down to 1e-12, so sigma1 shrinks toward the factorable boundary.
    """
    dims = DimPair(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["ginibre", "product", "near-product"]))
    seed = draw(st.integers(0, 2**32 - 1))
    ginibre = random_density(dims, draw(st.integers(1, dims.total)), seed)
    if kind == "ginibre":
        return ginibre
    product = random_product_state(dims, seed + 1)
    if kind == "product":
        return product
    eps = 10.0 ** -draw(st.floats(3, 12))
    mixed = (1 - eps) * product.matrix + eps * ginibre.matrix
    return BipartiteState(DensityMatrix(mixed), dims)


def ghz_marginal():
    rho = from_pure(ghz()).matrix
    marg = multi_partial_trace(rho, (2, 2, 2), [0, 1])
    return BipartiteState(DensityMatrix(marg), DimPair(2, 2))


def random_observable(rng, d):
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return Observable((x + x.conj().T) / 2)


class TestObservable:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_named(self):
        np.testing.assert_array_equal(SZ.matrix, np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(named_observable("i", 3).matrix, np.eye(3))
        with pytest.raises(ValueError, match="dimension 2"):
            named_observable("x", 3)
        with pytest.raises(ValueError, match="unknown observable"):
            named_observable("w")


class TestCovariance:
    def test_source_state_zz(self):
        assert covariance(example_source_state(), SZ, SZ) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_source_state_xx(self):
        assert covariance(example_source_state(), SX, SX) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_product_state_uncorrelated(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_product_state(DimPair(2, 3), seed)
        e = random_observable(rng, 2)
        f = random_observable(rng, 3)
        assert abs(covariance(rho, e, f)) <= 1e-12

    def test_bilinear_in_first_argument(self):
        rng = np.random.default_rng(42)
        rho = random_density(DimPair(2, 2), 4, 0)
        e1, e2 = random_observable(rng, 2), random_observable(rng, 2)
        f = random_observable(rng, 2)
        a, b = 1.7, -0.3
        combo = Observable(a * e1.matrix + b * e2.matrix)
        lhs = covariance(rho, combo, f)
        rhs = a * covariance(rho, e1, f) + b * covariance(rho, e2, f)
        assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_identity_observable_gives_zero(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(DimPair(2, 3), 6, seed)
        f = random_observable(rng, 3)
        assert abs(covariance(rho, named_observable("i", 2), f)) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_delta_pairing(self, seed):
        rng = np.random.default_rng(seed + 100)
        rho = random_density(DimPair(2, 3), 6, seed)
        e = random_observable(rng, 2)
        f = random_observable(rng, 3)
        delta = correlation_operator(rho).delta
        pairing = np.trace(delta @ tensor_product(e.matrix, f.matrix)).real
        assert abs(covariance(rho, e, f) - pairing) <= 1e-10

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            covariance(example_source_state(), named_observable("i", 3), SZ)

    def test_observable_accepted_within_tolerance(self):
        rho = random_density(DimPair(2, 2), 4, 1)
        near = covariance(rho, Observable(NEAR_HERMITIAN_X), SZ)
        assert near == pytest.approx(covariance(rho, Observable(1e6 * SX.matrix), SZ),
                                     rel=1e-9)


class TestCorrelationOperator:
    def test_source_state_delta(self):
        delta = correlation_operator(example_source_state())
        np.testing.assert_allclose(
            delta.delta, np.diag([0.25, -0.25, -0.25, 0.25]), atol=1e-15
        )
        assert delta.frobenius_norm == pytest.approx(0.5, abs=1e-15)

    def test_product_state_delta_vanishes(self):
        delta = correlation_operator(random_product_state(DimPair(2, 2), 1))
        assert delta.frobenius_norm <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_traceless_and_hermitian(self, seed):
        delta = correlation_operator(random_density(DimPair(2, 3), 6, seed))
        assert abs(np.trace(delta.delta)) <= 1e-12
        assert np.linalg.norm(delta.delta - delta.delta.conj().T) <= 1e-12


class TestIsFactorable:
    def test_product_state(self):
        assert is_factorable(random_product_state(DimPair(3, 2), 2))

    def test_source_state(self):
        assert not is_factorable(example_source_state())

    def test_ginibre_seed_42(self):
        assert not is_factorable(random_density(DimPair(2, 2), 4, 42))


class TestOperatorSchmidt:
    def test_zero_delta(self):
        delta = correlation_operator(random_product_state(DimPair(2, 2), 0))
        schmidt = operator_schmidt(delta)
        assert np.max(schmidt.coefficients) <= 1e-12

    def test_source_state_top_pair(self):
        schmidt = operator_schmidt(correlation_operator(example_source_state()))
        np.testing.assert_allclose(
            schmidt.coefficients, [0.5, 0.0, 0.0, 0.0], atol=1e-12
        )
        # top pair is sigma_z/sqrt(2) on both sides, up to a joint sign
        top = tensor_product(schmidt.ops_a[0].matrix, schmidt.ops_b[0].matrix)
        np.testing.assert_allclose(
            top, np.diag([0.5, -0.5, -0.5, 0.5]), atol=1e-12
        )

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 3), 2)])
    def test_reconstruction_and_orthonormality(self, dims, seed):
        delta = correlation_operator(random_density(DimPair(*dims), dims[0] * dims[1], seed))
        schmidt = operator_schmidt(delta)
        rebuilt = sum(
            c * tensor_product(a.matrix, b.matrix)
            for c, a, b in zip(schmidt.coefficients, schmidt.ops_a, schmidt.ops_b)
        )
        assert np.linalg.norm(rebuilt - delta.delta) <= 1e-10
        for ops in (schmidt.ops_a, schmidt.ops_b):
            flat = np.stack([o.matrix.reshape(-1) for o in ops])
            gram = flat.conj() @ flat.T
            np.testing.assert_allclose(gram, np.eye(len(ops)), atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_parseval(self, seed):
        delta = correlation_operator(random_density(DimPair(2, 2), 4, seed))
        schmidt = operator_schmidt(delta)
        assert np.sum(schmidt.coefficients**2) == pytest.approx(
            delta.frobenius_norm**2, abs=1e-10
        )


class TestSynthesizeWitness:
    def test_source_state(self):
        w = synthesize_witness(example_source_state())
        assert w.covariance == pytest.approx(0.5, abs=1e-9)
        assert w.sigma1 == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(
            np.abs(w.e.matrix), np.diag([1, 1]) / np.sqrt(2), atol=1e-12
        )

    def test_product_state(self):
        # Every coefficient is rounding noise (~1e-17), far below 1; the tie
        # rule must still leave them descending with sigma1 the largest.
        for dims, seed in [((2, 2), 7), ((2, 3), 200)]:
            text = emit_state_file(random_product_state(DimPair(*dims), seed))
            w = synthesize_witness(parse_state_file(text))
            assert abs(w.covariance) <= 1e-12
            assert w.sigma1 <= 1e-12
            s = operator_schmidt(w.correlation).coefficients
            assert np.all(np.diff(s) <= 0)
            assert w.sigma1 == s.max()

    def test_ghz_marginal_matches_source_state(self):
        w1 = synthesize_witness(example_source_state())
        w2 = synthesize_witness(ghz_marginal())
        np.testing.assert_array_equal(w1.e.matrix, w2.e.matrix)
        np.testing.assert_array_equal(w1.f.matrix, w2.f.matrix)
        assert w1.covariance == w2.covariance
        assert w1.sigma1 == w2.sigma1

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 2), 1), ((2, 3), 2), ((3, 3), 3)])
    def test_covariance_achieves_sigma1(self, dims, seed):
        rho = random_density(DimPair(*dims), dims[0] * dims[1], seed)
        w = synthesize_witness(rho)
        assert w.covariance >= 0
        assert abs(w.covariance - w.sigma1) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_hilbert_schmidt_norm(self, seed):
        w = synthesize_witness(random_density(DimPair(2, 2), 4, seed))
        assert np.linalg.norm(w.e.matrix) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(w.f.matrix) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_top_coefficient(self):
        # Bell state: Delta = (XX - YY + ZZ)/4, three equal coefficients 1/2;
        # the tie-break must still yield a deterministic optimal witness
        bell = np.zeros(4)
        bell[0] = bell[3] = np.sqrt(0.5)
        rho = BipartiteState(
            DensityMatrix(np.outer(bell, bell) / np.linalg.norm(bell) ** 2),
            DimPair(2, 2),
        )
        w1 = synthesize_witness(rho)
        w2 = synthesize_witness(rho)
        assert w1.sigma1 == pytest.approx(0.5, abs=1e-12)
        assert w1.covariance == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_array_equal(w1.e.matrix, w2.e.matrix)
        np.testing.assert_array_equal(w1.f.matrix, w2.f.matrix)

    def test_near_factorable_mixture(self):
        # sigma1 ~ 0.189 * eps is below an absolute 1e-9 tie threshold, which
        # would count every coefficient as tied and could pick a zero pair;
        # covariance() must not lose it to cancelling O(1) traces either
        product = random_product_state(DimPair(2, 2), 1).matrix
        ginibre = random_density(DimPair(2, 2), 4, 7).matrix
        for eps in (1e-9, 1e-11, 1e-13):
            rho = BipartiteState(
                DensityMatrix((1 - eps) * product + eps * ginibre), DimPair(2, 2)
            )
            w = synthesize_witness(rho)
            assert w.sigma1 == pytest.approx(0.189 * eps, rel=1e-2)
            assert abs(w.covariance - w.sigma1) <= 1e-6 * w.sigma1
            assert abs(covariance(rho, w.e, w.f) - w.sigma1) <= 1e-12 * w.sigma1

    def test_state_accepted_within_tolerance(self):
        rho, near = near_hermitian_state()
        w = synthesize_witness(near)
        assert w.sigma1 == pytest.approx(synthesize_witness(rho).sigma1, abs=1e-9)
        assert w.covariance == pytest.approx(w.sigma1, abs=1e-12)

    def test_carries_correlation_operator(self):
        rho = random_density(DimPair(2, 3), 6, 4)
        w = synthesize_witness(rho)
        np.testing.assert_array_equal(w.correlation.delta, correlation_operator(rho).delta)
        np.testing.assert_array_equal(w.correlation.rho_a, rho.marginal("A").matrix)
        np.testing.assert_array_equal(w.correlation.rho_b, rho.marginal("B").matrix)


class TestBruteForce:
    def test_product_state_is_zero(self):
        rho = random_product_state(DimPair(2, 2), 3)
        assert brute_force_max_covariance(rho, 500, 1) <= 1e-12

    def test_source_state_bounded_by_half(self):
        value = brute_force_max_covariance(example_source_state(), 10_000, 5)
        assert 0.0 < value <= 0.5 + 1e-9

    @pytest.mark.parametrize("dims,seed", [((2, 2), 0), ((2, 3), 1), ((3, 3), 2)])
    def test_never_beats_witness(self, dims, seed):
        rho = random_density(DimPair(*dims), dims[0] * dims[1], seed)
        w = synthesize_witness(rho)
        assert brute_force_max_covariance(rho, 2000, seed) <= w.sigma1 + 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(claim2_states(), st.integers(0, 2**32 - 1))
    def test_never_beats_witness_property(self, rho, seed):
        sigma1 = synthesize_witness(rho).sigma1
        assert brute_force_max_covariance(rho, 2000, seed) <= sigma1 + 1e-9

    def test_deterministic(self):
        rho = random_density(DimPair(2, 2), 4, 9)
        assert brute_force_max_covariance(rho, 100, 3) == brute_force_max_covariance(
            rho, 100, 3
        )

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            brute_force_max_covariance(example_source_state(), 0, 3)


class TestToProjective:
    def test_pauli_z(self):
        outcomes = to_projective(SZ)
        assert [v for v, _ in outcomes] == [1.0, -1.0]
        np.testing.assert_allclose(outcomes[0][1], np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(outcomes[1][1], np.diag([0.0, 1.0]), atol=1e-15)

    def test_identity_groups_to_single_outcome(self):
        outcomes = to_projective(named_observable("i", 2))
        assert len(outcomes) == 1
        assert outcomes[0][0] == pytest.approx(1.0)
        np.testing.assert_allclose(outcomes[0][1], np.eye(2), atol=1e-15)

    def test_scaling_commutes(self):
        scaled = Observable(SZ.matrix / np.sqrt(2))
        outcomes = to_projective(scaled)
        assert [v for v, _ in outcomes] == pytest.approx(
            [1 / np.sqrt(2), -1 / np.sqrt(2)]
        )
        np.testing.assert_allclose(outcomes[0][1], np.diag([1.0, 0.0]), atol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    def test_projector_algebra(self, seed):
        rng = np.random.default_rng(seed)
        obs = random_observable(rng, 4)
        outcomes = to_projective(obs)
        total = np.zeros((4, 4), dtype=complex)
        for i, (_, p) in enumerate(outcomes):
            assert np.linalg.norm(p @ p - p) <= 1e-9
            for j, (_, q) in enumerate(outcomes):
                if i != j:
                    assert np.linalg.norm(p @ q) <= 1e-9
            total += p
        np.testing.assert_allclose(total, np.eye(4), atol=1e-9)


class TestSampling:
    def test_source_state_zz_perfect_agreement(self):
        result = sample_measurements(example_source_state(), SZ, SZ, 20_000, 1)
        counts = result.joint_counts
        assert counts[(1.0, -1.0)] == 0
        assert counts[(-1.0, 1.0)] == 0
        bound = 4 / np.sqrt(result.trials)
        assert abs(counts[(1.0, 1.0)] / result.trials - 0.5) <= bound
        assert abs(counts[(-1.0, -1.0)] / result.trials - 0.5) <= bound
        assert result.analytic_covariance == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_uniform(self):
        rho = BipartiteState(DensityMatrix(np.eye(4) / 4), DimPair(2, 2))
        result = sample_measurements(rho, SZ, SZ, 40_000, 2)
        bound = 4 / np.sqrt(result.trials)
        for count in result.joint_counts.values():
            assert abs(count / result.trials - 0.25) <= bound
        assert abs(result.empirical_covariance) <= bound
        assert result.analytic_covariance == pytest.approx(0.0, abs=1e-12)

    def test_ghz_marginal_indistinguishable_from_source(self):
        r1 = sample_measurements(example_source_state(), SZ, SZ, 100_000, 11)
        r2 = sample_measurements(ghz_marginal(), SZ, SZ, 100_000, 12)
        _, _, pvalue = chi_square_homogeneity(r1.counts, r2.counts)
        assert pvalue > 0.001

    def test_counts_sum_to_trials(self):
        result = sample_measurements(example_source_state(), SX, SX, 777, 3)
        assert int(result.counts.sum()) == 777
        with pytest.raises(ValueError, match="counts must sum to the number of trials"):
            dataclasses.replace(result, trials=776)

    def test_deterministic(self):
        r1 = sample_measurements(example_source_state(), SZ, SX, 1000, 4)
        r2 = sample_measurements(example_source_state(), SZ, SX, 1000, 4)
        np.testing.assert_array_equal(r1.counts, r2.counts)
        assert r1.empirical_covariance == r2.empirical_covariance

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="do not match"):
            sample_measurements(
                example_source_state(), named_observable("i", 3), SZ, 10, 0
            )
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sample_measurements(example_source_state(), SZ, SZ, 0, 0)

    def test_observable_accepted_within_tolerance(self):
        rho = random_density(DimPair(2, 2), 4, 1)
        near = sample_measurements(rho, Observable(NEAR_HERMITIAN_X), SZ, 1000, 4)
        exact = sample_measurements(rho, Observable(1e6 * SX.matrix), SZ, 1000, 4)
        np.testing.assert_allclose(near.probabilities, exact.probabilities, atol=1e-12)

    def test_empirical_tracks_analytic(self):
        # |empirical - analytic| <= 5 * range^2 / sqrt(trials) in at least
        # 99 of 100 seeded runs (range = 2 for both observables here)
        rho = random_density(DimPair(2, 2), 4, 0)
        trials = 1000
        bound = 5 * 2.0 * 2.0 / np.sqrt(trials)
        violations = 0
        for seed in range(100):
            result = sample_measurements(rho, SZ, SX, trials, seed)
            if abs(result.empirical_covariance - result.analytic_covariance) > bound:
                violations += 1
        assert violations <= 1


EPS = 2.0**-52


def _oracle_tail(stat: float, dof: int) -> mpmath.mpf:
    """Q(dof, stat) to 50 digits: the regularized upper incomplete gamma."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(stat) / 2, mpmath.inf,
                               regularized=True)


def _tail_bound(stat: float, dof: int) -> float:
    """The relative error bound that ``_chi2_sf``'s docstring derives."""
    return (0.75 * (dof + stat) + 6) * EPS


def _grid_pvalues():
    """(cells, (stat, dof, p-value)) of goodness and homogeneity tables.

    The tables are built so that the statistic sweeps 1e-6..2000 at every
    dof in 1..63 and at dof 99, 100, 255, 256, 399 and 400.
    """
    mean = 1e4
    for cells in [*range(2, 65), 100, 101, 256, 257, 400, 401]:
        shift = np.zeros(cells)
        shift[:2] = [1.0, -1.0]
        for target in np.geomspace(1e-6, 2000.0, 40):
            a = np.sqrt(target * mean / 2)
            yield cells, chi_square_goodness(mean + a * shift, np.full(cells, 1 / cells))
            b = np.sqrt(target * mean / 4)
            yield cells, chi_square_homogeneity(mean + b * shift, mean - b * shift)


TAIL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
tail_dofs = st.integers(1, 400)
# moderate statistics, where the tail is neither 1 nor 0, and the whole range
tail_stats = st.one_of(st.floats(0, 3000), st.floats(0, 1e300))
# absolute slack where the true tail is below 1e-300
TINY = 1e-290


def _quiet_tail(stat: float, dof: int) -> float:
    """``_chi2_sf`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _chi2_sf(stat, dof)


def _assert_matches_oracle(stat: float, dof: int, pvalue: float) -> None:
    tail = _oracle_tail(stat, dof)
    if tail < 1e-300:
        assert 0.0 <= pvalue <= TINY, (stat, dof, pvalue)
    else:
        assert abs(pvalue - tail) <= _tail_bound(stat, dof) * tail, (stat, dof)


class TestChiSquare:
    def test_goodness_accepts_true_distribution(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.5, 0.25, 0.25])
        counts = rng.multinomial(10_000, probs)
        stat, dof, pvalue = chi_square_goodness(counts, probs)
        assert dof == 2
        assert pvalue > 0.001

    def test_goodness_rejects_wrong_distribution(self):
        rng = np.random.default_rng(0)
        counts = rng.multinomial(10_000, [0.25, 0.25, 0.25, 0.25])
        _, _, pvalue = chi_square_goodness(counts, np.array([0.7, 0.1, 0.1, 0.1]))
        assert pvalue < 1e-6

    def test_goodness_infinite_off_support(self):
        stat, _, pvalue = chi_square_goodness(
            np.array([10, 1]), np.array([1.0, 0.0])
        )
        assert np.isinf(stat)
        assert pvalue == 0.0

    def test_homogeneity_same_source(self):
        rng = np.random.default_rng(5)
        probs = [0.4, 0.3, 0.2, 0.1]
        c1 = rng.multinomial(50_000, probs)
        c2 = rng.multinomial(50_000, probs)
        _, _, pvalue = chi_square_homogeneity(c1, c2)
        assert pvalue > 0.001

    def test_homogeneity_different_sources(self):
        rng = np.random.default_rng(6)
        c1 = rng.multinomial(50_000, [0.4, 0.3, 0.2, 0.1])
        c2 = rng.multinomial(50_000, [0.1, 0.2, 0.3, 0.4])
        _, _, pvalue = chi_square_homogeneity(c1, c2)
        assert pvalue < 1e-6

    def test_goodness_rejects_empty_counts(self):
        with pytest.raises(ValueError, match="counts must not all be zero"):
            chi_square_goodness(np.zeros(4), [0.25] * 4)
        with pytest.raises(ValueError, match="matching shapes"):
            chi_square_goodness(np.ones(4), [0.5] * 2)

    def test_homogeneity_rejects_one_empty_table(self):
        with pytest.raises(ValueError, match="nonzero total"):
            chi_square_homogeneity([3, 5, 2], [0, 0, 0])
        with pytest.raises(ValueError, match="matching shapes"):
            chi_square_homogeneity([3, 5, 2], [3, 5])

    def test_homogeneity_rejects_two_empty_tables(self):
        with pytest.raises(ValueError, match="nonzero total"):
            chi_square_homogeneity(np.zeros(3), np.zeros(3))

    def test_pvalues_match_50_digit_oracle(self):
        for cells, (stat, dof, pvalue) in _grid_pvalues():
            assert dof == cells - 1
            _assert_matches_oracle(stat, dof, pvalue)

    def test_pvalues_match_scipy_chi2_sf(self):
        # scipy's chdtrc errs by up to 30 (dof + stat) eps against the 50-digit
        # tail on this grid, and by 39.4 on a denser one; 64 (dof + stat) eps
        # is its bound here.
        for _, (stat, dof, pvalue) in _grid_pvalues():
            reference = chi2.sf(stat, dof)
            bound = _tail_bound(stat, dof) + 64 * (dof + stat) * EPS
            assert abs(pvalue - reference) <= bound * max(pvalue, reference) + TINY, (
                stat, dof)


class TestChiSquareTail:
    def test_matches_the_oracle_where_e_minus_h_underflows(self):
        # e^-h leaves the normal range at stat 1416.8 and rounds to 0 at 1490.3
        for dof in [1, 2, 3, 4, 299, 300, 399, 400]:
            for stat in np.linspace(1400.0, 1500.0, 41):
                _assert_matches_oracle(float(stat), dof, _chi2_sf(float(stat), dof))

    @TAIL_SETTINGS
    @given(tail_stats, tail_dofs)
    def test_is_a_probability(self, stat, dof):
        assert 0.0 <= _quiet_tail(stat, dof) <= 1.0

    @TAIL_SETTINGS
    @given(tail_stats, tail_stats, tail_dofs)
    def test_nonincreasing_in_stat(self, x1, x2, dof):
        lo, hi = sorted([x1, x2])
        bound = _tail_bound(lo, dof) + _tail_bound(hi, dof)
        p_lo, p_hi = _quiet_tail(lo, dof), _quiet_tail(hi, dof)
        assert p_hi <= p_lo * (1 + bound) + TINY

    @TAIL_SETTINGS
    @given(tail_stats, tail_dofs)
    def test_nondecreasing_in_dof(self, stat, dof):
        bound = _tail_bound(stat, dof) + _tail_bound(stat, dof + 1)
        assert _quiet_tail(stat, dof + 1) >= _quiet_tail(stat, dof) * (1 - bound) - TINY

    @TAIL_SETTINGS
    @given(tail_stats, tail_dofs)
    def test_two_more_dof_add_the_next_term(self, stat, dof):
        # Q(dof + 2, x) - Q(dof, x) = e^-h h^nu / Gamma(nu + 1), h = x/2, nu = dof/2
        p, p2 = _quiet_tail(stat, dof), _quiet_tail(stat, dof + 2)
        with mpmath.workdps(50):
            h, nu = mpmath.mpf(stat) / 2, mpmath.mpf(dof) / 2
            term = mpmath.exp(-h) * h**nu / mpmath.gamma(nu + 1)
            gap = abs(mpmath.mpf(p2) - mpmath.mpf(p) - term)
        assert gap <= _tail_bound(stat, dof) * p + _tail_bound(stat, dof + 2) * p2 + TINY

    def test_edge_values(self):
        assert all(_quiet_tail(0.0, dof) == 1.0 for dof in range(1, 401))
        assert _quiet_tail(7.0, 0) == _quiet_tail(7.0, -1) == 1.0
        assert _quiet_tail(1e300, 400) == _quiet_tail(math.inf, 3) == 0.0


class TestVerifyWitnessCriterion:
    def test_small_campaign_passes(self):
        report = verify_witness_criterion(DimPair(2, 2), 50, 7)
        assert report.passed
        assert report.counterexamples == ()
        assert report.stats["max_covariance_factorable"] <= 1e-9
        assert report.stats["min_covariance_nonfactorable"] > 1e-7

    def test_deterministic(self):
        r1 = verify_witness_criterion(DimPair(2, 2), 20, 3)
        r2 = verify_witness_criterion(DimPair(2, 2), 20, 3)
        assert r1.to_json() == r2.to_json()

    def test_other_dims(self):
        assert verify_witness_criterion(DimPair(2, 3), 20, 5).passed
