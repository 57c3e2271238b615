"""Tests for state types, canonical states and seeded generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.linalg import DimPair, multi_partial_trace
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


def qubit_pure(amps):
    v = np.asarray(amps, dtype=complex)
    return PureState(v / np.linalg.norm(v), (("A", v.size),))


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix(np.eye(3) / 3)
        assert dm.dim == 3
        assert not dm.matrix.flags.writeable

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.diag([np.nan, 1.0]))

    def test_tolerates_eigensolver_noise(self):
        DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))


class TestBipartiteState:
    def test_dims_must_match(self):
        with pytest.raises(ValueError, match="do not match"):
            BipartiteState(DensityMatrix(np.eye(4) / 4), DimPair(2, 3))

    def test_marginals(self):
        rho = example_source_state()
        np.testing.assert_allclose(rho.marginal("A").matrix, np.eye(2) / 2)
        np.testing.assert_allclose(rho.marginal("B").matrix, np.eye(2) / 2)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="norm"):
            PureState(np.array([1.0, 1.0]), (("A", 2),))

    def test_rejects_layout_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            PureState(np.array([1.0, 0.0]), (("A", 2), ("B", 2)))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            PureState(np.array([0.5] * 4), (("A", 2), ("A", 2)))

    def test_density_of_basis_state(self):
        psi = qubit_pure([1.0, 0.0])
        np.testing.assert_array_equal(psi.density(), np.diag([1.0, 0.0]))


class TestFromPure:
    def test_basis_state(self):
        np.testing.assert_array_equal(
            from_pure(qubit_pure([1, 0])).matrix, np.diag([1.0, 0.0])
        )

    def test_bell_state(self):
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0
        rho = from_pure(qubit_pure(bell)).matrix
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_array_equal(rho, expected)

    def test_ghz_corners(self):
        rho = from_pure(ghz()).matrix
        assert rho[0, 0] == rho[0, 7] == rho[7, 0] == rho[7, 7] == 0.5
        assert np.count_nonzero(rho) == 4

    def test_rank_one(self):
        rng = np.random.default_rng(4)
        psi = random_pure(5, rng)
        evals = np.linalg.eigvalsh(from_pure(psi).matrix)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)
        assert abs(evals[-2]) <= 1e-9


class TestCanonicalStates:
    def test_source_state_matrix(self):
        rho = example_source_state()
        np.testing.assert_array_equal(rho.matrix, np.diag([0.5, 0.0, 0.0, 0.5]))
        assert rho.dims == DimPair(2, 2)

    def test_source_state_mixture(self):
        zz = np.zeros(4, dtype=complex)
        oo = np.zeros(4, dtype=complex)
        zz[0] = oo[3] = 1.0
        mixture = 0.5 * (np.outer(zz, zz.conj()) + np.outer(oo, oo.conj()))
        np.testing.assert_array_equal(example_source_state().matrix, mixture)

    def test_ghz_amplitudes(self):
        psi = ghz()
        assert psi.amplitudes[0] == psi.amplitudes[7] == np.sqrt(0.5)
        assert np.count_nonzero(psi.amplitudes) == 2
        assert psi.labels == ("A", "B", "C")
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_ghz_marginal_is_source_state_exactly(self):
        # entries are dyadic, so the equality is exact at double precision
        rho = from_pure(ghz()).matrix
        marg = multi_partial_trace(rho, (2, 2, 2), [0, 1])
        np.testing.assert_array_equal(marg, example_source_state().matrix)


class TestRandomPure:
    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_normalized(self, d):
        psi = random_pure(d, 42)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_pure(4, 9).amplitudes, random_pure(4, 9).amplitudes
        )

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_pure(0, 1)

    def test_haar_first_component_moment(self):
        # |amp[0]|^2 of a Haar vector in d=4 is Beta(1, 3): mean 1/4,
        # variance 3/80.  Check the empirical mean within 3 standard errors.
        draws = 10_000
        rng = np.random.default_rng(2024)
        values = np.empty(draws)
        for i in range(draws):
            values[i] = abs(random_pure(4, rng).amplitudes[0]) ** 2
        se = np.sqrt(3 / 80 / draws)
        assert abs(values.mean() - 0.25) <= 3 * se


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density(DimPair(2, 2), 1, 5)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert abs(evals[-2]) <= 1e-9

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_rank_bound(self, rank):
        rho = random_density(DimPair(2, 2), rank, 77)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert np.count_nonzero(evals > 1e-9) <= rank

    def test_unit_trace(self):
        rho = random_density(DimPair(3, 2), 6, 123)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            random_density(DimPair(2, 2), 0, 1)
        with pytest.raises(ValueError, match="rank"):
            random_density(DimPair(2, 2), 5, 1)

    def test_full_rank_draws_are_non_factorable(self):
        # factorable states are measure zero; expect at least 99 of 100
        from purecorr.correlation import is_factorable

        hits = sum(
            not is_factorable(random_density(DimPair(2, 2), 4, seed))
            for seed in range(100)
        )
        assert hits >= 99

    def test_deterministic(self):
        np.testing.assert_array_equal(
            random_density(DimPair(2, 2), 4, 3).matrix,
            random_density(DimPair(2, 2), 4, 3).matrix,
        )


class TestRandomProductState:
    def test_is_exact_product(self):
        rho = random_product_state(DimPair(2, 3), 11)
        a = rho.marginal("A").matrix
        b = rho.marginal("B").matrix
        np.testing.assert_allclose(rho.matrix, np.kron(a, b), atol=1e-12)


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_unitary(self, d):
        u = random_unitary(d, 13)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)

    def test_unit_determinant_modulus(self):
        u = random_unitary(4, 1)
        assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_unitary(6, 2), random_unitary(6, 2))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_unitary(0, 1)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
    def test_square_isometry_bits(self, seed):
        for d in range(1, 65):
            u = random_unitary(d, seed)
            np.testing.assert_array_equal(u, random_isometry(d, d, seed))
            np.testing.assert_array_equal(u, _reference_unitary(d, seed))


def _phase_fixed_q(a):
    q, r = np.linalg.qr(a)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _reference_unitary(d, seed):
    """Phase-fixed QR of a square complex Gaussian, drawn as random_unitary
    has always drawn it; seeded outputs of the square case must not move."""
    rng = np.random.default_rng(seed)
    return _phase_fixed_q(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


@st.composite
def isometry_shapes(draw):
    d = draw(st.integers(1, 40))
    return d, draw(st.integers(1, d)), draw(st.integers(0, 2**63 - 1))


class TestRandomIsometry:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(isometry_shapes())
    def test_orthonormal_and_deterministic(self, shape):
        d, r, seed = shape
        u = random_isometry(d, r, seed)
        assert u.shape == (d, r)
        assert np.max(np.abs(u.conj().T @ u - np.eye(r))) <= 1e-12
        np.testing.assert_array_equal(u, random_isometry(d, r, seed))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(isometry_shapes())
    def test_leading_columns_of_a_haar_unitary(self, shape):
        # completing the same d x r Gaussian to a square one and taking the
        # phase-fixed QR gives a Haar unitary whose first r columns are the
        # isometry: the QR of the leading columns does not see the rest
        d, r, seed = shape
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        extra = np.random.default_rng(seed + 1).standard_normal((d, d - r))
        full = _phase_fixed_q(np.hstack([a, extra]))
        u = random_isometry(d, r, seed)
        assert np.max(np.abs(full[:, :r] - u)) <= 1e-12

    @pytest.mark.parametrize("d,r", [(0, 1), (3, 0), (3, 4)])
    def test_rejects_bad_shape(self, d, r):
        with pytest.raises(ValueError, match=">= 1|width"):
            random_isometry(d, r, 1)
