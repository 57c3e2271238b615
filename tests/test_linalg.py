"""Tests for the dense linear-algebra kernels.

The oracles here (naive_kron, naive_multi_trace, naive_coefficient,
naive_operator) are deliberate index-formula loops, independent of the
reshape/einsum paths they check.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.linalg import (
    DimPair,
    hermitian_basis,
    hermitian_eig,
    multi_partial_trace,
    operator_to_coefficient_matrix,
    partial_trace,
    require_hermitian,
    _top_singular_vectors,
    svd,
    tensor_product,
)
from purecorr.states import Observable

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    x = random_complex(rng, (d, d))
    return (x + x.conj().T) / 2


def naive_kron(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def _flat(idx, dims):
    out = 0
    for i, d in zip(idx, dims):
        out = out * d + i
    return out


def naive_multi_trace(m, dims, keep):
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kd = [dims[i] for i in keep]
    td = [dims[i] for i in traced]
    nk = math.prod(kd)
    out = np.zeros((nk, nk), dtype=complex)
    for ki in np.ndindex(*kd):
        for kj in np.ndindex(*kd):
            total = 0.0
            for t in np.ndindex(*td) if td else [()]:
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, x in zip(keep, ki):
                    row[pos] = x
                for pos, x in zip(keep, kj):
                    col[pos] = x
                for pos, x in zip(traced, t):
                    row[pos] = x
                    col[pos] = x
                total += m[_flat(row, dims), _flat(col, dims)]
            out[_flat(ki, kd), _flat(kj, kd)] = total
    return out


class TestTensorProduct:
    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((1, 4), (3, 1)), ((4, 4), (4, 4))])
    def test_bits_of_np_kron(self, shapes):
        rng = np.random.default_rng(5)
        a = random_complex(rng, shapes[0])
        b = random_complex(rng, shapes[1])
        assert tensor_product(a, b).tobytes() == np.kron(a, b).tobytes()

    def test_stack_is_one_product_per_pair(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, (5, 2, 3))
        b = random_complex(rng, (5, 3, 2))
        out = tensor_product(a, b)
        assert out.shape == (5, 6, 6)
        for i in range(5):
            assert out[i].tobytes() == np.kron(a[i], b[i]).tobytes()

    def test_identity(self):
        np.testing.assert_array_equal(
            tensor_product(np.eye(2), np.eye(2)), np.eye(4)
        )

    def test_pauli_zz(self):
        np.testing.assert_allclose(
            tensor_product(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_matrix_units(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = 1.0
        np.testing.assert_array_equal(tensor_product(p0, p1), expected)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 2)), ((3, 3), (2, 5))])
    def test_matches_index_formula(self, shapes):
        rng = np.random.default_rng(11)
        a = random_complex(rng, shapes[0])
        b = random_complex(rng, shapes[1])
        np.testing.assert_allclose(tensor_product(a, b), naive_kron(a, b))

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (4, 4))
        np.testing.assert_allclose(
            np.trace(tensor_product(a, b)),
            np.trace(a) * np.trace(b),
            atol=1e-12,
        )


class TestPartialTrace:
    def test_product_state_identity(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (2, 2))
        np.testing.assert_allclose(
            partial_trace(tensor_product(a, b), DimPair(3, 2), "A"),
            np.trace(b) * a,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            partial_trace(tensor_product(a, b), DimPair(3, 2), "B"),
            np.trace(a) * b,
            atol=1e-12,
        )

    def test_bell_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = np.sqrt(0.5)
        rho = np.outer(bell, bell.conj())
        np.testing.assert_allclose(
            partial_trace(rho, DimPair(2, 2), "A"), np.eye(2) / 2, atol=1e-15
        )

    def test_ghz_traced_as_pair(self):
        # dims (4, 2): the first two qubits as one factor, the third as the other
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = np.sqrt(0.5)
        rho = np.outer(amps, amps.conj())
        rho /= np.trace(rho).real
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        np.testing.assert_array_equal(partial_trace(rho, DimPair(4, 2), "A"), expected)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 4)])
    def test_trace_preserved(self, dims):
        rng = np.random.default_rng(7)
        m = random_complex(rng, (dims[0] * dims[1],) * 2)
        for keep in ("A", "B"):
            np.testing.assert_allclose(
                np.trace(partial_trace(m, dims, keep)), np.trace(m), atol=1e-12
            )

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (6, 6))
        np.testing.assert_allclose(
            partial_trace(m, DimPair(2, 3), "A"),
            naive_multi_trace(m, [2, 3], [0]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            partial_trace(m, DimPair(2, 3), "B"),
            naive_multi_trace(m, [2, 3], [1]),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            partial_trace(np.eye(5), DimPair(2, 2), "A")
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), DimPair(2, 2), "C")


class TestMultiPartialTrace:
    def test_keep_all(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, (12, 12))
        np.testing.assert_allclose(
            multi_partial_trace(m, [2, 3, 2], [0, 1, 2]), m
        )

    def test_product_of_four_factors(self):
        rng = np.random.default_rng(9)
        mats = [random_complex(rng, (d, d)) for d in (2, 3, 2, 2)]
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        expected = np.kron(mats[0], mats[2]) * np.trace(mats[1]) * np.trace(mats[3])
        np.testing.assert_allclose(
            multi_partial_trace(full, [2, 3, 2, 2], [0, 2]), expected, atol=1e-10
        )

    def test_matches_naive(self):
        rng = np.random.default_rng(13)
        dims = [2, 2, 3]
        m = random_complex(rng, (12, 12))
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            np.testing.assert_allclose(
                multi_partial_trace(m, dims, keep),
                naive_multi_trace(m, dims, keep),
                atol=1e-12,
            )

    def test_pairwise_composition(self):
        rng = np.random.default_rng(17)
        dims = [2, 2, 2, 2]
        m = random_complex(rng, (16, 16))
        joint = multi_partial_trace(m, dims, [0, 1])
        step1 = multi_partial_trace(m, dims, [0, 1, 2])
        step2 = multi_partial_trace(step1, [2, 2, 2], [0, 1])
        np.testing.assert_allclose(joint, step2, atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            multi_partial_trace(np.eye(4), [2, 2], [])
        with pytest.raises(ValueError, match="does not match"):
            multi_partial_trace(np.eye(4), [2, 3], [0])
        with pytest.raises(ValueError, match="out of range"):
            multi_partial_trace(np.eye(4), [2, 2], [2])
        with pytest.raises(ValueError, match="factor dimensions must be positive"):
            multi_partial_trace(np.eye(4), [4, 0], [0])


class TestHermitianEig:
    def test_pauli_z(self):
        eig = hermitian_eig(SZ)
        np.testing.assert_allclose(eig.eigenvalues, [1.0, -1.0])

    def test_source_state_spectrum(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        eig = hermitian_eig(m)
        np.testing.assert_allclose(eig.eigenvalues, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_identity(self):
        eig = hermitian_eig(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(3))
        np.testing.assert_allclose(
            eig.eigenvectors @ eig.eigenvectors.conj().T, np.eye(3), atol=1e-12
        )

    @pytest.mark.parametrize("d", [2, 5, 12, 36])
    def test_reconstruction(self, d):
        rng = np.random.default_rng(d)
        m = random_hermitian(rng, d)
        eig = hermitian_eig(m)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
        residual = np.linalg.norm(eig.reconstruct() - m) / np.linalg.norm(m)
        assert residual <= 1e-10
        unitary_defect = np.linalg.norm(
            eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(d)
        )
        assert unitary_defect <= 1e-12 * d

    def test_deterministic_phase(self):
        rng = np.random.default_rng(21)
        m = random_hermitian(rng, 4)
        e1 = hermitian_eig(m)
        e2 = hermitian_eig(m.copy())
        np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)
        for k in range(4):
            col = e1.eigenvectors[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(first.imag) <= 1e-12
            assert first.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="expected a square matrix"):
            hermitian_eig(np.zeros((2, 3)))


class TestSvd:
    def test_diagonal(self):
        sd = svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(sd.singular_values, [3.0, 2.0])

    def test_zero_matrix(self):
        sd = svd(np.zeros((3, 2)))
        np.testing.assert_array_equal(sd.singular_values, np.zeros(2))

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        u = random_complex(rng, 4)
        v = random_complex(rng, 3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        sd = svd(np.outer(u, v.conj()))
        np.testing.assert_allclose(sd.singular_values, [1.0, 0.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (5, 36), (36, 36)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        m = random_complex(rng, shape)
        sd = svd(m)
        assert np.all(sd.singular_values >= 0)
        assert np.all(np.diff(sd.singular_values) <= 1e-12)
        residual = np.linalg.norm(sd.reconstruct() - m) / np.linalg.norm(m)
        assert residual <= 1e-10
        for q in (sd.left_vectors, sd.right_vectors):
            defect = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
            assert defect <= 1e-12 * max(shape)


class TestHermitianBasis:
    def test_rejects_empty_dimension(self):
        with pytest.raises(ValueError, match="basis dimension must be >= 1"):
            hermitian_basis(0)

    def test_qubit_basis_is_pauli(self):
        basis = hermitian_basis(2)
        expected = [np.eye(2), SX, SY, SZ]
        for got, ref in zip(basis, expected):
            np.testing.assert_allclose(got, ref / np.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_orthonormal_and_hermitian(self, d):
        basis = hermitian_basis(d)
        assert basis.shape == (d * d, d, d)
        assert hermitian_basis(d) is basis  # built once per dimension
        assert not basis.flags.writeable
        for b in basis:
            np.testing.assert_allclose(b, b.conj().T, atol=1e-15)
        flat = np.stack([b.reshape(-1) for b in basis])
        gram = flat.conj() @ flat.T
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-14)


class TestCoefficientMatrix:
    def naive_coefficient(self, m, basis_a, basis_b):
        out = np.zeros((len(basis_a), len(basis_b)), dtype=complex)
        for k, g in enumerate(basis_a):
            for l, h in enumerate(basis_b):
                out[k, l] = np.trace(np.kron(g, h).conj().T @ m)
        return out

    def naive_operator(self, c, basis_a, basis_b):
        return sum(
            c[k, l] * np.kron(g, h)
            for k, g in enumerate(basis_a)
            for l, h in enumerate(basis_b)
        )

    def test_basis_elements_map_to_units(self):
        basis_a = hermitian_basis(2)
        basis_b = hermitian_basis(3)
        for k in (0, 2):
            for l in (0, 5):
                m = np.kron(basis_a[k], basis_b[l])
                c = operator_to_coefficient_matrix(m, DimPair(2, 3))
                expected = np.zeros((4, 9))
                expected[k, l] = 1.0
                np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_pauli_zz_coefficient(self):
        m = 0.25 * np.kron(SZ, SZ)
        c = operator_to_coefficient_matrix(m, DimPair(2, 2))
        expected = np.zeros((4, 4))
        expected[3, 3] = 0.5
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_hermitian_gives_real_coefficients(self):
        rng = np.random.default_rng(31)
        m = random_hermitian(rng, 4)
        c = operator_to_coefficient_matrix(m, DimPair(2, 2))
        assert np.max(np.abs(c.imag)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (6, 2), (6, 6)])
    def test_matches_naive_and_reconstructs(self, dims):
        rng = np.random.default_rng(sum(dims))
        n = dims[0] * dims[1]
        m = random_complex(rng, (n, n))
        basis_a = hermitian_basis(dims[0])
        basis_b = hermitian_basis(dims[1])
        c = operator_to_coefficient_matrix(m, dims)
        np.testing.assert_allclose(
            c, self.naive_coefficient(m, basis_a, basis_b), atol=1e-11
        )
        back = self.naive_operator(c, basis_a, basis_b)
        assert np.linalg.norm(back - m) / np.linalg.norm(m) <= 1e-10


    @pytest.mark.parametrize("dims", [(1, 3), (2, 2), (3, 2), (4, 4)])
    def test_stack_is_each_matrix_alone(self, dims):
        rng = np.random.default_rng(7)
        n = dims[0] * dims[1]
        stack = np.stack([random_hermitian(rng, n) for _ in range(6)])
        c = operator_to_coefficient_matrix(stack, dims)
        assert c.shape == (6, dims[0] ** 2, dims[1] ** 2)
        for i in range(6):
            alone = operator_to_coefficient_matrix(stack[i], dims)
            assert c[i].tobytes() == alone.tobytes()

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match dims"):
            operator_to_coefficient_matrix(np.eye(4), DimPair(2, 3))
        with pytest.raises(ValueError, match="does not match dims"):
            operator_to_coefficient_matrix(np.ones(6), DimPair(2, 3))


class TestTopSingularVectors:
    def test_equals_first_column_of_svd(self):
        rng = np.random.default_rng(8)
        generic = rng.standard_normal((4, 5))
        tied = np.diag([2.0, 2.0, 1.0, 0.5])  # a degenerate top cluster
        rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        tied = np.hstack([rot @ tied @ rot.T, np.zeros((4, 1))])
        zero = np.zeros((4, 5))
        stack = np.stack([generic, tied, zero, -generic])
        u, s, vh = np.linalg.svd(stack, full_matrices=False)
        before = (u.copy(), vh.copy())
        u0, v0 = _top_singular_vectors(s, u, vh.swapaxes(-1, -2))
        for i, m in enumerate(stack):
            ref = svd(m)
            assert u0[i].tobytes() == ref.left_vectors[:, 0].tobytes()
            assert v0[i].tobytes() == ref.right_vectors[:, 0].tobytes()
        assert np.array_equal(u, before[0]) and np.array_equal(vh, before[1])


@st.composite
def exact_hermitian(draw):
    """An exactly Hermitian n x n matrix, n <= 4, whose zeros carry either sign.

    The lower triangle is the conjugate of the upper one, so a zero
    imaginary part there has the opposite sign; the diagonal's imaginary
    parts are 0.0 or -0.0.
    """
    n = draw(st.integers(1, 4))
    parts = st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                     min_size=n * n, max_size=n * n)
    m = np.empty((n, n), dtype=np.complex128)
    m.real = np.reshape(draw(parts), (n, n))
    m.imag = np.reshape(draw(parts), (n, n))
    m.imag[np.diag_indices(n)] = draw(st.lists(st.sampled_from([0.0, -0.0]),
                                               min_size=n, max_size=n))
    return np.where(np.triu(np.ones((n, n), dtype=bool)), m, m.conj().T)


class TestRequireHermitian:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exact_hermitian())
    def test_stores_exact_input_byte_for_byte(self, h):
        assert Observable(h).matrix.tobytes() == h.tobytes()
        for m in np.stack([h, h]):
            assert require_hermitian(m).tobytes() == h.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exact_hermitian(), st.data())
    def test_stores_accepted_input_exactly_hermitian(self, h, data):
        # multiples of 2**-40 keep every sum normal, so each mean is exact
        # up to one rounding and lies between the entry and its mirror
        n = len(h)
        steps = st.lists(st.integers(-8, 8), min_size=2 * n * n, max_size=2 * n * n)
        k = np.reshape(data.draw(steps), (2, n, n)) * 2.0**-40
        a = h + (k[0] + 1j * k[1])
        stored = Observable(a).matrix
        assert np.array_equal(stored, stored.conj().T)
        for m in np.stack([a, a]):
            assert np.array_equal(require_hermitian(m), stored)
        moved, defect = stored - a, a.conj().T - a
        assert np.all(np.abs(moved.real) <= np.abs(defect.real))
        assert np.all(np.abs(moved.imag) <= np.abs(defect.imag))

    def test_scale_relative(self):
        m = np.eye(3) * 1e6
        m[0, 1] = 1e-4  # defect tiny relative to the norm
        require_hermitian(m)

    def test_rejects(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(m)

    def test_rejects_near_overflow(self):
        # Unscaled, the defect and the norm both overflow to inf.
        m = [[1e300, 1e300], [0.0, 1e300]]
        with pytest.raises(ValueError, match="Hermitian"):
            require_hermitian(m)
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(m)

    def test_accepts_hermitian_near_overflow_without_warning(self):
        m = np.array([[1e300, 1e300 - 1e300j], [1e300 + 1e300j, -1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            require_hermitian(m)
            Observable(m)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            require_hermitian([[np.inf, 0.0], [0.0, 1.0]])
