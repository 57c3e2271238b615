"""Property tests for the deterministic decompositions in purecorr.linalg.

Inputs are real and complex random matrices scaled by 10^-k for k up to 30,
so the ordering and phase rules are exercised far below unit scale, where
an absolute tie threshold would merge every value into one cluster.  The
degenerate-cluster properties build one matrix twice, with its eigenvectors
(or singular vectors) rotated inside a planted cluster, and require the
same output vectors: they may depend only on the cluster's span.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.correlation import synthesize_witness
from purecorr.linalg import hermitian_eig, svd
from purecorr.states import BipartiteState, DensityMatrix, random_pure

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def scaled_matrices(draw, square=False):
    m = draw(st.integers(1, 6))
    n = m if square else draw(st.integers(1, 6))
    is_complex = draw(st.booleans())
    scale = 10.0 ** -draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, n))
    if is_complex:
        a = a + 1j * rng.standard_normal((m, n))
    return a * scale


def assert_descending(values):
    assert np.all(np.diff(values) <= 1e-12 * np.max(np.abs(values)))


def assert_orthonormal_columns(q):
    k = q.shape[1]
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 1e-12 * max(k, 1)


def assert_reconstructs(decomposition, a):
    residual = np.linalg.norm(decomposition.reconstruct() - a)
    assert residual <= 1e-10 * np.linalg.norm(a)


@SETTINGS
@given(scaled_matrices())
def test_svd_properties(a):
    sd = svd(a)
    k = min(a.shape)
    assert sd.singular_values.shape == (k,)
    assert sd.left_vectors.shape == (a.shape[0], k)
    assert sd.right_vectors.shape == (a.shape[1], k)
    assert np.all(sd.singular_values >= 0)
    assert_descending(sd.singular_values)
    assert_reconstructs(sd, a)
    assert_orthonormal_columns(sd.left_vectors)
    assert_orthonormal_columns(sd.right_vectors)
    if not np.iscomplexobj(a):
        assert not np.iscomplexobj(sd.left_vectors)
        assert not np.iscomplexobj(sd.right_vectors)


@SETTINGS
@given(scaled_matrices(square=True))
def test_hermitian_eig_properties(x):
    a = (x + x.conj().T) / 2
    eig = hermitian_eig(a)
    assert eig.eigenvalues.shape == (a.shape[0],)
    assert_descending(eig.eigenvalues)
    assert_reconstructs(eig, a)
    assert_orthonormal_columns(eig.eigenvectors)
    if not np.iscomplexobj(a):
        assert not np.iscomplexobj(eig.eigenvectors)


def random_unitary_matrix(rng, n, is_complex):
    a = rng.standard_normal((n, n))
    if is_complex:
        a = a + 1j * rng.standard_normal((n, n))
    return np.linalg.qr(a)[0]


@st.composite
def planted_clusters(draw):
    """(values, Q, Q rotated inside the cluster): one matrix, two eigenbases.

    The values are descending with unit gaps, times 10^-k; the run
    ``lo:hi`` of at least two values is made exactly equal.
    """
    n = draw(st.integers(2, 6))
    lo = draw(st.integers(0, n - 2))
    hi = draw(st.integers(lo + 2, n))
    is_complex = draw(st.booleans())
    scale = 10.0 ** -draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.arange(n, 0, -1, dtype=float)
    values[lo:hi] = values[lo]
    q = random_unitary_matrix(rng, n, is_complex)
    rotated = q.copy()
    rotated[:, lo:hi] = q[:, lo:hi] @ random_unitary_matrix(rng, hi - lo, is_complex)
    return values * scale, q, rotated


@SETTINGS
@given(planted_clusters())
def test_hermitian_eig_cluster_depends_only_on_span(planted):
    values, q, rotated = planted
    eig1 = hermitian_eig((q * values) @ q.conj().T)
    eig2 = hermitian_eig((rotated * values) @ rotated.conj().T)
    np.testing.assert_allclose(
        eig1.eigenvectors, eig2.eigenvectors, rtol=0, atol=1e-10
    )


@SETTINGS
@given(planted_clusters(), st.integers(0, 2**32 - 1))
def test_svd_cluster_depends_only_on_span(planted, seed):
    values, u, rotated_u = planted
    v = random_unitary_matrix(
        np.random.default_rng(seed), len(values), np.iscomplexobj(u)
    )
    # The same rotation on both sides leaves U diag(s) V^dagger unchanged.
    rotation = u.conj().T @ rotated_u
    sd1 = svd((u * values) @ v.conj().T)
    sd2 = svd((rotated_u * values) @ (v @ rotation).conj().T)
    for a, b in (
        (sd1.left_vectors, sd2.left_vectors),
        (sd1.right_vectors, sd2.right_vectors),
    ):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)


@SETTINGS
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_pure_state_witness_stable_under_last_bit_change(da, db, seed):
    # The top operator-Schmidt coefficient of an entangled pure state is
    # degenerate; two roundings of the same density must give one witness.
    v = random_pure(da * db, seed).amplitudes
    column = v[:, None]
    witnesses = [
        synthesize_witness(BipartiteState(DensityMatrix(rho), (da, db)))
        for rho in (np.outer(v, v.conj()), column @ column.conj().T)
    ]
    w1, w2 = witnesses
    np.testing.assert_allclose(w1.e.matrix, w2.e.matrix, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w1.f.matrix, w2.f.matrix, rtol=0, atol=1e-12)
