"""Property tests for the deterministic decompositions in purecorr.linalg.

Inputs are real and complex random matrices scaled by 10^-k for k up to 30,
so the ordering and phase rules are exercised far below unit scale, where
an absolute tie threshold would merge every value into one cluster.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.linalg import hermitian_eig, svd

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
