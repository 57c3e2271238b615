"""Dense complex linear-algebra kernels for small multipartite operators.

Everything here works on plain ``numpy.ndarray`` values (complex128, row
major).  The composite index convention is fixed globally: an index on a
tensor-product space decomposes as ``i = a * db + b`` with the first factor
varying slowest, and every higher-level module inherits it.  All functions
are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DimPair",
    "EigDecomposition",
    "SvdDecomposition",
    "HERMITIAN_TOL",
    "tensor_product",
    "partial_trace",
    "multi_partial_trace",
    "hermitian_eig",
    "svd",
    "hermitian_basis",
    "operator_to_coefficient_matrix",
    "coefficient_matrix_to_operator",
    "require_hermitian",
]

#: Scale-relative Frobenius tolerance for Hermiticity checks.
HERMITIAN_TOL = 1e-9

# Eigenvalues / singular values closer than this (relative to the largest)
# are treated as one degenerate cluster for deterministic ordering.
_TIE_TOL = 1e-12


class DimPair(NamedTuple):
    """Dimensions of the two tensor factors; composite index is a * db + b."""

    da: int
    db: int

    @property
    def total(self) -> int:
        return self.da * self.db


class EigDecomposition(NamedTuple):
    """Spectral data of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # unitary; one eigenvector per column

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


class SvdDecomposition(NamedTuple):
    """Full singular value decomposition M = U diag(s) V^dagger."""

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        k = self.singular_values.size
        u = self.left_vectors[:, :k]
        v = self.right_vectors[:, :k]
        return (u * self.singular_values) @ v.conj().T


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def _as_square(m) -> np.ndarray:
    a = _as_complex(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the matrix unchanged or raise if it is not Hermitian.

    The check is scale invariant: the defect is compared against
    ``tol * max(1, ||m||_F)``.
    """
    a = _as_square(m)
    defect = float(np.linalg.norm(a - a.conj().T))
    scale = max(1.0, float(np.linalg.norm(a)))
    if defect > tol * scale:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{tol:.1e} * max(1, norm)"
        )
    return a


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the global slow-first index convention.

    ``(A (x) B)[a*rb + b, a'*cb + b'] == A[a, a'] * B[b, b']``.
    """
    return np.kron(_as_complex(a), _as_complex(b))


def multi_partial_trace(m, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    Parameters
    ----------
    m : array_like
        Square matrix on the full product space (dimension = prod(dims)).
    dims : sequence of int
        Dimension of each factor, slowest first.
    keep : iterable of int
        Indices of the factors to retain, in their original order.

    Returns
    -------
    numpy.ndarray
        Matrix on the kept factors; the total trace is preserved.
    """
    a = _as_square(m)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if a.shape[0] != total:
        raise ValueError(
            f"matrix dimension {a.shape[0]} does not match factor dims {dims}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must not be empty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    traced = [i for i in range(len(dims)) if i not in keep]
    t = a.reshape(*dims, *dims)
    nrow = len(dims)
    for i in reversed(traced):
        t = np.trace(t, axis1=i, axis2=i + nrow)
        nrow -= 1
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(d_keep, d_keep)


def partial_trace(m, dims: DimPair | Sequence[int], keep: str) -> np.ndarray:
    """Partial trace of a bipartite matrix, keeping subsystem "A" or "B"."""
    da, db = DimPair(*dims)
    if keep == "A":
        return multi_partial_trace(m, [da, db], [0])
    if keep == "B":
        return multi_partial_trace(m, [da, db], [1])
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def _lex_key(column: np.ndarray) -> tuple:
    """Total order on complex vectors: elementwise (real, imag) pairs."""
    return tuple(p for c in column for p in (float(c.real), float(c.imag)))


def _phase_fix_column(col: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero component is real positive."""
    nz = np.flatnonzero(np.abs(col) > 1e-12)
    if nz.size == 0:
        return col
    pivot = col[nz[0]]
    return col * (pivot.conjugate() / abs(pivot))


def _tie_clusters(values: np.ndarray) -> list[tuple[int, int]]:
    """Half-open index ranges of (near-)equal consecutive values."""
    clusters = []
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 1.0)
    i = 0
    while i < values.size:
        j = i + 1
        while j < values.size and abs(values[i] - values[j]) <= _TIE_TOL * scale:
            j += 1
        clusters.append((i, j))
        i = j
    return clusters


def hermitian_eig(m, tol: float = HERMITIAN_TOL) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are real and sorted descending.  Each eigenvector's phase is
    fixed (first nonzero component real positive) and degenerate clusters are
    ordered by the lexicographically smallest eigenvector, so the output is
    deterministic for a given input.
    """
    a = require_hermitian(m, tol)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        vecs[:, k] = _phase_fix_column(vecs[:, k])
    for lo, hi in _tie_clusters(vals):
        if hi - lo > 1:
            perm = sorted(range(lo, hi), key=lambda k: _lex_key(vecs[:, k]))
            vals[lo:hi] = vals[perm]
            vecs[:, lo:hi] = vecs[:, perm]
    return EigDecomposition(vals, vecs)


def svd(m) -> SvdDecomposition:
    """Full SVD with deterministic phases and degenerate-cluster ordering.

    Singular values are nonnegative and descending; ``left_vectors`` and
    ``right_vectors`` are full square unitaries (columns of U and V).
    """
    a = _as_complex(m)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    u, s, vh = np.linalg.svd(a)
    v = vh.conj().T
    k = s.size
    # Phase-fix paired columns jointly so U diag(s) V^dagger is unchanged.
    for j in range(k):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            phase = col[nz[0]].conjugate() / abs(col[nz[0]])
            u[:, j] = col * phase
            v[:, j] = v[:, j] * phase
    for j in range(k, u.shape[1]):
        u[:, j] = _phase_fix_column(u[:, j])
    for j in range(k, v.shape[1]):
        v[:, j] = _phase_fix_column(v[:, j])
    for lo, hi in _tie_clusters(s):
        if hi - lo > 1:
            perm = sorted(range(lo, hi), key=lambda j: _lex_key(u[:, j]))
            s[lo:hi] = s[perm]
            u[:, lo:hi] = u[:, perm]
            v[:, lo:hi] = v[:, perm]
    return SvdDecomposition(s, u, v)


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Hermitian operator basis, orthonormal in the Hilbert-Schmidt sense.

    Ordering: normalized identity first, then for each index pair j < k the
    symmetric and antisymmetric off-diagonal generators, then the diagonal
    generators.  For d == 2 this is exactly (I, sigma_x, sigma_y, sigma_z)
    divided by sqrt(2).
    """
    if d < 1:
        raise ValueError("basis dimension must be >= 1")
    ops = [np.eye(d, dtype=np.complex128) / math.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=np.complex128)
            sym[j, k] = sym[k, j] = 1.0 / math.sqrt(2.0)
            ops.append(sym)
            asym = np.zeros((d, d), dtype=np.complex128)
            asym[j, k] = -1j / math.sqrt(2.0)
            asym[k, j] = 1j / math.sqrt(2.0)
            ops.append(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -float(l)
        ops.append(np.diag(diag).astype(np.complex128) / math.sqrt(l * (l + 1)))
    return ops


def operator_to_coefficient_matrix(m, dims: DimPair | Sequence[int]) -> np.ndarray:
    """Coefficients of a bipartite operator in the Hermitian product basis.

    Returns the da^2 x db^2 matrix ``c`` with
    ``c[k, l] = Tr((G_k (x) H_l)^dagger M)``, so that
    ``M = sum_kl c[k, l] G_k (x) H_l``, where ``G`` and ``H`` are the
    :func:`hermitian_basis` of each factor.
    """
    dims = DimPair(*dims)
    a = _as_square(m)
    if a.shape[0] != dims.total:
        raise ValueError(
            f"matrix dimension {a.shape[0]} does not match dims {dims}"
        )
    ga = np.stack(hermitian_basis(dims.da)).reshape(dims.da * dims.da, -1)
    hb = np.stack(hermitian_basis(dims.db)).reshape(dims.db * dims.db, -1)
    # R[(a,a'), (b,b')] = M[(a,b), (a',b')]
    r = (
        a.reshape(dims.da, dims.db, dims.da, dims.db)
        .transpose(0, 2, 1, 3)
        .reshape(dims.da * dims.da, dims.db * dims.db)
    )
    return ga.conj() @ r @ hb.conj().T


def coefficient_matrix_to_operator(
    c,
    basis_a: Sequence[np.ndarray],
    basis_b: Sequence[np.ndarray],
) -> np.ndarray:
    """Recombine a coefficient matrix into the bipartite operator it encodes."""
    c = _as_complex(c)
    ga = np.stack([_as_complex(b) for b in basis_a])
    hb = np.stack([_as_complex(b) for b in basis_b])
    da = ga.shape[1]
    db = hb.shape[1]
    if c.shape != (ga.shape[0], hb.shape[0]):
        raise ValueError(
            f"coefficient shape {c.shape} does not match basis sizes "
            f"({ga.shape[0]}, {hb.shape[0]})"
        )
    out = np.einsum("kl,kab,lcd->acbd", c, ga, hb, optimize=True)
    return out.reshape(da * db, da * db)
