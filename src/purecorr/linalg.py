"""Dense complex linear-algebra kernels for small multipartite operators.

Everything here works on plain ``numpy.ndarray`` values (complex128, row
major; real input stays float64).  The composite index convention is fixed
globally: an index on a tensor-product space decomposes as
``i = a * db + b`` with the first factor varying slowest, and every
higher-level module inherits it.  All functions
are pure and never mutate their inputs.
"""

from __future__ import annotations

import functools
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
    "require_hermitian",
]

#: Scale-relative Frobenius tolerance for Hermiticity checks.
HERMITIAN_TOL = 1e-9

# Eigenvalues / singular values closer than this (relative to the largest)
# form one degenerate cluster, whose vectors are rebuilt from its span.
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
    """Thin singular value decomposition M = U diag(s) V^dagger.

    For an m x n matrix, U and V each have min(m, n) orthonormal columns.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u, v = self.left_vectors, self.right_vectors
        return (u * self.singular_values) @ v.conj().T


def _as_complex(m) -> np.ndarray:
    return np.asarray(m, dtype=np.complex128)


def _as_matrix(m, stacked: bool = False) -> np.ndarray:
    """A 2-D float64 or complex128 array, or with ``stacked`` a 3-D stack of
    them; real input stays real."""
    a = np.asarray(m)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim != 2 + stacked:
        what = "a stack of matrices" if stacked else "a matrix"
        raise ValueError(f"expected {what}, got shape {a.shape}")
    return a


def _as_square(m, stacked: bool = False) -> np.ndarray:
    a = _as_matrix(m, stacked)
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _first_failure(bad: np.ndarray) -> tuple[int, str] | None:
    """Flat index and message prefix of the first set flag of ``bad``, or None.

    ``bad`` holds one flag per matrix: 0-d for a single matrix, whose
    messages get no prefix, or 1-d for a stack, whose messages name the
    index of the first failing matrix.
    """
    if not bad.any():
        return None
    if bad.ndim == 0:
        return 0, ""
    k = int(np.argmax(bad))
    return k, f"stack index {k}: "


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous ``(..., n, n)`` array."""
    v = x.view(np.float64)
    return np.sqrt((v * v).sum(axis=(-2, -1)))


def require_hermitian(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Return the matrix made exactly Hermitian, or raise if it is not Hermitian.

    The library's one Hermiticity decision.  Exact input comes back bit for
    bit; input within tolerance as its Hermitian part, each entry unequal
    to its mirrored adjoint replaced by their mean.  The check is scale
    invariant: the defect is compared against ``HERMITIAN_TOL * max(1,
    ||m||_F)``.  Entries above 1 are first divided by the largest magnitude,
    so that neither norm overflows near the top of the float range.
    Non-finite entries are rejected, with ``name`` naming the values in that
    message.  With ``stacked``, ``m`` is a ``(T, n, n)`` stack, each matrix
    is judged alone, and a message names the index of the first one that
    fails.
    """
    a = _as_square(m, stacked)
    peak = np.abs(a).max(axis=(-2, -1), initial=0.0)
    finite = np.isfinite(peak)
    if not finite.all():
        raise ValueError(f"{_first_failure(~finite)[1]}{name} entries must be finite")
    adj = a.conj().swapaxes(-1, -2)
    exact = a == adj
    if exact.all():
        return a
    scale = np.maximum(peak, 1.0)
    unit = a / scale[..., None, None]
    defect = _frobenius(unit - unit.conj().swapaxes(-1, -2))
    # A scaled matrix has an entry of modulus 1, so max(1, norm) here is
    # max(1, ||m||_F) in the units of m.
    failed = _first_failure(defect > HERMITIAN_TOL * np.maximum(_frobenius(unit), 1.0))
    if failed:
        k, where = failed
        worst = float(defect.reshape(-1)[k]) * float(scale.reshape(-1)[k])
        raise ValueError(
            f"{where}matrix is not Hermitian: defect {worst:.3e} exceeds "
            f"{HERMITIAN_TOL:.1e} * max(1, norm)"
        )
    # halved first, so that no sum overflows near the top of the float range
    return np.where(exact, a, a / 2 + adj / 2)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the global slow-first index convention.

    ``(A (x) B)[a*rb + b, a'*cb + b'] == A[a, a'] * B[b, b']``.  Leading
    axes are a stack: ``(..., ra, ca)`` and ``(..., rb, cb)`` give
    ``(..., ra*rb, ca*cb)``, one product per stacked (broadcast) pair.  One
    broadcast multiply, bit for bit ``np.kron`` on single matrices.
    """
    a, b = _as_complex(a), _as_complex(b)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], ra * rb, ca * cb)


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


def _column_phases(vecs: np.ndarray) -> np.ndarray:
    """Unit factors that make each column's first nonzero component real positive.

    The columns are unit vectors, so each has a component above 1e-12 in
    magnitude.  For real input the factors are +-1 and real vectors stay real.
    """
    first = np.argmax(np.abs(vecs) > 1e-12, axis=0)
    pivot = vecs[first, np.arange(vecs.shape[1])]
    return pivot.conjugate() / np.abs(pivot)


def _tie_clusters(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open index ranges of sorted values within ``tol`` of their first."""
    clusters = []
    i = 0
    while i < values.size:
        j = i + 1
        while j < values.size and abs(values[i] - values[j]) <= tol:
            j += 1
        clusters.append((i, j))
        i = j
    return clusters


def _canonical_vectors(
    values: np.ndarray, vecs: np.ndarray, *paired: np.ndarray
) -> None:
    """Fix, in place, the phase of each column and the basis of each tie cluster.

    A cluster is a run of values that differ from its first by at most
    ``_TIE_TOL`` times the largest magnitude (no floor).  Its columns Q are
    rebuilt from the projector P = Q Q^dagger alone, so they depend on the
    span and not on how the solver rotated it: Gram-Schmidt runs on the
    columns of P, each step taking the first column whose residual norm is
    within a relative 1e-9 of the largest, and the result B gets the phase
    rule.  Each ``paired`` array (the right vectors of an SVD) takes the same
    phases and the same change of basis Q^dagger B, so the decomposition is
    unchanged.
    """
    phases = _column_phases(vecs)
    for a in (vecs, *paired):
        a *= phases
    tol = _TIE_TOL * float(np.max(np.abs(values), initial=0.0))
    for lo, hi in _tie_clusters(values, tol):
        if hi - lo > 1:
            q = vecs[:, lo:hi]
            residual = q @ q.conj().T
            basis = np.empty_like(q)
            for k in range(hi - lo):
                # The residual stays a projector R, so ||R e_j||^2 = R_jj and
                # removing a unit vector b of its range leaves R - b b^dagger.
                sq = residual.diagonal().real
                j = int(np.argmax(sq >= (1.0 - 1e-9) ** 2 * sq.max()))
                basis[:, k] = residual[:, j] / math.sqrt(sq[j])
                residual -= np.outer(basis[:, k], basis[:, k].conj())
            basis *= _column_phases(basis)
            rotation = q.conj().T @ basis
            for a in paired:
                a[:, lo:hi] = a[:, lo:hi] @ rotation
            vecs[:, lo:hi] = basis


def hermitian_eig(m) -> EigDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is made exactly Hermitian by :func:`require_hermitian`.
    Eigenvalues are real and sorted descending.  Each eigenvector's phase is
    fixed (first nonzero component real positive) and the eigenvectors of a
    degenerate cluster depend only on its eigenspace, so the output does not
    depend on how the solver chose a basis inside it.  Real symmetric input
    gives real eigenvectors.
    """
    return _hermitian_eig(require_hermitian(m))


def _hermitian_eig(a: np.ndarray) -> EigDecomposition:
    """:func:`hermitian_eig` of a matrix the library has already validated.

    ``a`` is a square float64 or complex128 array known to be Hermitian,
    such as the matrix of a ``DensityMatrix`` or an ``Observable``; it is
    not checked again.
    """
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    _canonical_vectors(vals, vecs)
    return EigDecomposition(vals, vecs)


def svd(m) -> SvdDecomposition:
    """Thin SVD with deterministic phases and degenerate-cluster bases.

    Singular values are nonnegative and descending; ``left_vectors`` and
    ``right_vectors`` hold min(m, n) orthonormal columns each, real for
    real input.  Each left vector's first nonzero component is real
    positive, and the left vectors of a degenerate cluster depend only on
    their span; the right vectors follow their left partners, so
    U diag(s) V^dagger is unchanged.
    """
    a = _as_matrix(m)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().T
    _canonical_vectors(s, u, v)
    return SvdDecomposition(s, u, v)


def _top_singular_vectors(
    s: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First left and right singular vectors of each SVD in a stack, canonical.

    ``s``, ``u`` and ``v`` are ``(T, k)``, ``(T, m, k)`` and ``(T, n, k)``
    stacks as from ``np.linalg.svd`` (``v`` holds the right vectors as
    columns).  Returns ``(T, m)`` and ``(T, n)``: for each SVD the column 0
    that :func:`svd` would give, bit for bit.  Only the top tie cluster
    matters for it; a cluster of one needs only the phase rule, applied
    to the whole stack at once, and a degenerate one is rebuilt by
    :func:`_canonical_vectors` on that cluster alone.  Inputs are not
    modified.
    """
    u0, v0 = u[:, :, 0].T, v[:, :, 0].T  # column t: state t's vectors
    phases = _column_phases(u0)
    u0, v0 = u0 * phases, v0 * phases
    top = s[:, :1]
    sizes = np.count_nonzero(np.abs(top - s) <= _TIE_TOL * top, axis=1)
    for t in np.flatnonzero(sizes > 1):
        k = sizes[t]
        ut, vt = u[t, :, :k].copy(), v[t, :, :k].copy()
        _canonical_vectors(s[t, :k], ut, vt)
        u0[:, t], v0[:, t] = ut[:, 0], vt[:, 0]
    return u0.T, v0.T


@functools.cache
def hermitian_basis(d: int) -> np.ndarray:
    """Hermitian operator basis, orthonormal in the Hilbert-Schmidt sense.

    Returns a read-only ``(d*d, d, d)`` stack, built once per dimension and
    shared by every caller.  Ordering: normalized identity first, then for
    each index pair j < k the symmetric and antisymmetric off-diagonal
    generators, then the diagonal generators.  For d == 2 this is exactly
    (I, sigma_x, sigma_y, sigma_z) divided by sqrt(2).
    """
    if d < 1:
        raise ValueError("basis dimension must be >= 1")
    ops = np.zeros((d * d, d, d), dtype=np.complex128)
    ops[0] = np.eye(d, dtype=np.complex128) / math.sqrt(d)
    n = 1
    for j in range(d):
        for k in range(j + 1, d):
            ops[n, j, k] = ops[n, k, j] = 1.0 / math.sqrt(2.0)
            ops[n + 1, j, k] = -1j / math.sqrt(2.0)
            ops[n + 1, k, j] = 1j / math.sqrt(2.0)
            n += 2
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -float(l)
        ops[n] = np.diag(diag).astype(np.complex128) / math.sqrt(l * (l + 1))
        n += 1
    ops.flags.writeable = False
    return ops


def operator_to_coefficient_matrix(m, dims: DimPair | Sequence[int]) -> np.ndarray:
    """Coefficients of a bipartite operator in the Hermitian product basis.

    Returns the da^2 x db^2 matrix ``c`` with
    ``c[k, l] = Tr((G_k (x) H_l)^dagger M)``, so that
    ``M = sum_kl c[k, l] G_k (x) H_l``, where ``G`` and ``H`` are the
    :func:`hermitian_basis` of each factor.  A ``(..., n, n)`` stack of
    operators gives a ``(..., da^2, db^2)`` stack, each entry bit for bit
    the coefficients of that operator alone.
    """
    dims = DimPair(*dims)
    a = np.asarray(m)
    if a.ndim < 2 or a.shape[-2:] != (dims.total, dims.total):
        raise ValueError(
            f"operator shape {a.shape} does not match dims {dims}: expected "
            f"(..., {dims.total}, {dims.total})"
        )
    ga = hermitian_basis(dims.da).reshape(dims.da * dims.da, -1)
    hb = hermitian_basis(dims.db).reshape(dims.db * dims.db, -1)
    # R[(a,a'), (b,b')] = M[(a,b), (a',b')]
    batch = a.shape[:-2]
    r = (
        a.reshape(*batch, dims.da, dims.db, dims.da, dims.db)
        .swapaxes(-3, -2)
        .reshape(*batch, dims.da * dims.da, dims.db * dims.db)
    )
    return ga.conj() @ r @ hb.conj().T
