"""Validated quantum-state types, canonical examples and seeded generators.

States and observables are immutable after construction (arrays are marked
read-only) and validation happens once, in the constructor, at the boundary
where a value enters the library.  Values derived from validated ones
(marginals, correlation operators, Schmidt factors) are built with
:func:`_trusted` and are not checked again.  Every random generator is a
seeded ``numpy.random.default_rng`` (PCG64); the generator name is recorded
in verification reports so seeds quoted there are reproducible.  Both
verification campaigns take their argument check, per-trial seeds, stack
budget and validated draw of states from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DimPair,
    _first_failure,
    partial_trace,
    require_hermitian,
    tensor_product,
)

__all__ = [
    "GENERATOR_NAME",
    "TRACE_TOL",
    "NORM_TOL",
    "PSD_TOL",
    "DensityMatrix",
    "Observable",
    "BipartiteState",
    "PureState",
    "from_pure",
    "example_source_state",
    "ghz",
    "random_pure",
    "random_density",
    "random_product_state",
    "random_isometry",
    "random_unitary",
]

#: Name of the seeded RNG algorithm used everywhere (quoted in reports).
GENERATOR_NAME = "numpy-PCG64"

TRACE_TOL = 1e-9
NORM_TOL = 1e-9
#: Eigenvalues above -PSD_TOL count as nonnegative (eigensolver noise).
PSD_TOL = 1e-9
# Bytes of state matrices or vectors a campaign stacks in one pass; each result
# is that of a batch of one, so this budget changes none of them.
_STACK_BYTES = 1 << 24


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _trusted(cls, **fields):
    """An instance of ``cls`` whose fields are derived from validated values.

    Skips the constructor's validation, so the caller vouches for the
    invariants; array fields are marked read-only as the constructors do.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = _freeze(value)
        object.__setattr__(obj, name, value)
    return obj


def _validate_densities(m: np.ndarray, stacked: bool = False) -> np.ndarray:
    """``m`` made exactly Hermitian, or ValueError unless it is a density matrix.

    With ``stacked``, ``m`` is a ``(T, n, n)`` stack and every matrix must
    be one.  Each check (square, finite and Hermitian, unit trace,
    positive semidefinite) runs once on the whole stack, the last as one
    stacked ``eigvalsh``; a stack's message names the index of the first
    state that fails.  A single complex128 matrix is the batch of one,
    as :class:`DensityMatrix` validates it.
    """
    if m.ndim != 2 + stacked or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    m = require_hermitian(m, "density matrix", stacked)
    trace = m.diagonal(0, -2, -1).sum(-1)
    failed = _first_failure(np.abs(trace - 1.0) > TRACE_TOL)
    if failed:
        k, where = failed
        tr = complex(trace.reshape(-1)[k])
        raise ValueError(f"{where}density matrix trace must be 1, got {tr:.12g}")
    smallest = np.linalg.eigvalsh(m)[..., 0]
    failed = _first_failure(smallest < -PSD_TOL)
    if failed:
        k, where = failed
        raise ValueError(
            f"{where}density matrix is not positive semidefinite: "
            f"smallest eigenvalue {float(smallest.reshape(-1)[k]):.3e}"
        )
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _validate_densities(np.array(self.matrix, dtype=np.complex128))
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian matrix whose eigenvalues label measurement outcomes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = require_hermitian(np.array(self.matrix, dtype=np.complex128), "observable")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """A density matrix together with its two subsystem dimensions."""

    state: DensityMatrix
    dims: DimPair

    def __post_init__(self):
        dims = DimPair(*(int(d) for d in self.dims))
        if dims.da < 1 or dims.db < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
        if dims.total != self.state.dim:
            raise ValueError(
                f"dims {dims} do not match matrix dimension {self.state.dim}"
            )
        object.__setattr__(self, "dims", dims)

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    def marginal(self, keep: str) -> DensityMatrix:
        """Reduced state of subsystem "A" or "B"."""
        marginal = partial_trace(self.matrix, self.dims, keep)
        return _trusted(DensityMatrix, matrix=marginal)


def _split(amps: np.ndarray, dims: Sequence[int], rows: Sequence[int]) -> np.ndarray:
    """:meth:`PureState.split` of each vector of a ``(T, prod(dims))`` stack.

    Returns the ``(T, L, R)`` stack of matrices, ``L`` the product of the
    dimensions at ``rows``.
    """
    rows = sorted(set(rows))
    cols = [i for i in range(len(dims)) if i not in rows]
    t = amps.reshape(len(amps), *dims).transpose(0, *(1 + i for i in rows + cols))
    shape = (math.prod(dims[i] for i in part) for part in (rows, cols))
    return t.reshape(len(amps), *shape)


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector over labeled tensor factors.

    ``layout`` is a tuple of (label, dimension) pairs, slowest factor first,
    matching the global composite-index convention.
    """

    amplitudes: np.ndarray
    layout: tuple[tuple[str, int], ...]

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitudes must be finite")
        layout = tuple((str(lab), int(d)) for lab, d in self.layout)
        if not layout:
            raise ValueError("layout must contain at least one factor")
        labels = [lab for lab, _ in layout]
        if len(set(labels)) != len(labels):
            raise ValueError(f"layout labels must be unique, got {labels}")
        if any(d < 1 for _, d in layout):
            raise ValueError(f"factor dimensions must be >= 1, got {layout}")
        if math.prod(d for _, d in layout) != v.size:
            raise ValueError(
                f"layout {layout} does not match vector length {v.size}"
            )
        with np.errstate(over="ignore"):  # a norm beyond the double range is inf
            norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm must be 1, got {norm:.12g}")
        object.__setattr__(self, "amplitudes", _freeze(v))
        object.__setattr__(self, "layout", layout)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.layout)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.layout)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def split(self, rows: Sequence[int]) -> np.ndarray:
        """Amplitudes as a matrix whose rows run over the factors at ``rows``.

        The remaining factors index the columns; rows and columns each keep
        layout order.
        """
        return _split(self.amplitudes[None], self.factor_dims, rows)[0]

    def reduced(self, keep: Sequence[int]) -> np.ndarray:
        """Reduced density on the factors at ``keep``, trace-normalized.

        ``M M^dagger / Tr(M M^dagger)`` for ``M = split(keep)``, so the
        memory stays linear in the vector, unlike :meth:`density`.
        """
        m = self.split(keep)
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        return rho

    def density(self) -> np.ndarray:
        """Projector |psi><psi|, trace-normalized.

        Dividing by the computed trace keeps dyadic-rational entries exact
        (e.g. GHZ-type amplitudes square to 1/2 plus one ulp; the shared
        factor cancels in the division).
        """
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        rho /= np.trace(rho).real
        return rho


def from_pure(psi: PureState) -> DensityMatrix:
    """Density matrix of a pure state."""
    return DensityMatrix(psi.density())


def example_source_state() -> BipartiteState:
    """Two classically correlated qubits: even mixture of |00> and |11>."""
    m = np.zeros((4, 4), dtype=np.complex128)
    m[0, 0] = m[3, 3] = 0.5
    return BipartiteState(DensityMatrix(m), DimPair(2, 2))


def ghz() -> PureState:
    """The three-qubit state (|000> + |111>) / sqrt(2), factors (A, B, C)."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[0] = amps[7] = math.sqrt(0.5)
    return PureState(amps, (("A", 2), ("B", 2), ("C", 2)))


def random_pure(d: int, seed) -> PureState:
    """Haar-random unit vector of dimension d (normalized complex Gaussian)."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), (("A", int(d)),))


def _normals(seeds: Sequence, shape: tuple[int, ...]) -> np.ndarray:
    """``(len(seeds), *shape)`` standard normals, one generator per seed.

    Row ``t`` is one ``standard_normal`` draw of ``shape`` from
    ``default_rng(seeds[t])``, bit for bit the same values as consecutive
    smaller draws from that generator.
    """
    x = np.empty((len(seeds), *shape))
    for row, seed in zip(x, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return x


def _complex(x: np.ndarray) -> np.ndarray:
    """``x[:, 0] + 1j * x[:, 1]`` of a ``(T, 2, ...)`` stack, bit for bit."""
    z = np.empty(x[:, 0].shape, dtype=np.complex128)
    z.real, z.imag = x[:, 0], x[:, 1]
    return z


def _ginibre(x: np.ndarray) -> np.ndarray:
    """``G G^dagger / Tr`` for each ``G = x[t, 0] + i x[t, 1]`` of a ``(T, 2, n, r)`` stack."""
    g = _complex(x)
    m = g @ g.conj().swapaxes(-1, -2)
    m /= m.diagonal(0, -2, -1).sum(-1).real[:, None, None]
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _ginibre_densities(seeds: Sequence, dims: DimPair, rank: int) -> np.ndarray:
    """``(len(seeds), n, n)`` unvalidated rank-``rank`` Ginibre states, one per seed."""
    return _ginibre(_normals(seeds, (2, dims.total, rank)))


def _product_densities(seeds: Sequence, dims: DimPair) -> np.ndarray:
    """``(len(seeds), n, n)`` unvalidated products of full-rank Ginibre factors.

    Each seed's one draw holds A's real and imaginary parts, then B's.
    """
    da, db = dims
    x = _normals(seeds, (2 * da * da + 2 * db * db,))
    a = _ginibre(x[:, : 2 * da * da].reshape(len(x), 2, da, da))
    b = _ginibre(x[:, 2 * da * da :].reshape(len(x), 2, db, db))
    return tensor_product(a, b)


def random_density(dims: DimPair | Sequence[int], rank: int, seed) -> BipartiteState:
    """Random rank-r bipartite state: G G^dagger / Tr with Gaussian G."""
    dims = DimPair(*dims)
    rank = int(rank)
    if not 1 <= rank <= dims.total:
        raise ValueError(f"rank must be in [1, {dims.total}], got {rank}")
    return BipartiteState(DensityMatrix(_ginibre_densities([seed], dims, rank)[0]), dims)


def random_product_state(dims: DimPair | Sequence[int], seed) -> BipartiteState:
    """Exactly factorable random state: independent full-rank factors."""
    dims = DimPair(*dims)
    return BipartiteState(DensityMatrix(_product_densities([seed], dims)[0]), dims)


def _campaign_dims(dims: DimPair | Sequence[int], trials: int) -> DimPair:
    """A campaign's ``dims`` as a DimPair, after checking it and ``trials``."""
    dims = DimPair(*dims)
    if dims.da < 1 or dims.db < 1:
        raise ValueError(f"subsystem dimensions must be >= 1, got {dims}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return dims


def _sub_seeds(seed, n: int) -> list[int]:
    """Deterministic per-trial integer seeds derived from one campaign seed."""
    return np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64).tolist()


def _chunks(count: int, item_bytes: int) -> list[range]:
    """``range(count)`` in consecutive stacks of ``_STACK_BYTES``, one item at least."""
    size = max(1, _STACK_BYTES // item_bytes)
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


def _campaign_states(
    ginibre_seeds: Sequence, product_seeds: Sequence, dims: DimPair
) -> np.ndarray:
    """One validated stack: ``random_density(dims, dims.total, s)`` of each Ginibre
    seed, then ``random_product_state(dims, s)`` of each product seed, bit for bit."""
    rhos = np.concatenate([_ginibre_densities(ginibre_seeds, dims, dims.total),
                           _product_densities(product_seeds, dims)])
    return _validate_densities(rhos, stacked=True)


def _isometries(seeds: Sequence, d: int, r: int) -> np.ndarray:
    """``(len(seeds), d, r)`` Haar-random isometries, one per seed.

    One normal draw per seed, then one stacked thin QR of the ``d x r``
    complex Gaussians, with the phases fixed by making each R's diagonal
    real positive (without that correction plain QR is not
    Haar-distributed).  Matrix ``t`` is bit for bit ``random_isometry(d,
    r, seeds[t])``.
    """
    q, upper = np.linalg.qr(_complex(_normals(seeds, (2, d, r))))
    phases = np.diagonal(upper, 0, -2, -1).copy()
    phases /= np.abs(phases)
    q *= phases[:, None, :]
    return q


def random_isometry(d: int, r: int, seed) -> np.ndarray:
    """Haar-random isometry: ``d x r`` with orthonormal columns.

    The batch of one of :func:`_isometries`.  Its columns are distributed
    as the first ``r`` columns of a Haar unitary, at O(d r^2) cost instead
    of O(d^3).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 1 <= r <= d:
        raise ValueError(f"isometry width must be in [1, {d}], got {r}")
    return _isometries([seed], d, r)[0]


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-random unitary: the square case ``random_isometry(d, d, seed)``."""
    return random_isometry(d, d, seed)
