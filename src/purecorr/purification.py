"""Purification constructions and pure-state entanglement across cuts.

The central objects are spectral purifications (minimal ancilla), factored
purifications of product states (one ancilla per subsystem), the unitary
freedom on the ancillas, and Schmidt data of a pure state across a labeled
bipartition.  On top of those sits a seeded campaign checking that every
sampled purification of a non-factorable state is entangled across the
(A C1 | B C2) cut, while factorable states admit an unentangled one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .correlation import FACTORABLE_TOL, correlation_operator
from .linalg import (
    DimPair,
    _first_failure,
    _frobenius,
    _hermitian_eig,
    tensor_product,
)
from .reports import TheoremReport
from .states import (
    NORM_TOL,
    BipartiteState,
    DensityMatrix,
    PureState,
    _campaign_dims,
    _campaign_states,
    _chunks,
    _isometries,
    _split,
    _sub_seeds,
    _trusted,
)

__all__ = [
    "RANK_TOL",
    "RECOVERY_TOL",
    "UNITARY_TOL",
    "EntanglementReport",
    "Purification",
    "purify",
    "factored_purification",
    "embed_ancilla",
    "apply_ancilla_unitary",
    "cut_entanglement",
    "verify_purification_entanglement",
    "entanglement_campaign",
]

#: Singular values above this count toward the Schmidt rank.
RANK_TOL = 1e-7
#: Frobenius tolerance for tracing a purification back to its state.
RECOVERY_TOL = 1e-10
#: Frobenius tolerance (times sqrt(columns)) for unitarity and isometry checks.
UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Schmidt data of a pure state across one cut."""

    schmidt_coefficients: np.ndarray
    schmidt_rank: int
    entropy_bits: float
    entangled: bool


@dataclass(frozen=True, eq=False)
class Purification:
    """A pure state whose ancilla trace-out recovers a recorded mixed state.

    Ancilla factors are the ones whose label starts with "C".  Construction
    re-checks the recovery contract, as the identity trial of
    :func:`_ancilla_trials`, so a Purification value is trustworthy wherever
    it flows.
    """

    state: PureState
    original: BipartiteState

    def __post_init__(self):
        system = self.system_positions
        if not system or len(system) == len(self.state.layout):
            raise ValueError("purification needs system and ancilla factors")
        m = self.state.split(system)
        _ancilla_trials(m, self.original.matrix, np.eye(m.shape[1])[None], stacked=False)

    @property
    def system_positions(self) -> list[int]:
        """Layout positions of the system factors (labels not starting with "C")."""
        return [
            i for i, lab in enumerate(self.state.labels) if not lab.startswith("C")
        ]

    @property
    def ancilla_dim(self) -> int:
        """Combined dimension of the ancilla factors."""
        dims = self.state.factor_dims
        return self.state.dim // math.prod(dims[i] for i in self.system_positions)


def _clipped_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues p_k with noise clipped to 0, renormalized, and the
    matrix of purifying columns sqrt(p_k) e_k.

    Negative eigenvalues and those up to ``n * eps * lambda_max`` (the
    rounding level, as in ``np.linalg.matrix_rank``) are noise.  Clipping
    moves a positive semidefinite state by under ``2 n^2 eps lambda_max``
    (4e-12 at n = 100), inside ``RECOVERY_TOL``.
    """
    eig = _hermitian_eig(matrix)
    lam = eig.eigenvalues
    lam = np.where(lam > lam.size * np.finfo(float).eps * lam[0], lam, 0.0)
    lam = lam / lam.sum()
    return lam, eig.eigenvectors * np.sqrt(lam)


def _factored_amplitudes(rho_a: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """``(n, n)`` amplitudes of |phi1>_{A C1} (x) |phi2>_{B C2}: rows (A, B),
    columns (C1, C2), each factor purified with an ancilla of its own size."""
    (_, phi1), (_, phi2) = map(_clipped_spectrum, (rho_a, rho_b))
    return np.einsum("ac,bd->abcd", phi1, phi2).reshape(len(rho_a) * len(rho_b), -1)


def purify(state: BipartiteState | DensityMatrix) -> Purification:
    """Spectral purification with minimal ancilla (dimension = rank).

    Builds sum_k sqrt(p_k) |e_k>|k> over the eigenpairs with p_k > 0 after
    clipping; the layout is (("AB", n), ("C", rank)).
    """
    if isinstance(state, DensityMatrix):
        state = BipartiteState(state, DimPair(state.dim, 1))
    lam, amps = _clipped_spectrum(state.matrix)
    amps = amps[:, lam > 0.0]
    layout = (("AB", amps.shape[0]), ("C", amps.shape[1]))
    return Purification(PureState(amps, layout), state)


def factored_purification(
    rho_a: DensityMatrix, rho_b: DensityMatrix
) -> Purification:
    """Unentangled purification of a product state.

    Purifies each factor with an ancilla of the same dimension and tensors
    the results, giving |phi1>_{A C1} (x) |phi2>_{B C2} on the layout
    (A, B, C1, C2); its total dimension is the square of the system's.
    The (A C1 | B C2) cut has Schmidt rank 1 by construction.
    """
    amps = _factored_amplitudes(rho_a.matrix, rho_b.matrix)
    da, db = rho_a.dim, rho_b.dim
    layout = (("A", da), ("B", db), ("C1", da), ("C2", db))
    kron = _trusted(DensityMatrix, matrix=tensor_product(rho_a.matrix, rho_b.matrix))
    product = BipartiteState(kron, DimPair(da, db))
    return Purification(PureState(amps, layout), product)


def embed_ancilla(p: Purification, ancilla_dims: tuple[int, int]) -> Purification:
    """Split a single-ancilla purification into two labeled ancilla factors.

    Zero-pads the ancilla basis of a (("AB", n), ("C", r)) purification into
    C1 (x) C2 with the given dimensions (product must be >= r) and relabels
    the system block using the original subsystem dimensions, yielding the
    (A, B, C1, C2) layout.
    """
    labels = p.state.labels
    if labels != ("AB", "C"):
        raise ValueError(f"expected layout (AB, C), got {labels}")
    c1, c2 = (int(d) for d in ancilla_dims)
    if c1 < 1 or c2 < 1:
        raise ValueError(f"ancilla dimensions must be >= 1, got ({c1}, {c2})")
    (_, n), (_, r) = p.state.layout
    if c1 * c2 < r:
        raise ValueError(f"ancilla product {c1}x{c2} cannot hold rank {r}")
    da, db = p.original.dims
    padded = np.zeros((n, c1 * c2), dtype=np.complex128)
    padded[:, :r] = p.state.split([0])
    # exact zeros keep the norm and reduced state that p's construction checked
    layout = (("A", da), ("B", db), ("C1", c1), ("C2", c2))
    state = _trusted(PureState, amplitudes=padded.reshape(-1), layout=layout)
    return _trusted(Purification, state=state, original=p.original)


def _ancilla_trials(
    base: np.ndarray, original: np.ndarray, us: np.ndarray, stacked: bool = True
) -> np.ndarray:
    """``(T, n, dc)`` system x ancilla amplitudes: an ``(n, r)`` base under
    each isometry of a ``(T, dc, r)`` stack.

    Trial ``t`` is ``base @ us[t].T``; ``np.eye(dc, r)`` gives the base
    zero-padded, bit for bit.  Each check runs once on the whole stack: the
    isometries' columns are orthonormal, and every result is a finite unit
    vector whose ancilla trace-out recovers the ``original`` matrix, so an
    identity row 0 checks the base.  With ``stacked``, a message names the
    index in ``us`` of the first failure; without it, ``us`` holds one
    isometry and the messages are those of a single one.
    """

    def failure(bad: np.ndarray):
        return _first_failure(bad if stacked else bad[0])

    dc, r = us.shape[1:]
    gram = us.conj().swapaxes(-1, -2) @ us
    gram -= np.eye(r)
    defect = _frobenius(gram)
    failed = failure(defect > UNITARY_TOL * math.sqrt(r))
    if failed:
        k, where = failed
        raise ValueError(
            f"{where}matrix is not unitary: columns miss orthonormality by "
            f"{float(defect[k]):.3e}"
        )

    trials = base @ us.swapaxes(-1, -2)  # row s becomes U @ psi[s, :]
    # a product can flip a zero's sign, and so the cut SVD: an eye row is the
    # base, padded with exact zeros
    eye = (us == np.eye(dc, r)).all((-2, -1))
    trials[eye] = 0.0
    trials[eye, :, :r] = base

    # the system's reduced states, as PureState.reduced computes them; their
    # traces are the squared norms of the vectors
    rho = trials @ trials.conj().swapaxes(-1, -2)
    squares = rho.diagonal(0, -2, -1).sum(-1).real
    norms = np.sqrt(squares)
    failed = failure(~np.isfinite(norms))
    if failed:
        raise ValueError(f"{failed[1]}amplitudes must be finite")
    failed = failure(np.abs(norms - 1.0) > NORM_TOL)
    if failed:
        k, where = failed
        raise ValueError(f"{where}state vector norm must be 1, got {norms[k]:.12g}")
    rho /= squares[:, None, None]
    defect = _frobenius(rho - original / original.trace().real)
    failed = failure(defect > RECOVERY_TOL)
    if failed:
        k, where = failed
        raise ValueError(
            f"{where}tracing out the ancillas misses the original state by "
            f"{float(defect[k]):.3e} (Frobenius)"
        )
    return trials


def apply_ancilla_unitary(p: Purification, u) -> Purification:
    """Apply a unitary or isometry U on the combined ancilla factors.

    ``u`` is ``dc x r`` with orthonormal columns, ``1 <= r <= dc``, and maps
    the first ``r`` ancilla basis states into the whole ancilla; ``r = dc``
    is I (x) U.  Every amplitude must lie in those first ``r`` columns (a
    zero-padded purification, see :func:`embed_ancilla`), else this raises
    rather than drop it.  The result purifies the same original state;
    that contract is re-checked.  The batch of one of the trial kernel of
    :func:`verify_purification_entanglement`, plus the support check and
    the reordering into p's layout that only this caller needs.
    """
    dc = p.ancilla_dim
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != dc or not 1 <= u.shape[1] <= dc:
        raise ValueError(
            f"unitary shape {u.shape} does not match ancilla dimension {dc}"
        )
    r = u.shape[1]
    system = p.system_positions
    m = p.state.split(system)
    if np.any(m[:, r:]):
        raise ValueError(
            f"amplitude outside the first {r} ancilla basis states, "
            f"which a {dc}x{r} isometry does not act on"
        )
    (trial,) = _ancilla_trials(m[:, :r], p.original.matrix, u[None], stacked=False)
    dims = p.state.factor_dims
    perm = system + [i for i in range(len(dims)) if i not in system]
    amps = trial.reshape([dims[i] for i in perm]).transpose(np.argsort(perm))
    state = _trusted(PureState, amplitudes=amps.reshape(-1), layout=p.state.layout)
    return _trusted(Purification, state=state, original=p.original)


def _cut_reports(
    amps: np.ndarray, dims: tuple[int, ...], rows: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schmidt data of each vector of a ``(T, dim)`` stack across one cut.

    ``rows`` are the layout positions on the left of the cut.  Returns the
    ``(T, k)`` Schmidt coefficients, the ``(T,)`` Schmidt ranks and the
    ``(T,)`` entropies in bits, from one ``np.linalg.svd`` of all T cut
    matrices.
    """
    m = _split(amps, dims, rows)
    s = np.linalg.svd(m, compute_uv=False)
    lam = s * s
    sums = lam.sum(-1)
    failed = _first_failure(np.abs(np.sqrt(sums) - 1.0) > NORM_TOL)
    if failed:
        raise ValueError(f"squared Schmidt coefficients sum to {sums[failed[0]]:.12g}")
    # A squared coefficient within rounding of 1 or of 0 carries no
    # entropy, only noise: the singular values are accurate to about
    # max(shape) * eps, so only those measurably above 0 whose squares sit
    # measurably below 1 count.  The sum is then never negative or -0.0.
    noise = max(m.shape[1:]) * np.finfo(float).eps
    bits = -lam * np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    measurable = (lam > noise * noise) & (lam < 1.0 - noise)
    entropy = np.where(measurable, bits, 0.0).sum(-1)
    rank = np.count_nonzero(s > RANK_TOL, axis=-1)
    return s, rank, entropy


def cut_entanglement(psi: PureState, left: Iterable[str]) -> EntanglementReport:
    """Schmidt coefficients, rank and entropy of a pure state across a cut.

    The cut is named by the labels of its left side; every other factor is
    on the right.  Left factors are grouped (in layout order), the amplitude
    vector is reshaped to a left x right matrix, and the singular values of
    that matrix are the Schmidt coefficients.  A state is entangled across
    the cut when more than one coefficient exceeds ``RANK_TOL``.
    """
    labels = psi.labels
    left = frozenset(str(lab) for lab in left)
    if not left.issubset(labels):
        raise ValueError(
            f"cut {sorted(left)} does not match layout labels {list(labels)}"
        )
    if not left or left == set(labels):
        raise ValueError("both sides of a cut must be nonempty")
    rows = [i for i, lab in enumerate(labels) if lab in left]
    (s,), (rank,), (entropy,) = _cut_reports(psi.amplitudes[None], psi.factor_dims, rows)
    s.flags.writeable = False
    return EntanglementReport(s, int(rank), float(entropy), bool(rank > 1))


def _verdict(
    rho: BipartiteState, trials: int, seed, factorable_tol: float
) -> tuple[bool, int, list[str], dict[str, float]]:
    """Theorem 1 on one state: factorable, support width r, counterexamples
    and stats.

    One correlation pass judges the state and, for a factorable one, gives
    the marginals to purify.  The base is the ``(n, r)`` amplitude matrix of the factored or the
    spectral purification.  The identity, then the ``trials`` isometries,
    form one stack in chunks of ``states._chunks``: one draw, one pass of
    :func:`_ancilla_trials` (checking the base as row 0) and one SVD of the
    ``(A C1 | B C2)`` cuts read straight from the trial stack.
    """
    corr = correlation_operator(rho)
    factorable = corr.frobenius_norm <= factorable_tol
    da, db = rho.dims
    if factorable:
        base = _factored_amplitudes(corr.rho_a, corr.rho_b)
        original = tensor_product(corr.rho_a, corr.rho_b)
        c1, c2 = da, db
    else:
        lam, base = _clipped_spectrum(rho.matrix)
        base = base[:, lam > 0.0]
        original = rho.matrix
        c1 = c2 = da * db
    n, support = base.shape
    dc = c1 * c2
    seeds = _sub_seeds(seed, trials)

    # Row 0 is the identity, row i + 1 trial i.
    cuts = []
    for rows in _chunks(trials + 1, 16 * n * dc):
        us = _isometries(seeds[max(rows.start, 1) - 1 : rows.stop - 1], dc, support)
        if rows.start == 0:
            us = np.concatenate([np.eye(dc, support)[None], us])
        amps = _ancilla_trials(base, original, us).reshape(len(us), n * dc)
        cuts.append(_cut_reports(amps, (da, db, c1, c2), [0, 2]))
    _, rank, entropy = (np.concatenate(x) for x in zip(*cuts))

    if factorable:
        counterexamples = [
            f"factored purification is entangled: rank {rank[0]}, "
            f"entropy {entropy[0]:.6g} bits"
        ] if rank[0] > 1 else []
    else:
        counterexamples = [
            f"unentangled purification at trial "
            f"{f'haar[{t - 1}]' if t else 'identity'}: entropy {entropy[t]:.6g} bits"
            for t in np.flatnonzero(rank <= 1)
        ]
    stats = {
        "factorable": float(factorable),
        "identity_entropy_bits": float(entropy[0]),
        "min_entropy_bits": float(entropy.min()),
        "max_entropy_bits": float(entropy.max()),
    }
    return factorable, support, counterexamples, stats


def verify_purification_entanglement(
    rho: BipartiteState,
    trials: int,
    seed: int,
    *,
    factorable_tol: float = FACTORABLE_TOL,
) -> TheoremReport:
    """Sample purifications of one state and check the entanglement claim.

    A non-factorable state's purifications must all be entangled across
    (A C1 | B C2).  Its spectral purification, embedded in ancillas with
    dim(C1) = dim(C2) = dim(AB), fills the first r = rank ancilla basis
    states; trial 0 is the identity, and each other trial applies a seeded
    Haar isometry from those r states into C1 C2 (the r columns of a Haar
    unitary that act on the base).  A factorable state must have an
    unentangled purification: the factored one, trial 0; full Haar
    unitaries on C1 C2 record how entangled the rest are.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    factorable, support, cases, stats = _verdict(rho, trials, seed, factorable_tol)
    da, db = rho.dims
    return TheoremReport(
        theorem=1,
        claim=("a factorable state has an unentangled purification" if factorable
               else "every purification of a non-factorable state is entangled"),
        ensemble=(
            f"one {da}x{db} state ({'factorable' if factorable else 'non-factorable'}), "
            f"identity + {trials} Haar ancilla isometries on the "
            f"rank-{support} support"
        ),
        seed=int(seed),
        trials=int(trials),
        counterexamples=tuple(cases),
        stats=stats,
        tolerances={"rank_tol": RANK_TOL, "factorable_tol": factorable_tol},
    )


def entanglement_campaign(
    dims: DimPair | tuple[int, int],
    trials: int,
    seed: int,
    *,
    factorable_tol: float = FACTORABLE_TOL,
) -> TheoremReport:
    """Both directions of the purification claim on seeded random states.

    Draws one full-rank Ginibre state (non-factorable with probability one)
    and one explicit product state on the given dimensions, validated as
    one stack.  Each state gets the verdict of
    :func:`verify_purification_entanglement`, prefixed by its name, in one
    report.
    """
    dims = _campaign_dims(dims, trials)
    s_state, s_prod, s_u1, s_u2 = _sub_seeds(seed, 4)
    rhos = _campaign_states([s_state], [s_prod], dims)
    stats, counterexamples = {}, []
    for rho, name, s_u in zip(rhos, ("random", "product"), (s_u1, s_u2)):
        _, _, cases, state_stats = _verdict(
            BipartiteState(_trusted(DensityMatrix, matrix=rho), dims),
            trials, s_u, factorable_tol,
        )
        stats.update({f"{name}_{k}": v for k, v in state_stats.items()})
        counterexamples += [f"{name} state: {c}" for c in cases]
    return TheoremReport(
        theorem=1,
        claim=(
            "purifications of a non-factorable state are all entangled; "
            "a factorable state has an unentangled one"
        ),
        ensemble=(
            f"one Ginibre full-rank and one product state on "
            f"{dims.da}x{dims.db}, identity + {trials} Haar ancilla "
            f"isometries on the rank-r support each"
        ),
        seed=int(seed),
        trials=int(trials),
        counterexamples=tuple(counterexamples),
        stats=stats,
        tolerances={"rank_tol": RANK_TOL, "factorable_tol": factorable_tol},
    )
