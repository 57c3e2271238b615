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

from .correlation import (
    FACTORABLE_TOL,
    CorrelationOperator,
    _correlations,
    correlation_operator,
)
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
    re-checks the recovery contract on the system x ancilla amplitude
    matrix, so a Purification value is trustworthy wherever it flows.
    """

    state: PureState
    original: BipartiteState

    def __post_init__(self):
        system = self.system_positions
        if not system or len(system) == len(self.state.layout):
            raise ValueError("purification needs system and ancilla factors")
        defect = float(np.linalg.norm(self.state.reduced(system) - self.original.matrix))
        if defect > RECOVERY_TOL:
            raise ValueError(
                f"tracing out the ancillas misses the original state by "
                f"{defect:.3e} (Frobenius)"
            )

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


def _clipped_spectrum(dm: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues with noise clipped to 0, renormalized, plus vectors.

    Negative eigenvalues and those up to ``n * eps * lambda_max`` (the
    rounding level, as in ``np.linalg.matrix_rank``) are noise.  Clipping
    moves a positive semidefinite state by under ``2 n^2 eps lambda_max``
    (4e-12 at n = 100), inside ``RECOVERY_TOL``.
    """
    eig = _hermitian_eig(dm.matrix)
    lam = eig.eigenvalues
    lam = np.where(lam > lam.size * np.finfo(float).eps * lam[0], lam, 0.0)
    return lam / lam.sum(), eig.eigenvectors


def purify(state: BipartiteState | DensityMatrix) -> Purification:
    """Spectral purification with minimal ancilla (dimension = rank).

    Builds sum_k sqrt(p_k) |e_k>|k> over the eigenpairs with p_k > 0 after
    clipping; the layout is (("AB", n), ("C", rank)).
    """
    if isinstance(state, DensityMatrix):
        state = BipartiteState(state, DimPair(state.dim, 1))
    lam, vecs = _clipped_spectrum(state.state)
    keep = lam > 0.0
    lam = lam[keep]
    vecs = vecs[:, keep]
    amps = (vecs * np.sqrt(lam)).reshape(-1)
    n = state.state.dim
    layout = (("AB", n), ("C", int(lam.size)))
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
    lam_a, v_a = _clipped_spectrum(rho_a)
    lam_b, v_b = _clipped_spectrum(rho_b)
    phi1 = v_a * np.sqrt(lam_a)  # phi1[a, c1]
    phi2 = v_b * np.sqrt(lam_b)
    amps = np.einsum("ac,bd->abcd", phi1, phi2).reshape(-1)
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
        raise ValueError(
            f"ancilla product {c1}x{c2} cannot hold rank {r}"
        )
    da, db = p.original.dims
    padded = np.zeros((n, c1 * c2), dtype=np.complex128)
    padded[:, :r] = p.state.split([0])
    # exact zeros keep the norm and reduced state that p's construction checked
    layout = (("A", da), ("B", db), ("C1", c1), ("C2", c2))
    state = _trusted(PureState, amplitudes=padded.reshape(-1), layout=layout)
    return _trusted(Purification, state=state, original=p.original)


def _ancilla_trials(
    p: Purification, us: np.ndarray, identity: bool = False, stacked: bool = True
) -> np.ndarray:
    """Amplitudes of ``p`` with each isometry of a ``(T, dc, r)`` stack applied.

    Isometry ``t`` maps the first ``r`` ancilla basis states into the whole
    ancilla.  Returns the resulting vectors as rows in p's layout order,
    after ``p`` itself when ``identity``.  Each check runs once on the
    whole stack: the isometries' columns are orthonormal, ``p`` has no
    amplitude outside those ``r`` basis states, and every result is a
    finite unit vector whose ancilla trace-out recovers ``p.original``.
    With ``stacked``, a message names the index in ``us`` of the first
    failure; without it, ``us`` holds one isometry and the messages are
    those of a single one.
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

    system = p.system_positions
    m = p.state.split(system)
    if np.any(m[:, r:]):
        raise ValueError(
            f"amplitude outside the first {r} ancilla basis states, "
            f"which a {dc}x{r} isometry does not act on"
        )
    out = np.empty((identity + len(us), *m.shape), dtype=np.complex128)
    if identity:
        out[0] = m
    trials = out[identity:]
    np.matmul(m[:, :r], us.swapaxes(-1, -2), out=trials)  # row s becomes U @ psi[s, :r]

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
    defect = _frobenius(rho - p.original.matrix)
    failed = failure(defect > RECOVERY_TOL)
    if failed:
        k, where = failed
        raise ValueError(
            f"{where}tracing out the ancillas misses the original state by "
            f"{float(defect[k]):.3e} (Frobenius)"
        )

    dims = p.state.factor_dims
    perm = system + [i for i in range(len(dims)) if i not in system]
    t = out.reshape(len(out), *(dims[i] for i in perm))
    return t.transpose(0, *(1 + np.argsort(perm))).reshape(len(out), m.size)


def apply_ancilla_unitary(p: Purification, u) -> Purification:
    """Apply a unitary or isometry U on the combined ancilla factors.

    ``u`` is ``dc x r`` with orthonormal columns, ``1 <= r <= dc``, and maps
    the first ``r`` ancilla basis states into the whole ancilla; ``r = dc``
    is I (x) U.  Every amplitude must lie in those first ``r`` columns (a
    zero-padded purification, see :func:`embed_ancilla`), else this raises
    rather than drop it.  The result purifies the same original state;
    that contract is re-checked.  The batch of one of the stacked trials
    that :func:`verify_purification_entanglement` runs.
    """
    dc = p.ancilla_dim
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != dc or not 1 <= u.shape[1] <= dc:
        raise ValueError(
            f"unitary shape {u.shape} does not match ancilla dimension {dc}"
        )
    amps = _ancilla_trials(p, u[None], stacked=False)[0]
    state = _trusted(PureState, amplitudes=amps, layout=p.state.layout)
    return _trusted(Purification, state=state, original=p.original)


def _schmidt_report(s: np.ndarray, shape: tuple[int, int]) -> EntanglementReport:
    """Report on the singular values ``s`` of one ``shape`` cut matrix."""
    lam = s * s
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        raise ValueError(f"squared Schmidt coefficients sum to {lam.sum():.12g}")
    # A squared coefficient within rounding of 1 or of 0 carries no
    # entropy, only noise: the singular values are accurate to about
    # max(shape) * eps, so only those measurably above 0 whose squares sit
    # measurably below 1 count.  The sum is then never negative or -0.0.
    noise = max(shape) * np.finfo(float).eps
    positive = lam[lam > 0.0]
    bits = -positive * np.log2(positive)
    measurable = (positive > noise * noise) & (positive < 1.0 - noise)
    entropy = float(np.where(measurable, bits, 0.0).sum())
    rank = int(np.count_nonzero(s > RANK_TOL))
    s = s.copy()
    s.flags.writeable = False
    return EntanglementReport(s, rank, entropy, rank > 1)


def _cut_reports(
    amps: np.ndarray, dims: tuple[int, ...], rows: list[int]
) -> list[EntanglementReport]:
    """Schmidt data of each vector of a ``(T, dim)`` stack across one cut.

    ``rows`` are the layout positions on the left of the cut; one
    ``np.linalg.svd`` takes all T cut matrices.
    """
    m = _split(amps, dims, rows)
    spectra = np.linalg.svd(m, compute_uv=False)
    return [_schmidt_report(s, m.shape[1:]) for s in spectra]


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
    return _cut_reports(psi.amplitudes[None], psi.factor_dims, rows)[0]


def verify_purification_entanglement(
    rho: BipartiteState,
    trials: int,
    seed: int,
    *,
    factorable_tol: float = FACTORABLE_TOL,
) -> TheoremReport:
    """Sample purifications of one state and check the entanglement claim.

    For a non-factorable state, the claim is that every purification is
    entangled across (A C1 | B C2); the base purification embeds the
    spectral one into ancillas with dim(C1) = dim(C2) = dim(AB), so its
    amplitude fills only the first r = rank ancilla basis states.  Trial 0
    is the identity; the others apply seeded Haar isometries from those r
    states into C1 C2, distributed as the r columns of a Haar unitary on
    C1 C2 that act on the base (the rest act on zeros).
    For a factorable state, the claim is that an unentangled purification
    exists; the factored construction with the identity unitary is that
    witness, and full Haar unitaries on C1 C2 (r = dim C1 C2) just record
    how entangled the rest are.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _purification_trials(
        rho, correlation_operator(rho), trials, seed, factorable_tol
    )


def _purification_trials(
    rho: BipartiteState,
    corr: CorrelationOperator,
    trials: int,
    seed: int,
    factorable_tol: float,
) -> TheoremReport:
    """:func:`verify_purification_entanglement` of a state and its correlation operator.

    The operator judges the state and, for a factorable one, gives the
    marginals to purify.  The identity and the ``trials`` sampled
    purifications form one stack: one stacked draw of the isometries, one
    pass of checks and one cut SVD, in chunks of ``states._chunks``.
    """
    factorable = corr.frobenius_norm <= factorable_tol
    if factorable:
        marginals = (_trusted(DensityMatrix, matrix=m) for m in (corr.rho_a, corr.rho_b))
        base = factored_purification(*marginals)
        support = base.ancilla_dim
    else:
        n = rho.dims.total
        spectral = purify(rho)
        support = spectral.ancilla_dim
        base = embed_ancilla(spectral, (n, n))
    dc = base.ancilla_dim
    dims = base.state.factor_dims
    cut = [i for i, lab in enumerate(base.state.labels) if lab in ("A", "C1")]
    seeds = _sub_seeds(seed, trials)

    # Row 0 is the identity, row i + 1 trial i.
    found: list[EntanglementReport] = []
    for rows in _chunks(trials + 1, 16 * base.state.dim):
        drawn = seeds[max(rows.start, 1) - 1 : rows.stop - 1]
        amps = _ancilla_trials(
            base, _isometries(drawn, dc, support), identity=rows.start == 0
        )
        found += _cut_reports(amps, dims, cut)
    names = ["identity"] + [f"haar[{i}]" for i in range(trials)]
    reports = list(zip(names, found))

    entropies = np.array([rep.entropy_bits for _, rep in reports])
    counterexamples: list[str] = []
    if factorable:
        identity_rep = reports[0][1]
        if identity_rep.entangled:
            counterexamples.append(
                f"factored purification is entangled: rank "
                f"{identity_rep.schmidt_rank}, entropy "
                f"{identity_rep.entropy_bits:.6g} bits"
            )
        claim = "a factorable state has an unentangled purification"
    else:
        for name, rep in reports:
            if not rep.entangled:
                counterexamples.append(
                    f"unentangled purification at trial {name}: entropy "
                    f"{rep.entropy_bits:.6g} bits"
                )
        claim = "every purification of a non-factorable state is entangled"

    da, db = rho.dims
    return TheoremReport(
        theorem=1,
        claim=claim,
        ensemble=(
            f"one {da}x{db} state ({'factorable' if factorable else 'non-factorable'}), "
            f"identity + {trials} Haar ancilla isometries on the "
            f"rank-{support} support"
        ),
        seed=int(seed),
        trials=int(trials),
        passed=not counterexamples,
        counterexamples=tuple(counterexamples),
        stats={
            "factorable": float(factorable),
            "identity_entropy_bits": float(reports[0][1].entropy_bits),
            "min_entropy_bits": float(entropies.min()),
            "max_entropy_bits": float(entropies.max()),
        },
        tolerances={
            "rank_tol": RANK_TOL,
            "factorable_tol": factorable_tol,
        },
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
    and one explicit product state on the given dimensions, runs
    :func:`verify_purification_entanglement` on each, and merges the
    outcomes into a single report.
    """
    dims = _campaign_dims(dims, trials)
    s_state, s_prod, s_u1, s_u2 = _sub_seeds(seed, 4)
    rhos = _campaign_states([s_state], [s_prod], dims)
    corr = _correlations(rhos, dims)
    rep_main, rep_prod = (
        _purification_trials(
            BipartiteState(_trusted(DensityMatrix, matrix=rhos[i]), dims),
            corr.at(i, dims), trials, s_u, factorable_tol,
        )
        for i, s_u in enumerate((s_u1, s_u2))
    )

    stats = {f"random_{k}": v for k, v in rep_main.stats.items()}
    stats.update({f"product_{k}": v for k, v in rep_prod.stats.items()})
    counterexamples = tuple(
        f"random state: {c}" for c in rep_main.counterexamples
    ) + tuple(f"product state: {c}" for c in rep_prod.counterexamples)
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
        passed=not counterexamples,
        counterexamples=counterexamples,
        stats=stats,
        tolerances=dict(rep_main.tolerances),
    )
