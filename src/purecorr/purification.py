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

from .correlation import FACTORABLE_TOL, is_factorable
from .linalg import DimPair, hermitian_eig, multi_partial_trace
from .reports import TheoremReport
from .states import (
    BipartiteState,
    DensityMatrix,
    PureState,
    random_density,
    random_product_state,
    random_unitary,
)

__all__ = [
    "RANK_TOL",
    "EIG_CLIP",
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
#: Spectrum entries within this of zero are treated as exact zeros.
EIG_CLIP = 1e-9
#: Relative Frobenius tolerance for tracing a purification back to its state.
RECOVERY_TOL = 1e-10
#: Frobenius tolerance (times sqrt(dim)) for unitarity checks.
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
    re-checks the recovery contract, so a Purification value is trustworthy
    wherever it flows.
    """

    state: PureState
    original: BipartiteState

    def __post_init__(self):
        keep = [
            i for i, (lab, _) in enumerate(self.state.layout)
            if not lab.startswith("C")
        ]
        if not keep or len(keep) == len(self.state.layout):
            raise ValueError("purification needs system and ancilla factors")
        reduced = multi_partial_trace(
            self.state.density(), self.state.factor_dims, keep
        )
        target = self.original.matrix
        scale = max(1.0, float(np.linalg.norm(target)))
        defect = float(np.linalg.norm(reduced - target))
        if defect > RECOVERY_TOL * scale:
            raise ValueError(
                f"tracing out the ancillas misses the original state by "
                f"{defect:.3e} (Frobenius)"
            )

    @property
    def ancilla_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.state.labels if l.startswith("C"))

    @property
    def system_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self.state.labels if not l.startswith("C"))


def _clipped_spectrum(dm: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues with noise clipped to 0, renormalized, plus vectors."""
    eig = hermitian_eig(dm.matrix)
    lam = np.where(np.abs(eig.eigenvalues) <= EIG_CLIP, 0.0, eig.eigenvalues)
    lam = np.maximum(lam, 0.0)
    return lam / lam.sum(), eig.eigenvectors


def purify(state: BipartiteState | DensityMatrix) -> Purification:
    """Spectral purification with minimal ancilla (dimension = rank).

    Builds sum_k sqrt(p_k) |e_k>|k> over the eigenpairs with p_k > 0 after
    clipping; the layout is (("AB", n), ("C", rank)).
    """
    if not isinstance(state, (BipartiteState, DensityMatrix)):
        state = DensityMatrix(state)
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
    if not isinstance(rho_a, DensityMatrix):
        rho_a = DensityMatrix(rho_a)
    if not isinstance(rho_b, DensityMatrix):
        rho_b = DensityMatrix(rho_b)
    lam_a, v_a = _clipped_spectrum(rho_a)
    lam_b, v_b = _clipped_spectrum(rho_b)
    phi1 = v_a * np.sqrt(lam_a)  # phi1[a, c1]
    phi2 = v_b * np.sqrt(lam_b)
    amps = np.einsum("ac,bd->abcd", phi1, phi2).reshape(-1)
    da, db = rho_a.dim, rho_b.dim
    layout = (("A", da), ("B", db), ("C1", da), ("C2", db))
    product = BipartiteState(
        DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix)), DimPair(da, db)
    )
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
    n = p.state.layout[0][1]
    r = p.state.layout[1][1]
    if c1 * c2 < r:
        raise ValueError(
            f"ancilla product {c1}x{c2} cannot hold rank {r}"
        )
    da, db = p.original.dims
    padded = np.zeros((n, c1 * c2), dtype=np.complex128)
    padded[:, :r] = p.state.amplitudes.reshape(n, r)
    layout = (("A", da), ("B", db), ("C1", c1), ("C2", c2))
    return Purification(PureState(padded.reshape(-1), layout), p.original)


def apply_ancilla_unitary(p: Purification, u) -> Purification:
    """Apply I (x) U with U acting on the combined ancilla factors.

    The result purifies the same original state; that contract is re-checked
    by the Purification constructor.
    """
    dims = p.state.factor_dims
    cpos = [i for i, lab in enumerate(p.state.labels) if lab.startswith("C")]
    rest = [i for i in range(len(dims)) if i not in cpos]
    dc = math.prod(dims[i] for i in cpos)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (dc, dc):
        raise ValueError(
            f"unitary shape {u.shape} does not match ancilla dimension {dc}"
        )
    defect = float(np.linalg.norm(u.conj().T @ u - np.eye(dc)))
    if defect > UNITARY_TOL * math.sqrt(dc):
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")

    perm = rest + cpos
    t = p.state.amplitudes.reshape(dims).transpose(perm).reshape(-1, dc)
    t = t @ u.T  # row s becomes U @ psi[s, :]
    t = t.reshape([dims[i] for i in rest] + [dims[i] for i in cpos])
    amps = t.transpose(np.argsort(perm)).reshape(-1)
    return Purification(PureState(amps, p.state.layout), p.original)


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
    left_pos = [i for i, lab in enumerate(labels) if lab in left]
    right_pos = [i for i, lab in enumerate(labels) if lab not in left]
    dims = psi.factor_dims
    dl = math.prod(dims[i] for i in left_pos)
    dr = math.prod(dims[i] for i in right_pos)
    m = psi.amplitudes.reshape(dims).transpose(left_pos + right_pos).reshape(dl, dr)
    s = np.linalg.svd(m, compute_uv=False)
    lam = s * s
    if abs(float(lam.sum()) - 1.0) > 1e-9:
        raise ValueError(f"squared Schmidt coefficients sum to {lam.sum():.12g}")
    positive = lam[lam > 0.0]
    entropy = float(-(positive * np.log2(positive)).sum()) if positive.size else 0.0
    rank = int(np.count_nonzero(s > RANK_TOL))
    s = s.copy()
    s.flags.writeable = False
    return EntanglementReport(s, rank, entropy, rank > 1)


def _sub_seeds(seed, n: int) -> list[int]:
    """Deterministic per-trial integer seeds derived from one campaign seed."""
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(x) for x in state]


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
    spectral one into ancillas with dim(C1) = dim(C2) = dim(AB) and the
    trials apply seeded Haar unitaries on C1 C2 (trial 0 is the identity).
    For a factorable state, the claim is that an unentangled purification
    exists; the factored construction with the identity unitary is that
    witness, and the Haar trials just record how entangled the rest are.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    factorable = is_factorable(rho, factorable_tol)
    if factorable:
        base = factored_purification(rho.marginal("A"), rho.marginal("B"))
    else:
        n = rho.dims.total
        base = embed_ancilla(purify(rho), (n, n))
    dc = math.prod(
        d for lab, d in base.state.layout if lab.startswith("C")
    )
    cut = ("A", "C1")

    reports: list[tuple[str, EntanglementReport]] = []
    reports.append(("identity", cut_entanglement(base.state, cut)))
    for i, sub in enumerate(_sub_seeds(seed, trials)):
        u = random_unitary(dc, sub)
        sampled = apply_ancilla_unitary(base, u)
        reports.append((f"haar[{i}]", cut_entanglement(sampled.state, cut)))

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
            f"identity + {trials} Haar ancilla unitaries"
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
    dims = DimPair(*dims)
    s_state, s_prod, s_u1, s_u2 = _sub_seeds(seed, 4)
    rho = random_density(dims, dims.total, s_state)
    product = random_product_state(dims, s_prod)
    rep_main = verify_purification_entanglement(
        rho, trials, s_u1, factorable_tol=factorable_tol
    )
    rep_prod = verify_purification_entanglement(
        product, trials, s_u2, factorable_tol=factorable_tol
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
            f"unitaries each"
        ),
        seed=int(seed),
        trials=int(trials),
        passed=not counterexamples,
        counterexamples=counterexamples,
        stats=stats,
        tolerances=dict(rep_main.tolerances),
    )
