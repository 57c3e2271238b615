"""Covariance of joint measurements and correlation witness synthesis.

The covariance of two observables on a bipartite state is the joint
expectation minus the product of the marginal expectations.  It equals the
Hilbert-Schmidt pairing of the observables with the correlation operator
``Delta = rho - rho_A (x) rho_B``, and is computed that way, so that no two
O(1) traces cancel.  The best unit-norm observable pair is
read off the operator Schmidt decomposition of Delta: expand Delta in
Hermitian product bases, SVD the (real) coefficient matrix, and recombine
the top singular pair.  The achieved covariance is then the top singular
value, which is nonzero exactly when the state is non-factorable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DimPair,
    _lex_key,
    hermitian_basis,
    hermitian_eig,
    operator_to_coefficient_matrix,
    partial_trace,
    svd,
    tensor_product,
)
from .reports import TheoremReport
from .states import (
    BipartiteState,
    Observable,
    _trusted,
    random_density,
    random_product_state,
)

__all__ = [
    "FACTORABLE_TOL",
    "WITNESS_TOL",
    "OUTCOME_GROUP_TOL",
    "IMAG_TOL",
    "CorrelationOperator",
    "OperatorSchmidt",
    "CorrelationWitness",
    "SamplingResult",
    "named_observable",
    "covariance",
    "correlated",
    "correlation_operator",
    "is_factorable",
    "operator_schmidt",
    "synthesize_witness",
    "brute_force_max_covariance",
    "to_projective",
    "sample_measurements",
    "chi_square_goodness",
    "chi_square_homogeneity",
    "verify_witness_criterion",
]

#: A state is factorable when ||Delta||_F does not exceed this.
FACTORABLE_TOL = 1e-9
#: A witness covariance above this counts as a genuine correlation.
WITNESS_TOL = 1e-7
#: Observable eigenvalues closer than this share one measurement outcome.
OUTCOME_GROUP_TOL = 1e-8
#: Largest imaginary residue tolerated on nominally real traces.
IMAG_TOL = 1e-10
# Schmidt coefficients within this fraction of the top one tie with it.  It
# is relative with no floor, so a state near the factorable boundary (top
# coefficient far below 1) still has a unique top pair.
_WITNESS_TIE_TOL = 1e-9
# A |covariance| above this makes two measurements correlated.
_CORRELATED_TOL = 1e-9

_PAULI = {
    "i": np.eye(2, dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def named_observable(name: str, dim: int = 2) -> Observable:
    """Observable for a named Pauli ("x", "y", "z") or the identity ("i")."""
    key = name.strip().lower()
    if key == "i":
        return Observable(np.eye(dim, dtype=np.complex128))
    if key in _PAULI:
        if dim != 2:
            raise ValueError(f"named observable {name!r} requires dimension 2")
        return Observable(_PAULI[key])
    raise ValueError(f"unknown observable name {name!r}; expected one of i, x, y, z")


@dataclass(frozen=True, eq=False)
class CorrelationOperator:
    """Delta = rho - rho_A (x) rho_B: traceless, Hermitian, zero iff factorable.

    Carries the two marginals it was built from, so that callers needing
    ``rho_A`` or ``rho_B`` do not trace the state again.
    """

    delta: np.ndarray
    dims: DimPair
    frobenius_norm: float
    rho_a: np.ndarray
    rho_b: np.ndarray


@dataclass(frozen=True, eq=False)
class OperatorSchmidt:
    """Expansion Delta = sum_k c_k  A_k (x) B_k with orthonormal Hermitian factors.

    ``coords_a`` / ``coords_b`` hold the coordinates of each output operator
    in the canonical Hermitian basis (one column per term).
    """

    coefficients: np.ndarray
    ops_a: tuple[Observable, ...]
    ops_b: tuple[Observable, ...]
    coords_a: np.ndarray
    coords_b: np.ndarray


@dataclass(frozen=True, eq=False)
class CorrelationWitness:
    """The observable pair achieving the maximal covariance on a state.

    ``correlation`` is the correlation operator the pair was read from.
    """

    e: Observable
    f: Observable
    covariance: float
    sigma1: float
    correlation: CorrelationOperator


def _real_trace(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL:
        raise ValueError(
            f"{what} has imaginary residue {value.imag:.3e} beyond {IMAG_TOL:.1e}"
        )
    return float(value.real)


def _pairing(delta: np.ndarray, e: Observable, f: Observable) -> float:
    """Tr(Delta (E (x) F)): the covariance of E and F read from Delta."""
    value = np.trace(delta @ tensor_product(e.matrix, f.matrix))
    return _real_trace(complex(value), "covariance")


def covariance(rho: BipartiteState, e: Observable, f: Observable) -> float:
    """Joint expectation of E (x) F minus the product of marginal expectations.

    Computed as Tr(Delta (E (x) F)), which stays accurate when the state is
    close to factorable.
    """
    da, db = rho.dims
    if e.dim != da or f.dim != db:
        raise ValueError(
            f"observable dimensions ({e.dim}, {f.dim}) do not match state dims "
            f"({da}, {db})"
        )
    return _pairing(correlation_operator(rho).delta, e, f)


def correlated(rho: BipartiteState, e: Observable, f: Observable) -> bool:
    """Whether the two measurements are correlated on the state (|cov| > 1e-9)."""
    return abs(covariance(rho, e, f)) > _CORRELATED_TOL


def correlation_operator(rho: BipartiteState) -> CorrelationOperator:
    """Difference between the state and the product of its marginals."""
    rho_a = partial_trace(rho.matrix, rho.dims, "A")
    rho_b = partial_trace(rho.matrix, rho.dims, "B")
    delta = rho.matrix - tensor_product(rho_a, rho_b)
    return _trusted(
        CorrelationOperator,
        delta=delta,
        dims=rho.dims,
        frobenius_norm=float(np.linalg.norm(delta)),
        rho_a=rho_a,
        rho_b=rho_b,
    )


def is_factorable(rho: BipartiteState, tol: float = FACTORABLE_TOL) -> bool:
    """Whether the state equals the product of its own marginals."""
    return correlation_operator(rho).frobenius_norm <= tol


def operator_schmidt(delta: CorrelationOperator) -> OperatorSchmidt:
    """Operator Schmidt decomposition of a Hermitian bipartite operator.

    The coefficient matrix in the canonical Hermitian product basis is real
    for Hermitian input; its SVD gives descending nonnegative coefficients
    and Hermitian, Hilbert-Schmidt-orthonormal operator factors.
    """
    da, db = delta.dims
    c = operator_to_coefficient_matrix(delta.delta, delta.dims)
    imag = float(np.max(np.abs(c.imag)))
    if imag > IMAG_TOL:
        raise ValueError(
            f"coefficient matrix has imaginary part {imag:.3e}; "
            "input must be Hermitian"
        )
    sd = svd(c.real)
    coords_a, coords_b = sd.left_vectors, sd.right_vectors
    mats_a = np.einsum("mk,mij->kij", coords_a, hermitian_basis(da))
    mats_b = np.einsum("nk,nij->kij", coords_b, hermitian_basis(db))
    return OperatorSchmidt(
        coefficients=sd.singular_values,
        ops_a=tuple(_trusted(Observable, matrix=m) for m in mats_a),
        ops_b=tuple(_trusted(Observable, matrix=m) for m in mats_b),
        coords_a=coords_a,
        coords_b=coords_b,
    )


def synthesize_witness(rho: BipartiteState) -> CorrelationWitness:
    """Observable pair with maximal covariance among unit Hilbert-Schmidt pairs.

    Takes the top operator-Schmidt pair of the correlation operator; the
    achieved covariance Tr(Delta (E (x) F)) equals the top coefficient.  Both
    are zero exactly when the state is factorable.  When the top coefficient
    is degenerate (within a relative 1e-9) the pair with the
    lexicographically largest coordinate vector is chosen, and signs are
    fixed so the covariance is nonnegative.
    """
    corr = correlation_operator(rho)
    schmidt = operator_schmidt(corr)
    s = schmidt.coefficients
    idx = 0
    tied = np.flatnonzero(s[0] - s <= _WITNESS_TIE_TOL * s[0])
    if tied.size > 1:
        idx = max(tied, key=lambda j: _lex_key(schmidt.coords_a[:, j]))
    e, f = schmidt.ops_a[idx], schmidt.ops_b[idx]
    cov = _pairing(corr.delta, e, f)
    if cov < 0:
        e = _trusted(Observable, matrix=-e.matrix)
        cov = -cov
    return CorrelationWitness(e, f, cov, float(s[0]), corr)


def _unit_hermitian_batch(
    rng: np.random.Generator, count: int, dim: int
) -> np.ndarray:
    """Random Hermitian matrices with unit Hilbert-Schmidt norm, shape (count, dim, dim)."""
    x = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal(
        (count, dim, dim)
    )
    h = (x + x.conj().transpose(0, 2, 1)) / 2.0
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=(1, 2)))
    return h / norms[:, None, None]


def brute_force_max_covariance(rho: BipartiteState, trials: int, seed) -> float:
    """Monte Carlo maximum of |covariance| over random unit-norm pairs.

    Works directly from the covariance definition (no correlation operator,
    no decomposition), so it is an independent check on the synthesized
    witness: it approaches the witness value from below and never exceeds it
    beyond numerical noise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    da, db = rho.dims
    e = _unit_hermitian_batch(rng, trials, da)
    f = _unit_hermitian_batch(rng, trials, db)
    r4 = rho.matrix.reshape(da, db, da, db)
    joint = np.einsum("abcd,tca,tdb->t", r4, e, f, optimize=True)
    rho_a = rho.marginal("A").matrix
    rho_b = rho.marginal("B").matrix
    mean_a = np.einsum("ij,tji->t", rho_a, e)
    mean_b = np.einsum("ij,tji->t", rho_b, f)
    cov = joint - mean_a * mean_b
    worst_imag = float(np.max(np.abs(cov.imag)))
    if worst_imag > IMAG_TOL:
        raise ValueError(f"covariance imaginary residue {worst_imag:.3e}")
    return float(np.max(np.abs(cov.real)))


def to_projective(obs: Observable) -> list[tuple[float, np.ndarray]]:
    """Spectral resolution of an observable as (outcome, projector) pairs.

    Eigenvalues within ``OUTCOME_GROUP_TOL`` of each other are merged into a
    single outcome (labeled by their mean) with the summed projector, so the
    projectors are idempotent, mutually orthogonal and resolve the identity.
    """
    eig = hermitian_eig(obs.matrix)
    vals, vecs = eig.eigenvalues, eig.eigenvectors
    outcomes: list[tuple[float, np.ndarray]] = []
    i = 0
    while i < vals.size:
        j = i + 1
        while j < vals.size and vals[i] - vals[j] <= OUTCOME_GROUP_TOL:
            j += 1
        block = vecs[:, i:j]
        outcomes.append((float(vals[i:j].mean()), block @ block.conj().T))
        i = j
    return outcomes


@dataclass(frozen=True, eq=False)
class SamplingResult:
    """Joint measurement statistics from repeated projective sampling."""

    outcomes_a: tuple[float, ...]
    outcomes_b: tuple[float, ...]
    counts: np.ndarray
    probabilities: np.ndarray
    empirical_covariance: float
    analytic_covariance: float
    trials: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.trials:
            raise ValueError("counts must sum to the number of trials")

    @property
    def joint_counts(self) -> dict[tuple[float, float], int]:
        return {
            (ea, fb): int(self.counts[i, j])
            for i, ea in enumerate(self.outcomes_a)
            for j, fb in enumerate(self.outcomes_b)
        }


def sample_measurements(
    rho: BipartiteState, e: Observable, f: Observable, trials: int, seed
) -> SamplingResult:
    """Draw joint outcomes of two projective measurements on a state.

    Outcome (e_i, f_j) occurs with probability Tr(rho (P_i (x) Q_j)); the
    trials are drawn with a seeded generator, and the empirical covariance
    is reported next to the analytic one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    da, db = rho.dims
    if e.dim != da or f.dim != db:
        raise ValueError(
            f"observable dimensions ({e.dim}, {f.dim}) do not match state dims "
            f"({da}, {db})"
        )
    proj_a = to_projective(e)
    proj_b = to_projective(f)
    r4 = rho.matrix.reshape(da, db, da, db)
    probs = np.empty((len(proj_a), len(proj_b)))
    for i, (_, p) in enumerate(proj_a):
        for j, (_, q) in enumerate(proj_b):
            val = complex(np.einsum("abcd,ca,db->", r4, p, q, optimize=True))
            probs[i, j] = _real_trace(val, "joint probability")
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint probabilities sum to {total:.12g}, not 1")
    probs = np.clip(probs, 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(trials, (probs / probs.sum()).reshape(-1))
    counts = counts.reshape(probs.shape)

    outcomes_a = np.array([v for v, _ in proj_a])
    outcomes_b = np.array([v for v, _ in proj_b])
    freq = counts / trials
    emp_joint = float(outcomes_a @ freq @ outcomes_b)
    emp_a = float(outcomes_a @ freq.sum(axis=1))
    emp_b = float(freq.sum(axis=0) @ outcomes_b)
    probs.flags.writeable = False
    counts.flags.writeable = False
    return SamplingResult(
        outcomes_a=tuple(float(v) for v in outcomes_a),
        outcomes_b=tuple(float(v) for v in outcomes_b),
        counts=counts,
        probabilities=probs,
        empirical_covariance=emp_joint - emp_a * emp_b,
        analytic_covariance=covariance(rho, e, f),
        trials=int(trials),
    )


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square upper tail P(X >= stat) with ``dof`` degrees of freedom."""
    # Local so that only callers that compute a p-value pay for loading scipy.
    from scipy.special import chdtrc

    return float(chdtrc(dof, stat)) if dof > 0 else 1.0


def chi_square_goodness(
    counts: np.ndarray, probabilities: np.ndarray
) -> tuple[float, int, float]:
    """Pearson statistic of observed counts against a reference distribution.

    Returns (statistic, degrees of freedom, p-value).  Cells with zero
    reference probability but nonzero counts make the statistic infinite.
    """
    counts = np.asarray(counts, dtype=float).reshape(-1)
    probabilities = np.asarray(probabilities, dtype=float).reshape(-1)
    if counts.shape != probabilities.shape:
        raise ValueError("counts and probabilities must have matching shapes")
    n = counts.sum()
    if n == 0:
        raise ValueError("counts must not all be zero")
    support = probabilities > 0
    dof = int(support.sum()) - 1
    if counts[~support].sum() > 0:
        return math.inf, dof, 0.0
    expected = n * probabilities[support]
    stat = float(((counts[support] - expected) ** 2 / expected).sum())
    return stat, dof, _chi2_sf(stat, dof)


def chi_square_homogeneity(
    counts1: np.ndarray, counts2: np.ndarray
) -> tuple[float, int, float]:
    """Pearson test that two count tables come from one joint distribution.

    The tables are flattened into a 2 x K contingency table; cells empty in
    both runs are dropped.  Returns (statistic, dof, p-value).
    """
    c1 = np.asarray(counts1, dtype=float).reshape(-1)
    c2 = np.asarray(counts2, dtype=float).reshape(-1)
    if c1.shape != c2.shape:
        raise ValueError("count tables must have matching shapes")
    if c1.sum() == 0 or c2.sum() == 0:
        raise ValueError("each count table needs a nonzero total")
    keep = (c1 + c2) > 0
    c1, c2 = c1[keep], c2[keep]
    table = np.stack([c1, c2])
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    dof = int(c1.size) - 1
    return stat, dof, _chi2_sf(stat, dof)


def verify_witness_criterion(
    dims: DimPair | Sequence[int],
    trials: int,
    seed: int,
    *,
    factorable_tol: float = FACTORABLE_TOL,
) -> TheoremReport:
    """Check the biconditional: a correlated pair exists iff non-factorable.

    Runs ``trials`` seeded Ginibre full-rank states and ``trials`` seeded
    product states on the given dimensions.  For each, the synthesized
    witness must be significant (|covariance| > WITNESS_TOL) exactly when
    ||Delta||_F exceeds factorable_tol.  The report lists every violation.
    """
    dims = DimPair(*dims)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    state = np.random.SeedSequence(seed).generate_state(2 * trials, dtype=np.uint64)
    counterexamples: list[str] = []
    min_cov_nonfactorable = math.inf
    max_cov_factorable = 0.0

    def check(rho: BipartiteState, kind: str, index: int) -> None:
        nonlocal min_cov_nonfactorable, max_cov_factorable
        witness = synthesize_witness(rho)
        norm = witness.correlation.frobenius_norm
        factorable = norm <= factorable_tol
        significant = abs(witness.covariance) > WITNESS_TOL
        if factorable:
            max_cov_factorable = max(max_cov_factorable, abs(witness.covariance))
        else:
            min_cov_nonfactorable = min(
                min_cov_nonfactorable, abs(witness.covariance)
            )
        if significant == factorable:
            counterexamples.append(
                f"{kind}[{index}]: |covariance| {abs(witness.covariance):.3e} vs "
                f"||Delta|| {norm:.3e}"
            )

    for t in range(trials):
        check(random_density(dims, dims.total, int(state[t])), "ginibre", t)
    for t in range(trials):
        check(random_product_state(dims, int(state[trials + t])), "product", t)

    stats = {"max_covariance_factorable": max_cov_factorable}
    if math.isfinite(min_cov_nonfactorable):
        stats["min_covariance_nonfactorable"] = min_cov_nonfactorable
    return TheoremReport(
        theorem=2,
        claim="a correlated measurement pair exists iff the state is non-factorable",
        ensemble=(
            f"{trials} Ginibre full-rank + {trials} product states on "
            f"{dims.da}x{dims.db}"
        ),
        seed=int(seed),
        trials=int(trials),
        passed=not counterexamples,
        counterexamples=tuple(counterexamples),
        stats=stats,
        tolerances={
            "factorable_tol": factorable_tol,
            "witness_tol": WITNESS_TOL,
        },
    )
