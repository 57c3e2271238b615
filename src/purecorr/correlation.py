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
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    DimPair,
    _canonical_vectors,
    _hermitian_eig,
    _tie_clusters,
    _top_singular_vectors,
    hermitian_basis,
    operator_to_coefficient_matrix,
    tensor_product,
)
from .reports import TheoremReport
from .states import (
    BipartiteState,
    Observable,
    _campaign_dims,
    _campaign_states,
    _chunks,
    _sub_seeds,
    _trusted,
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
    """Expansion Delta = sum_k c_k  A_k (x) B_k with orthonormal Hermitian factors."""

    coefficients: np.ndarray
    ops_a: tuple[Observable, ...]
    ops_b: tuple[Observable, ...]


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


def _real_trace(value, what: str) -> np.ndarray:
    """Real part of a nominally real trace, or of a stack of them.

    Raises when an imaginary residue exceeds IMAG_TOL.
    """
    value = np.asarray(value)
    worst = value.imag.flat[np.argmax(np.abs(value.imag))]
    if abs(worst) > IMAG_TOL:
        raise ValueError(
            f"{what} has imaginary residue {worst:.3e} beyond {IMAG_TOL:.1e}"
        )
    return value.real


def _pairing(delta: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Tr(Delta (E (x) F)) = sum Delta[ab,cd] E[c,a] F[d,b]: covariance from Delta.

    One O(n^2) contraction per state, on single matrices or on stacks
    ``(..., n, n)``, ``(..., da, da)``, ``(..., db, db)``: an entrywise
    product with (E (x) F)^T and a sum, never a matrix product.
    """
    transposed = tensor_product(e.swapaxes(-1, -2), f.swapaxes(-1, -2))
    return _real_trace(np.sum(delta * transposed, axis=(-2, -1)), "covariance")


class _Correlations(NamedTuple):
    """Marginals, Delta and ||Delta||_F of a stack of T states (leading axis)."""

    rho_a: np.ndarray
    rho_b: np.ndarray
    delta: np.ndarray
    norms: np.ndarray

    def at(self, i: int, dims: DimPair) -> CorrelationOperator:
        return _trusted(
            CorrelationOperator,
            delta=self.delta[i],
            dims=dims,
            frobenius_norm=float(self.norms[i]),
            rho_a=self.rho_a[i],
            rho_b=self.rho_b[i],
        )


def _correlations(matrices: np.ndarray, dims: DimPair) -> _Correlations:
    """Correlation operators of a ``(T, n, n)`` stack of validated states."""
    da, db = dims
    t = matrices.reshape(-1, da, db, da, db)
    # the same reductions as partial_trace, bit for bit, state by state
    rho_a = np.trace(t, axis1=2, axis2=4)
    rho_b = np.trace(t, axis1=1, axis2=3)
    delta = matrices - tensor_product(rho_a, rho_b)
    # per matrix, so that each norm is the one np.linalg.norm gives alone
    norms = np.array([np.linalg.norm(d) for d in delta])
    return _Correlations(rho_a, rho_b, delta, norms)


def _schmidt_svd(delta: np.ndarray, dims: DimPair):
    """Raw stacked SVD ``(s, u, v)`` of the coefficient matrices of Deltas.

    ``delta`` is a ``(T, n, n)`` stack of Hermitian operators; their
    coefficient matrices are real, and one ``np.linalg.svd`` call takes
    them all.  ``v`` holds the right singular vectors as columns.
    """
    c = operator_to_coefficient_matrix(delta, dims)
    imag = float(np.max(np.abs(c.imag)))
    if imag > IMAG_TOL:
        raise ValueError(
            f"coefficient matrix has imaginary part {imag:.3e}; "
            "input must be Hermitian"
        )
    u, s, vh = np.linalg.svd(c.real, full_matrices=False)
    return s, u, vh.swapaxes(-1, -2)


def _factors(vectors: np.ndarray, d: int) -> np.ndarray:
    """Operators sum_m x_m G_m for each row x of ``vectors``, G the Hermitian basis."""
    return np.einsum("km,mij->kij", vectors, hermitian_basis(d))


class _Witnesses(NamedTuple):
    """Top operator-Schmidt pair of each state of a stack (leading axis)."""

    correlations: _Correlations
    sigma1: np.ndarray
    e: np.ndarray
    f: np.ndarray
    covariance: np.ndarray


def _witnesses(matrices: np.ndarray, dims: DimPair) -> _Witnesses:
    """The stacked analysis: witnesses of a ``(T, n, n)`` stack of validated states.

    One pass: marginals, Delta and ||Delta||_F, the ``(T, da^2, db^2)``
    coefficient matrices and one stacked SVD; then only the top tie
    cluster of each state is made canonical, and E, F and the covariance
    are built for that top pair alone.  Every step acts on each state
    alone, so state i's result is bit for bit that of the batch of one.
    """
    corr = _correlations(matrices, dims)
    s, u, v = _schmidt_svd(corr.delta, dims)
    u0, v0 = _top_singular_vectors(s, u, v)
    e, f = _factors(u0, dims.da), _factors(v0, dims.db)
    cov = _pairing(corr.delta, e, f)
    flip = cov < 0
    e[flip] = -e[flip]
    return _Witnesses(corr, s[:, 0], e, f, np.where(flip, -cov, cov))


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
    return float(_pairing(correlation_operator(rho).delta, e.matrix, f.matrix))


def correlation_operator(rho: BipartiteState) -> CorrelationOperator:
    """Difference between the state and the product of its marginals."""
    return _correlations(rho.matrix[None], rho.dims).at(0, rho.dims)


def is_factorable(rho: BipartiteState, tol: float = FACTORABLE_TOL) -> bool:
    """Whether the state equals the product of its own marginals."""
    return correlation_operator(rho).frobenius_norm <= tol


def operator_schmidt(delta: CorrelationOperator) -> OperatorSchmidt:
    """Operator Schmidt decomposition of a Hermitian bipartite operator.

    The coefficient matrix in the canonical Hermitian product basis is real
    for Hermitian input; its SVD gives descending nonnegative coefficients
    and Hermitian, Hilbert-Schmidt-orthonormal operator factors.  The
    factors of a degenerate coefficient depend only on its singular
    subspace (see :func:`purecorr.linalg.svd`).  All pairs are built; the
    witness needs only the first (see :func:`synthesize_witness`).
    """
    s, u, v = _schmidt_svd(delta.delta[None], delta.dims)
    s, u, v = s[0], u[0], v[0]
    _canonical_vectors(s, u, v)
    mats_a = _factors(u.T, delta.dims.da)
    mats_b = _factors(v.T, delta.dims.db)
    return OperatorSchmidt(
        coefficients=s,
        ops_a=tuple(_trusted(Observable, matrix=m) for m in mats_a),
        ops_b=tuple(_trusted(Observable, matrix=m) for m in mats_b),
    )


def synthesize_witness(rho: BipartiteState) -> CorrelationWitness:
    """Observable pair with maximal covariance among unit Hilbert-Schmidt pairs.

    Takes the top operator-Schmidt pair of the correlation operator; the
    achieved covariance Tr(Delta (E (x) F)) equals the top coefficient.  Both
    are zero exactly when the state is factorable.  When the top coefficient
    is degenerate (as for every entangled pure state), the pair depends only
    on its singular subspace, so it is stable under a last-bit change of
    rho.  The sign is fixed so the covariance is nonnegative.  This is the
    batch of one of the stacked analysis that
    :func:`verify_witness_criterion` runs.
    """
    w = _witnesses(rho.matrix[None], rho.dims)
    return CorrelationWitness(
        _trusted(Observable, matrix=w.e[0]),
        _trusted(Observable, matrix=w.f[0]),
        float(w.covariance[0]),
        float(w.sigma1[0]),
        w.correlations.at(0, rho.dims),
    )


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
    vals, vecs = _hermitian_eig(obs.matrix)
    return [
        (float(vals[i:j].mean()), vecs[:, i:j] @ vecs[:, i:j].conj().T)
        for i, j in _tie_clusters(vals, OUTCOME_GROUP_TOL)
    ]


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
    dims = _campaign_dims(dims, trials)
    seeds = _sub_seeds(seed, 2 * trials)

    counterexamples: list[str] = []
    cov_factorable, cov_nonfactorable = [0.0], []
    # States 0 .. trials - 1 are Ginibre, the rest products; a chunk may
    # hold some of each.
    for batch in _chunks(2 * trials, 16 * dims.total**2):
        mid = min(max(batch.start, trials), batch.stop)
        rhos = _campaign_states(seeds[batch.start : mid], seeds[mid : batch.stop], dims)
        w = _witnesses(rhos, dims)
        norms = w.correlations.norms.tolist()
        for i, norm, cov in zip(batch, norms, np.abs(w.covariance).tolist()):
            factorable = norm <= factorable_tol
            (cov_factorable if factorable else cov_nonfactorable).append(cov)
            if (cov > WITNESS_TOL) == factorable:
                kind, index = ("ginibre", i) if i < trials else ("product", i - trials)
                counterexamples.append(
                    f"{kind}[{index}]: |covariance| {cov:.3e} vs ||Delta|| {norm:.3e}"
                )

    stats = {"max_covariance_factorable": max(cov_factorable)}
    if cov_nonfactorable:
        stats["min_covariance_nonfactorable"] = min(cov_nonfactorable)
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
