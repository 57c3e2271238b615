"""The stacked witness analysis equals its batch of one, bit for bit.

``verify_witness_criterion`` analyses all its states in one stacked pass,
while ``synthesize_witness`` runs the same pass on a stack of one.  Every
step acts on each state alone, so both must agree to the last bit on every
kind of state: Ginibre, product, entangled pure (a degenerate top
coefficient) and near-product mixtures down to eps = 1e-12.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr import states
from purecorr.correlation import (
    _witnesses,
    correlation_operator,
    operator_schmidt,
    synthesize_witness,
    verify_witness_criterion,
)
from purecorr.linalg import DimPair
from purecorr.states import (
    BipartiteState,
    DensityMatrix,
    random_density,
    random_product_state,
    random_unitary,
)

KINDS = ["ginibre", "product", "entangled-pure", "near-product"]


def entangled_pure(dims: DimPair, seed: int) -> BipartiteState:
    """(U (x) V) applied to a maximally entangled state of Schmidt rank min(da, db)."""
    d = min(dims)
    psi = np.zeros(dims, dtype=complex)
    psi[np.arange(d), np.arange(d)] = 1 / np.sqrt(d)
    psi = random_unitary(dims.da, seed) @ psi @ random_unitary(dims.db, seed + 1).T
    v = psi.reshape(-1)
    return BipartiteState(DensityMatrix(np.outer(v, v.conj())), dims)


def make_state(kind: str, dims: DimPair, seed: int, eps: float) -> BipartiteState:
    if kind == "ginibre":
        return random_density(dims, 1 + seed % dims.total, seed)
    if kind == "product":
        return random_product_state(dims, seed)
    if kind == "entangled-pure":
        return entangled_pure(dims, seed)
    product = random_product_state(dims, seed + 1).matrix
    ginibre = random_density(dims, dims.total, seed).matrix
    return BipartiteState(DensityMatrix((1 - eps) * product + eps * ginibre), dims)


@st.composite
def state_batches(draw):
    dims = DimPair(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    batch = draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(0, 2**31),
                st.floats(3, 12).map(lambda x: 10.0**-x),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return dims, [make_state(kind, dims, seed, eps) for kind, seed, eps in batch]


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.result_type(x, np.float64)).tobytes()


def assert_batch_equals_batches_of_one(dims, states):
    batch = _witnesses(np.stack([rho.matrix for rho in states]), dims)
    for i, rho in enumerate(states):
        one = synthesize_witness(rho)
        assert bits(batch.sigma1[i]) == bits(one.sigma1)
        assert bits(batch.covariance[i]) == bits(one.covariance)
        assert bits(batch.correlations.norms[i]) == bits(one.correlation.frobenius_norm)
        assert bits(batch.e[i]) == bits(one.e.matrix)
        assert bits(batch.f[i]) == bits(one.f.matrix)
        assert bits(batch.correlations.delta[i]) == bits(one.correlation.delta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(state_batches())
def test_batch_equals_batch_of_one(batch):
    assert_batch_equals_batches_of_one(*batch)


def test_mixed_batch_covers_every_kind_and_a_degenerate_top():
    dims = DimPair(3, 3)
    states = [
        make_state(kind, dims, seed, eps)
        for kind in KINDS
        for seed, eps in ((5, 1e-3), (6, 1e-12))
    ]
    assert_batch_equals_batches_of_one(dims, states)
    # the entangled pure states take the degenerate-cluster path
    for rho in states[4:6]:
        s = operator_schmidt(correlation_operator(rho)).coefficients
        assert s[1] >= s[0] * (1 - 1e-12)


def test_witness_of_batch_does_not_depend_on_its_neighbours():
    dims = DimPair(4, 4)
    states = [make_state(KINDS[i % 4], dims, i, 1e-9) for i in range(12)]
    full = _witnesses(np.stack([rho.matrix for rho in states]), dims)
    tail = _witnesses(np.stack([rho.matrix for rho in states[5:]]), dims)
    assert bits(full.e[5:]) == bits(tail.e)
    assert bits(full.f[5:]) == bits(tail.f)
    assert bits(full.covariance[5:]) == bits(tail.covariance)


def test_campaign_in_chunks_reports_as_in_one_pass(monkeypatch):
    # a tolerance of 10 calls every Ginibre state factorable, so the report
    # lists one counterexample per Ginibre state, in draw order
    one = verify_witness_criterion(DimPair(2, 2), 5, 3, factorable_tol=10.0)
    assert len(one.counterexamples) == 5
    monkeypatch.setattr(states, "_STACK_BYTES", 3 * 16 * 4**2)
    chunked = verify_witness_criterion(DimPair(2, 2), 5, 3, factorable_tol=10.0)
    assert chunked.counterexamples == one.counterexamples
    assert chunked.stats == one.stats
