"""The stacked state generators and density validator, and their batch of one.

``random_density`` and ``random_product_state`` are the batch of one of
``_ginibre_densities`` and ``_product_densities``, and ``DensityMatrix``
validates through ``_validate_densities`` as its batch of one.  The stacks
must give each seed's state bit for bit, and a single matrix must be
rejected with the messages the library has always given.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr import correlation, states
from purecorr.correlation import verify_witness_criterion
from purecorr.linalg import DimPair, require_hermitian
from purecorr.states import (
    DensityMatrix,
    Observable,
    _ginibre_densities,
    _product_densities,
    _validate_densities,
    random_density,
    random_product_state,
)

dim_pairs = st.builds(DimPair, st.integers(1, 4), st.integers(1, 4))
seed_lists = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dims=dim_pairs, seeds=seed_lists, data=st.data())
def test_stacked_ginibre_equals_random_density(dims, seeds, data):
    rank = data.draw(st.integers(1, dims.total), label="rank")
    stack = _ginibre_densities(seeds, dims, rank)
    assert stack.shape == (len(seeds), dims.total, dims.total)
    for seed, rho in zip(seeds, stack):
        assert rho.tobytes() == random_density(dims, rank, seed).matrix.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dims=dim_pairs, seeds=seed_lists)
def test_stacked_products_equal_random_product_state(dims, seeds):
    stack = _product_densities(seeds, dims)
    assert stack.shape == (len(seeds), dims.total, dims.total)
    for seed, rho in zip(seeds, stack):
        assert rho.tobytes() == random_product_state(dims, seed).matrix.tobytes()


def test_empty_stacks():
    dims = DimPair(2, 3)
    assert _ginibre_densities([], dims, 6).shape == (0, 6, 6)
    assert _product_densities([], dims).shape == (0, 6, 6)


@pytest.mark.parametrize("trials, chunk", [(4, 3), (3, 1), (5, 5), (2, 7)])
def test_campaign_chunks_hold_each_seeds_state(monkeypatch, trials, chunk):
    """Chunks that split the Ginibre and product halves still draw every state
    bit for bit as random_density / random_product_state do."""
    dims, seed = DimPair(2, 2), 9
    monkeypatch.setattr(states, "_STACK_BYTES", chunk * 16 * dims.total**2)
    analysed = []
    witnesses = correlation._witnesses

    def recording(matrices, dims):
        analysed.append(matrices.copy())
        return witnesses(matrices, dims)

    monkeypatch.setattr(correlation, "_witnesses", recording)
    verify_witness_criterion(dims, trials, seed)
    assert [len(m) for m in analysed][:-1] == [chunk] * (len(analysed) - 1)
    seeds = np.random.SeedSequence(seed).generate_state(2 * trials, dtype=np.uint64)
    expected = [random_density(dims, dims.total, int(s)).matrix for s in seeds[:trials]]
    expected += [random_product_state(dims, int(s)).matrix for s in seeds[trials:]]
    assert np.concatenate(analysed).tobytes() == np.stack(expected).tobytes()


def _not_hermitian():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.1
    return m


# One bad matrix per failure kind, with the message DensityMatrix gives it.
FAILURES = {
    "non-square": (
        np.ones((2, 3)) / 2,
        "density matrix must be square, got shape (2, 3)",
    ),
    "non-finite": (
        np.diag([np.nan, 1.0]),
        "density matrix entries must be finite",
    ),
    "non-Hermitian": (
        _not_hermitian(),
        "matrix is not Hermitian: defect 1.414e-01 exceeds 1.0e-09 * max(1, norm)",
    ),
    "trace": (
        np.eye(2),
        "density matrix trace must be 1, got 2+0j",
    ),
    "not PSD": (
        np.diag([1.5, -0.5]),
        "density matrix is not positive semidefinite: smallest eigenvalue -5.000e-01",
    ),
}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_batch_of_one_keeps_the_message(kind):
    m, message = FAILURES[kind]
    m = np.asarray(m, dtype=np.complex128)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _validate_densities(m)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DensityMatrix(m)


def test_density_matrix_rejects_a_stack():
    with pytest.raises(ValueError, match=re.escape("must be square, got shape (1, 2, 2)")):
        DensityMatrix(np.eye(2)[None] / 2)


@pytest.mark.parametrize("shape", [(2, 2), (2, 3, 3, 3), (2, 3, 4)])
def test_stacked_validator_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="must be square"):
        _validate_densities(np.zeros(shape, dtype=np.complex128), stacked=True)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(set(FAILURES) - {"non-square"})),
    size=st.integers(1, 6),
    data=st.data(),
)
def test_stack_names_the_bad_state(kind, size, data):
    k = data.draw(st.integers(0, size - 1), label="k")
    stack = _ginibre_densities(range(size), DimPair(1, 2), 2)
    _validate_densities(stack, stacked=True)
    bad, message = FAILURES[kind]
    stack[k] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(f'stack index {k}: {message}')}$"):
        _validate_densities(stack, stacked=True)


def test_stack_judges_each_matrix_at_its_own_scale():
    big = np.eye(3) * 1e6
    big[0, 1] = 1e-4  # tiny against its own norm
    small = np.eye(3)
    small[0, 1] = 1e-6  # too large against a norm of about 1
    wide = np.full((40, 40), 0.5)
    wide[0, 1] += 1e-8  # above HERMITIAN_TOL, but within it times the norm of 20
    require_hermitian(np.stack([big, big]), stacked=True)
    require_hermitian(wide)
    with pytest.raises(ValueError, match=r"^stack index 1: matrix is not Hermitian"):
        require_hermitian(np.stack([big, small]), stacked=True)


def test_observable_keeps_its_messages():
    with pytest.raises(ValueError, match="^observable entries must be finite$"):
        Observable(np.diag([np.inf, 1.0]))
    with pytest.raises(ValueError, match="^matrix is not Hermitian: defect 1.414e-01"):
        Observable(_not_hermitian())
    with pytest.raises(ValueError, match=re.escape("expected a matrix, got shape (2, 2, 2)")):
        Observable(np.ones((2, 2, 2)))
