"""The stacked Theorem-1 trials and their batch of one.

``random_isometry`` is the batch of one of ``_isometries``;
``apply_ancilla_unitary`` and ``cut_entanglement`` are the batch of one of
``_ancilla_trials`` and ``_cut_reports``, the kernel that
``verify_purification_entanglement`` runs on the identity and all sampled
trials of a state at once.  Each row of a stack must be bit for bit what
the per-state functions give, and bad input must be rejected with the
messages the library has always given.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.correlation import is_factorable
from purecorr.linalg import DimPair
from purecorr.purification import (
    Purification,
    _ancilla_trials,
    _cut_reports,
    apply_ancilla_unitary,
    cut_entanglement,
    embed_ancilla,
    factored_purification,
    purify,
    verify_purification_entanglement,
)
from purecorr.states import (
    PureState,
    _isometries,
    _sub_seeds,
    _trusted,
    example_source_state,
    random_density,
    random_isometry,
    random_product_state,
    random_unitary,
)

seed_lists = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4)
CUT = ("A", "C1")


@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 64), seeds=seed_lists, data=st.data())
def test_stacked_isometries_equal_random_isometry(d, seeds, data):
    r = data.draw(st.integers(1, d), label="r")
    stack = _isometries(seeds, d, r)
    assert stack.shape == (len(seeds), d, r)
    for seed, u in zip(seeds, stack):
        assert u.tobytes() == random_isometry(d, r, seed).tobytes()


def _base(rho):
    """The campaign's base purification of a state and its support width."""
    if is_factorable(rho):
        base = factored_purification(rho.marginal("A"), rho.marginal("B"))
        return base, base.ancilla_dim
    spectral = purify(rho)
    n = rho.dims.total
    return embed_ancilla(spectral, (n, n)), spectral.ancilla_dim


states = st.builds(DimPair, st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda dims: st.one_of(
        st.builds(random_density, st.just(dims), st.integers(1, dims.total),
                  st.integers(0, 2**32)),
        st.builds(random_product_state, st.just(dims), st.integers(0, 2**32)),
    )
)


def _assert_same_report(stacked, single):
    coefficients = stacked.schmidt_coefficients, single.schmidt_coefficients
    assert coefficients[0].tobytes() == coefficients[1].tobytes()
    assert stacked.schmidt_rank == single.schmidt_rank
    assert repr(stacked.entropy_bits) == repr(single.entropy_bits)
    assert stacked.entangled == single.entangled


@settings(max_examples=60, deadline=None)
@given(rho=states, seeds=seed_lists)
def test_stacked_trials_equal_the_batch_of_one(rho, seeds):
    """Rank-deficient, full-rank and product states on square and non-square dims."""
    base, support = _base(rho)
    us = _isometries(seeds, base.ancilla_dim, support)
    amps = _ancilla_trials(base, us, identity=True)
    cut = [i for i, lab in enumerate(base.state.labels) if lab in CUT]
    stacked = _cut_reports(amps, base.state.factor_dims, cut)
    assert len(stacked) == len(seeds) + 1
    assert amps[0].tobytes() == base.state.amplitudes.tobytes()
    _assert_same_report(stacked[0], cut_entanglement(base.state, CUT))
    for u, row, report in zip(us, amps[1:], stacked[1:]):
        single = apply_ancilla_unitary(base, u).state
        assert row.tobytes() == single.amplitudes.tobytes()
        _assert_same_report(report, cut_entanglement(single, CUT))


@settings(max_examples=30, deadline=None)
@given(rho=states, trials=st.integers(1, 4), seed=st.integers(0, 2**32))
def test_report_equals_per_trial_loop(rho, trials, seed):
    """The report's entropies are those of one trial at a time."""
    base, support = _base(rho)
    rotated = [
        apply_ancilla_unitary(base, random_isometry(base.ancilla_dim, support, s))
        for s in _sub_seeds(seed, trials)
    ]
    single = [cut_entanglement(p.state, CUT) for p in [base, *rotated]]
    entropies = [rep.entropy_bits for rep in single]
    report = verify_purification_entanglement(rho, trials, seed)
    assert report.stats["identity_entropy_bits"] == entropies[0]
    assert report.stats["min_entropy_bits"] == min(entropies)
    assert report.stats["max_entropy_bits"] == max(entropies)


def _padded_source():
    return embed_ancilla(purify(example_source_state()), (2, 2))


@pytest.mark.parametrize("u, message", [
    (np.ones((4, 2)),
     "matrix is not unitary: columns miss orthonormality by 7.071e+00"),
    (2 * random_isometry(4, 2, 1),
     "matrix is not unitary: columns miss orthonormality by 4.243e+00"),
    (random_isometry(4, 1, 1),
     "amplitude outside the first 1 ancilla basis states, which a 4x1 isometry "
     "does not act on"),
    (np.full((4, 2), np.nan), "amplitudes must be finite"),
    (np.eye(3), "unitary shape (3, 3) does not match ancilla dimension 4"),
])
def test_batch_of_one_keeps_its_messages(u, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_ancilla_unitary(_padded_source(), u)


def test_rotated_base_rejects_a_narrow_isometry():
    rotated = apply_ancilla_unitary(_padded_source(), random_unitary(4, 2))
    message = ("amplitude outside the first 2 ancilla basis states, which a 4x2 "
               "isometry does not act on")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        apply_ancilla_unitary(rotated, random_isometry(4, 2, 3))


@pytest.mark.parametrize("bad", [0, 2])
def test_stack_names_its_first_non_isometry(bad):
    us = _isometries([1, 2, 3], 4, 2)
    us[bad] *= 2
    message = f"stack index {bad}: matrix is not unitary: columns miss orthonormality"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        _ancilla_trials(_padded_source(), us, identity=True)


def test_stack_names_its_first_non_finite_isometry():
    us = _isometries([1, 2, 3], 4, 2)
    us[1] = np.nan
    with pytest.raises(ValueError, match=r"^stack index 1: amplitudes must be finite$"):
        _ancilla_trials(_padded_source(), us)


def test_stack_checks_the_norm_of_every_trial():
    base = _padded_source()
    amps = 2 * base.state.amplitudes
    doubled = _trusted(PureState, amplitudes=amps, layout=base.state.layout)
    p = _trusted(Purification, state=doubled, original=base.original)
    message = "stack index 0: state vector norm must be 1, got 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _ancilla_trials(p, _isometries([1, 2], 4, 2), identity=True)


def test_stack_checks_the_recovery_of_every_trial():
    base = _padded_source()
    other = random_density(DimPair(2, 2), 4, 3)
    p = _trusted(Purification, state=base.state, original=other)
    message = "stack index 0: tracing out the ancillas misses the original state by"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        _ancilla_trials(p, _isometries([1, 2], 4, 2))
    with pytest.raises(ValueError, match="^tracing out the ancillas misses"):
        apply_ancilla_unitary(p, random_unitary(4, 1))


def test_cut_checks_the_schmidt_sum_of_every_trial():
    # a norm within NORM_TOL of 1 can still miss the Schmidt-sum check
    base = _padded_source()
    long = base.state.amplitudes * (1 + 9e-10)
    message = "^squared Schmidt coefficients sum to 1.0000000018$"
    with pytest.raises(ValueError, match=message):
        amps = np.stack([base.state.amplitudes, long])
        _cut_reports(amps, base.state.factor_dims, [0, 2])
    with pytest.raises(ValueError, match=message):
        cut_entanglement(PureState(long, base.state.layout), CUT)


def test_stack_rejects_amplitude_outside_the_support():
    with pytest.raises(ValueError, match="^amplitude outside the first 1 ancilla"):
        _ancilla_trials(_padded_source(), _isometries([1, 2], 4, 1), identity=True)


def test_identity_alone():
    base = _padded_source()
    amps = _ancilla_trials(base, _isometries([], 4, 2), identity=True)
    assert amps.tobytes() == base.state.amplitudes.tobytes()
