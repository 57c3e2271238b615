"""The stacked Theorem-1 trials and their batch of one.

``random_isometry`` is the batch of one of ``_isometries``;
``apply_ancilla_unitary`` and ``cut_entanglement`` are the batch of one of
``_ancilla_trials`` and ``_cut_reports``, the kernel that
``verify_purification_entanglement`` runs on all trials of a state at once,
the identity ``np.eye(dc, r)`` first.  The kernel takes a base as its
``(n, r)`` system x support amplitude matrix and the original density
matrix.  Each row of a stack must be bit for bit what the per-state
functions give, and bad input must be rejected with the messages the
library has always given.
"""

import json
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
    entanglement_campaign,
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


@settings(max_examples=80, deadline=None, derandomize=True)
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


def _assert_same_report(coefficients, rank, entropy, single):
    """One row of ``_cut_reports`` against the ``cut_entanglement`` report."""
    assert coefficients.tobytes() == single.schmidt_coefficients.tobytes()
    assert rank == single.schmidt_rank
    assert repr(float(entropy)) == repr(single.entropy_bits)
    assert (rank > 1) == single.entangled


def _with_identity(us):
    """The campaign's stack: ``np.eye(dc, r)`` as row 0, then ``us``."""
    return np.concatenate([np.eye(*us.shape[1:])[None], us])


def _support(p, r):
    """The ``(n, r)`` system x support amplitudes of a purification."""
    return p.state.split(p.system_positions)[:, :r]


def _trials(p, us):
    """``_ancilla_trials`` of a purification whose system factors lead its
    layout, each trial as one row in that layout."""
    amps = _ancilla_trials(_support(p, us.shape[-1]), p.original.matrix, us)
    return amps.reshape(len(us), -1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rho=states, seeds=seed_lists)
def test_stacked_trials_equal_the_batch_of_one(rho, seeds):
    """Rank-deficient, full-rank and product states on square and non-square dims."""
    base, support = _base(rho)
    us = _with_identity(_isometries(seeds, base.ancilla_dim, support))
    amps = _trials(base, us)
    cut = [i for i, lab in enumerate(base.state.labels) if lab in CUT]
    stacked = _cut_reports(amps, base.state.factor_dims, cut)
    assert [len(x) for x in stacked] == [len(seeds) + 1] * 3
    assert amps[0].tobytes() == base.state.amplitudes.tobytes()
    _assert_same_report(*(x[0] for x in stacked), cut_entanglement(base.state, CUT))
    for t, (u, row) in enumerate(zip(us, amps)):
        single = apply_ancilla_unitary(base, u).state
        assert row.tobytes() == single.amplitudes.tobytes()
        _assert_same_report(*(x[t] for x in stacked), cut_entanglement(single, CUT))


@settings(max_examples=30, deadline=None, derandomize=True)
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dims=st.builds(DimPair, st.integers(1, 3), st.integers(1, 3)),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**64 - 1),
)
def test_campaign_merges_two_per_state_checks(dims, trials, seed):
    """The campaign is the per-state check of its Ginibre and product states."""
    s0, s1, s2, s3 = _sub_seeds(seed, 4)
    main, prod = (
        verify_purification_entanglement(rho, trials, s)
        for rho, s in [(random_density(dims, dims.total, s0), s2),
                       (random_product_state(dims, s1), s3)]
    )
    merged = {
        "tolerances": main.tolerances,
        "stats": {
            **{f"random_{k}": v for k, v in main.stats.items()},
            **{f"product_{k}": v for k, v in prod.stats.items()},
        },
        "counterexamples": [f"random state: {c}" for c in main.counterexamples]
        + [f"product state: {c}" for c in prod.counterexamples],
        "passed": main.passed and prod.passed,
    }
    report = entanglement_campaign(dims, trials, seed).to_dict()
    assert json.dumps({k: report[k] for k in merged}) == json.dumps(merged)
    assert (report["seed"], report["trials"]) == (seed, trials)


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


@pytest.mark.parametrize("bad", [0, 2, 3])
def test_stack_names_its_first_non_isometry(bad):
    us = _with_identity(_isometries([1, 2, 3], 4, 2))
    us[bad] *= 2
    message = f"stack index {bad}: matrix is not unitary: columns miss orthonormality"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        _trials(_padded_source(), us)


def test_stack_names_its_first_non_finite_isometry():
    us = _isometries([1, 2, 3], 4, 2)
    us[1] = np.nan
    with pytest.raises(ValueError, match=r"^stack index 1: amplitudes must be finite$"):
        _trials(_padded_source(), us)


def test_stack_checks_the_norm_of_every_trial():
    base = _padded_source()
    doubled = 2 * _support(base, 2)
    message = "stack index 0: state vector norm must be 1, got 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _ancilla_trials(doubled, base.original.matrix, _with_identity(_isometries([1, 2], 4, 2)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _ancilla_trials(doubled, base.original.matrix, _isometries([1, 2], 4, 2))


def test_stack_checks_the_recovery_of_every_trial():
    base = _padded_source()
    other = random_density(DimPair(2, 2), 4, 3)
    p = _trusted(Purification, state=base.state, original=other)
    message = "stack index 0: tracing out the ancillas misses the original state by"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        _trials(p, _isometries([1, 2], 4, 2))
    # the identity row is checked like any other
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        _trials(p, _with_identity(_isometries([1, 2], 4, 2)))
    with pytest.raises(ValueError, match="^tracing out the ancillas misses"):
        apply_ancilla_unitary(p, random_unitary(4, 1))


def test_cut_checks_the_schmidt_sum_of_every_trial():
    # the sum is judged by the norm's rule: a norm within NORM_TOL of 1 cuts,
    # and a row just beyond it is refused
    base = _padded_source()
    long = PureState(base.state.amplitudes * (1 + 9e-10), base.state.layout)
    assert cut_entanglement(long, CUT).schmidt_rank == 2
    too_long = base.state.amplitudes * (1 + 1.1e-9)
    message = "^squared Schmidt coefficients sum to 1.0000000022$"
    with pytest.raises(ValueError, match=message):
        amps = np.stack([base.state.amplitudes, too_long])
        _cut_reports(amps, base.state.factor_dims, [0, 2])


def test_stack_rejects_amplitude_outside_the_support():
    # only the batch of one checks the support, in any layout: here the
    # system factors do not lead, so the result is reordered into it
    base = _padded_source()
    order = (0, 2, 1, 3)  # (A, C1, B, C2)
    layout = tuple(base.state.layout[i] for i in order)
    amps = base.state.amplitudes.reshape(2, 2, 2, 2).transpose(order).reshape(-1)
    p = Purification(PureState(amps, layout), base.original)
    with pytest.raises(ValueError, match="^amplitude outside the first 1 ancilla"):
        apply_ancilla_unitary(p, _isometries([1, 2], 4, 1)[1])
    u = random_isometry(4, 2, 7)
    rotated = apply_ancilla_unitary(base, u).state.amplitudes.reshape(2, 2, 2, 2)
    expected = rotated.transpose(order).reshape(-1)
    assert apply_ancilla_unitary(p, u).state.amplitudes.tobytes() == expected.tobytes()


def test_identity_alone():
    base = _padded_source()
    amps = _trials(base, _with_identity(_isometries([], 4, 2)))
    assert amps.tobytes() == base.state.amplitudes.tobytes()


def test_identity_keeps_the_sign_of_a_zero():
    # a product through np.eye would turn these -0.0 parts into +0.0; the
    # identity row is the base, padded with exact zeros
    base = _padded_source()
    support = _support(base, 2).copy()
    support.real[support.real == 0] = -0.0
    support.imag[support.imag == 0] = -0.0
    flipped = np.zeros((4, 4), dtype=complex)
    flipped[:, :2] = support
    flipped = flipped.reshape(-1)
    psi = _trusted(PureState, amplitudes=flipped, layout=base.state.layout)
    amps = _ancilla_trials(support, base.original.matrix, _with_identity(_isometries([1], 4, 2)))
    amps = amps.reshape(2, -1)
    assert amps[0].tobytes() == flipped.tobytes()
    stacked = _cut_reports(amps, psi.factor_dims, [0, 2])
    _assert_same_report(*(x[0] for x in stacked), cut_entanglement(psi, CUT))
