"""Property tests for grouping a pure state's factors into a matrix.

``PureState.split`` and ``PureState.reduced`` are checked against the
independent dense route: the partial trace of the full density.  Layouts
have 1-4 factors of dimension 1-4, and every nonempty set of kept factors
is tried, including non-contiguous ones.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.linalg import multi_partial_trace
from purecorr.states import PureState

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def pure_states(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    layout = tuple((f"F{i}", d) for i, d in enumerate(dims))
    return PureState(v / np.linalg.norm(v), layout)


def nonempty_subsets(count):
    positions = range(count)
    for size in range(1, count + 1):
        yield from (list(c) for c in itertools.combinations(positions, size))


@SETTINGS
@given(pure_states())
def test_reduced_matches_dense_partial_trace(psi):
    rho = psi.density()
    for keep in nonempty_subsets(len(psi.layout)):
        expected = multi_partial_trace(rho, psi.factor_dims, keep)
        np.testing.assert_allclose(psi.reduced(keep), expected, rtol=0, atol=1e-14)


@SETTINGS
@given(pure_states())
def test_split_regroups_the_same_amplitudes(psi):
    dims = psi.factor_dims
    for rows in nonempty_subsets(len(dims)):
        m = psi.split(rows)
        np.testing.assert_array_equal(psi.split(rows[::-1]), m)
        cols = [i for i in range(len(dims)) if i not in rows]
        assert m.shape == (
            int(np.prod([dims[i] for i in rows])),
            int(np.prod([dims[i] for i in cols])),
        )
        perm = rows + cols
        back = m.reshape([dims[i] for i in perm]).transpose(np.argsort(perm))
        np.testing.assert_array_equal(back.reshape(-1), psi.amplitudes)
