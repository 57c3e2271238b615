"""Property tests for bit-exact state-file round trips.

``emit_state_file`` followed by ``parse_content`` must return the stored
doubles bit for bit and emit the same text again.  States are random
densities and random pure vectors with 1-4 dimensions per factor; the
observables mix ordinary doubles with -0.0, subnormals and +-1e300.  A
pure state's labels read back unchanged, or emit refuses them; and a pure
file whose ``labels:`` line parses emits back to the same state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from purecorr.linalg import DimPair
from purecorr.states import Observable, PureState, random_density, random_pure
from purecorr.stateio import (
    StateFileError,
    emit_state_file,
    parse_content,
    parse_state_file,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

factor_dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)
edge_doubles = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308, 1e300, -1e300]
)
doubles = st.one_of(edge_doubles, st.floats(allow_nan=False, allow_infinity=False))


@SETTINGS
@given(factor_dims, factor_dims, st.data(), seeds)
def test_random_density_bit_exact(da, db, data, seed):
    rank = data.draw(st.integers(1, da * db))
    rho = random_density(DimPair(da, db), rank, seed)
    text = emit_state_file(rho)
    content = parse_content(text)
    assert content.kind == "density"
    assert content.dims == (da, db)
    assert content.value.matrix.tobytes() == rho.matrix.tobytes()
    assert emit_state_file(parse_state_file(text)) == text


@SETTINGS
@given(st.lists(factor_dims, min_size=1, max_size=4), seeds)
def test_random_pure_bit_exact(dims, seed):
    layout = tuple((f"F{i}", d) for i, d in enumerate(dims))
    psi = PureState(random_pure(int(np.prod(dims)), seed).amplitudes, layout)
    text = emit_state_file(psi)
    content = parse_content(text)
    assert content.kind == "pure"
    assert content.value.layout == layout
    assert content.value.amplitudes.tobytes() == psi.amplitudes.tobytes()
    assert emit_state_file(content.value) == text


@st.composite
def hermitian_matrices(draw):
    d = draw(st.integers(1, 4))
    m = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        m[i, i] = complex(draw(doubles), draw(st.sampled_from([0.0, -0.0])))
        for j in range(i + 1, d):
            m[i, j] = complex(draw(doubles), draw(doubles))
            m[j, i] = np.conj(m[i, j])
    return m


@SETTINGS
@given(hermitian_matrices())
def test_observable_bit_exact(m):
    obs = Observable(m)
    text = emit_state_file(obs)
    content = parse_content(text)
    assert content.kind == "observable"
    assert content.value.matrix.tobytes() == m.tobytes()
    assert emit_state_file(content.value) == text


@SETTINGS
@given(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True))
def test_labels_read_back_or_emit_refuses(labels):
    psi = PureState(np.ones(1), tuple((label, 1) for label in labels))
    try:
        text = emit_state_file(psi)
    except ValueError:
        return
    assert parse_content(text).labels == psi.labels


label_items = st.builds(
    "".join,
    st.tuples(st.sampled_from(["", " ", "[", "[ "]), st.text("AB\t", max_size=2),
              st.sampled_from(["", " ", "]", "] "])),
)


@SETTINGS
@given(st.lists(label_items, min_size=1, max_size=3))
def test_every_parsed_labels_line_emits_back(items):
    # one item per factor of dimension 1, wrapped in blanks and brackets
    # that the parser must either refuse or read as a label emit accepts
    text = (
        f"version: 1\nkind: pure\ndims: [{', '.join('1' * len(items))}]\n"
        f"labels: [{','.join(items)}]\nvector: [[1.0, 0.0]]\n"
    )
    try:
        content = parse_content(text)
    except StateFileError:
        return
    emitted = emit_state_file(content.value)
    back = parse_content(emitted)
    assert back.labels == content.labels
    assert back.value.amplitudes.tobytes() == content.value.amplitudes.tobytes()
    assert emit_state_file(back.value) == emitted
