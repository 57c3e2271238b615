"""Tests for the state file format: grammar, validation, exact round trips."""

import numpy as np
import pytest

from purecorr.correlation import Observable
from purecorr.linalg import DimPair
from purecorr.states import (
    BipartiteState,
    DensityMatrix,
    PureState,
    example_source_state,
    ghz,
    random_density,
    random_pure,
)
from purecorr.stateio import (
    StateFileError,
    complex_array_to_pairs,
    content_to_state,
    emit_state_file,
    parse_content,
    parse_observable_file,
    parse_state_file,
)

EQ2_FILE = """
version: 1
kind: density
dims: [2, 2]
matrix:
[[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
 [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
 [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
 [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]]
"""


class TestParse:
    def test_source_state_file(self):
        state = parse_state_file(EQ2_FILE)
        assert isinstance(state, BipartiteState)
        assert state.dims == DimPair(2, 2)
        np.testing.assert_array_equal(state.matrix, example_source_state().matrix)

    def test_whitespace_insensitive(self):
        squeezed = "version:1 kind:density dims:[2] matrix:[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"
        state = parse_state_file(squeezed)
        assert isinstance(state, DensityMatrix)
        np.testing.assert_array_equal(state.matrix, np.diag([1.0, 0.0]))

    def test_pure_file_default_labels(self):
        text = """
        version: 1
        kind: pure
        dims: [2, 2, 2]
        vector:
        [[0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
         [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]]
        """
        psi = parse_state_file(text)
        assert isinstance(psi, PureState)
        assert psi.labels == ("A", "B", "C")

    def test_explicit_labels(self):
        text = """
        version: 1
        kind: pure
        dims: [4, 2]
        labels: [AB, C]
        vector:
        [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
         [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        """
        assert parse_state_file(text).labels == ("AB", "C")

    def test_observable_file(self):
        text = """
        version: 1
        kind: observable
        dims: [2]
        matrix:
        [[[0.0, 0.0], [0.0, -1.0]],
         [[0.0, 1.0], [0.0, 0.0]]]
        """
        obs = parse_observable_file(text)
        np.testing.assert_array_equal(obs.matrix, np.array([[0, -1j], [1j, 0]]))

    def test_state_parser_rejects_observable(self):
        text = "version: 1 kind: observable dims: [2] matrix: [[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]"
        with pytest.raises(StateFileError, match="observable"):
            parse_state_file(text)

    def test_three_factor_density_needs_reduction(self):
        rho = np.kron(np.eye(4) / 4, np.diag([1.0, 0.0]))
        text = emit_state_file(DensityMatrix(rho)).replace(
            "dims: [8]", "dims: [2, 2, 2]"
        )
        content = parse_content(text)
        assert content.dims == (2, 2, 2)
        with pytest.raises(StateFileError, match="trace it down"):
            content_to_state(content)


class TestParseErrors:
    def test_missing_version(self):
        with pytest.raises(StateFileError, match="version"):
            parse_state_file("kind: density dims: [2] matrix: [[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]")

    def test_unsupported_version(self):
        with pytest.raises(StateFileError, match="unsupported version"):
            parse_state_file("version: 2 kind: density dims: [2] matrix: [[[1.0,0.0]]]")

    def test_unknown_kind(self):
        with pytest.raises(StateFileError, match="kind"):
            parse_state_file("version: 1 kind: mixed dims: [2] matrix: [[[1.0,0.0]]]")

    def test_unknown_field_position(self):
        with pytest.raises(StateFileError, match=r"line 2.*unknown field"):
            parse_state_file("version: 1\nbogus: 3\n")

    def test_syntax_error_position(self):
        text = "version: 1\nkind: density\ndims: [2]\nmatrix:\n[[[1.0, 0.0], [0.0 0.0]],\n"
        with pytest.raises(StateFileError, match=r"line 5.*syntax"):
            parse_state_file(text)

    def test_wrong_body_for_kind(self):
        with pytest.raises(StateFileError, match="requires a 'vector:'"):
            parse_state_file("version: 1 kind: pure dims: [2] matrix: [[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]")

    def test_shape_mismatch(self):
        with pytest.raises(StateFileError, match="does not match dims"):
            parse_state_file(
                "version: 1 kind: density dims: [3] matrix: [[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"
            )

    def test_ragged_rows(self):
        with pytest.raises(StateFileError, match="row 1 has"):
            parse_state_file(
                "version: 1 kind: density dims: [2] matrix: [[[1.0,0.0],[0.0,0.0]],[[0.0,0.0]]]"
            )

    def test_malformed_pair(self):
        with pytest.raises(StateFileError, match="re, im"):
            parse_state_file(
                "version: 1 kind: density dims: [2] matrix: [[[1.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"
            )

    def test_nan_entry_rejected(self):
        with pytest.raises(StateFileError, match="non-finite|finite"):
            parse_state_file(
                "version: 1 kind: density dims: [2] matrix: [[[NaN,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"
            )

    def test_overflowing_literal_rejected(self):
        with pytest.raises(StateFileError, match="finite"):
            parse_state_file(
                "version: 1 kind: density dims: [2] matrix: [[[1e999,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"
            )

    def test_bad_trace_names_invariant(self):
        text = EQ2_FILE.replace("[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]", "[0.4, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]", 1)
        with pytest.raises(StateFileError, match="trace"):
            parse_state_file(text)

    def test_non_hermitian_named(self):
        text = """
        version: 1
        kind: density
        dims: [2]
        matrix:
        [[[0.5, 0.0], [0.3, 0.0]],
         [[0.0, 0.0], [0.5, 0.0]]]
        """
        with pytest.raises(StateFileError, match="Hermitian"):
            parse_state_file(text)

    def test_non_hermitian_observable_near_overflow_named(self):
        # The defect and the norm would both overflow to inf unscaled.
        text = """
        version: 1
        kind: observable
        dims: [2]
        matrix:
        [[[1e300, 0.0], [1e300, 0.0]],
         [[0.0, 0.0], [1e300, 0.0]]]
        """
        with pytest.raises(StateFileError, match="Hermitian"):
            parse_observable_file(text)

    def test_unnormalized_pure_named(self):
        text = "version: 1 kind: pure dims: [2] vector: [[1.0, 0.0], [1.0, 0.0]]"
        with pytest.raises(StateFileError, match="norm"):
            parse_state_file(text)

    def test_duplicate_field(self):
        with pytest.raises(StateFileError, match="duplicate"):
            parse_state_file("version: 1 version: 1 kind: density dims: [2] matrix: [[[1.0,0.0]]]")

    def test_missing_body(self):
        with pytest.raises(StateFileError, match="body"):
            parse_state_file("version: 1 kind: density dims: [2]")

    def test_labels_count_mismatch(self):
        with pytest.raises(StateFileError, match="labels"):
            parse_state_file(
                "version: 1 kind: pure dims: [2] labels: [A, B] vector: [[1.0,0.0],[0.0,0.0]]"
            )


class TestRoundTrip:
    def test_canonical_states_bit_exact(self):
        for obj in (example_source_state(), ghz()):
            text = emit_state_file(obj)
            back = parse_state_file(text)
            if isinstance(obj, BipartiteState):
                np.testing.assert_array_equal(back.matrix, obj.matrix)
                assert back.dims == obj.dims
            else:
                np.testing.assert_array_equal(back.amplitudes, obj.amplitudes)
                assert back.layout == obj.layout
            assert emit_state_file(back) == text

    @pytest.mark.parametrize("seed", range(10))
    def test_random_density_bit_exact(self, seed):
        rho = random_density(DimPair(2, 3), 6, seed)
        back = parse_state_file(emit_state_file(rho))
        assert back.matrix.tobytes() == rho.matrix.tobytes()
        assert back.dims == rho.dims

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pure_bit_exact(self, seed):
        psi = random_pure(6, seed)
        psi = PureState(psi.amplitudes, (("A", 2), ("B", 3)))
        back = parse_state_file(emit_state_file(psi))
        assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()
        assert back.layout == psi.layout

    def test_observable_bit_exact(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        obs = Observable((x + x.conj().T) / 2)
        back = parse_observable_file(emit_state_file(obs))
        assert back.matrix.tobytes() == obs.matrix.tobytes()

    def test_negative_zero_preserved(self):
        m = np.diag([1.0, 0.0]).astype(complex)
        m[1, 1] = -0.0
        back = parse_state_file(emit_state_file(DensityMatrix(m)))
        assert back.matrix.tobytes() == m.astype(np.complex128).tobytes()


class TestHelpers:
    def test_complex_array_to_pairs(self):
        a = np.array([[1 + 2j, 0], [0, -1j]])
        assert complex_array_to_pairs(a) == [
            [[1.0, 2.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, -1.0]],
        ]
