"""Tests for the state file format: grammar, validation, exact round trips."""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    content_to_bipartite,
    emit_state_file,
    parse_content,
    parse_observable_file,
    parse_state_file,
)

GOLDEN = Path(__file__).parent / "golden"

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
            parse_state_file(text)


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


# Each malformed or edge-case file with the exact message it must raise,
# line and column included.  Header cases are whole files; each body case
# is a (matrix body, message, vector body, message) row, read after the
# MATRIX_HEAD or VECTOR_HEAD below.
HEADER_ERRORS = [
    ('empty', '',
     "line 1, column 1: missing 'matrix:' or 'vector:' body"),
    ('blank', '  \n\t\n',
     "line 3, column 1: missing 'matrix:' or 'vector:' body"),
    ('no-body', 'version: 1\nkind: density\ndims: [2]\n',
     "line 4, column 1: missing 'matrix:' or 'vector:' body"),
    ('no-body-trailing-space', 'version: 1\nkind: density\ndims: [2]\n   \n  ',
     "line 5, column 3: missing 'matrix:' or 'vector:' body"),
    ('empty-matrix-body', 'version: 1\nkind: density\ndims: [2]\nmatrix:',
     'line 4, column 8: missing array body'),
    ('blank-vector-body', 'version: 1\nkind: pure\ndims: [2]\nvector:  \n  \n',
     'line 6, column 1: missing array body'),
    ('missing-colon', 'version 1\n',
     "line 1, column 9: expected ':' after field name 'version'"),
    ('missing-colon-at-end', 'version: 1\nkind',
     "line 2, column 5: expected ':' after field name 'kind'"),
    ('missing-colon-after-space', 'version: 1\n  kind   density\n',
     "line 2, column 10: expected ':' after field name 'kind'"),
    ('dash-in-key', 'version: 1\nkind-x: density\n',
     "line 2, column 5: expected ':' after field name 'kind'"),
    ('missing-key', 'version: 1\n  : density\n',
     "line 2, column 3: expected a field name, found ':'"),
    ('missing-key-symbol', 'version: 1\n\n    = 2\n',
     "line 3, column 5: expected a field name, found '='"),
    ('missing-value', 'version:',
     'line 1, column 9: expected a value'),
    ('missing-value-after-space', 'version: 1\nkind:   \n  ',
     'line 3, column 3: expected a value'),
    ('duplicate-version', 'version: 1\nversion: 1\n',
     "line 2, column 9: duplicate field 'version'"),
    ('duplicate-dims', 'version: 1\nkind: density\ndims: [2]\n dims: [2]\n',
     "line 4, column 7: duplicate field 'dims'"),
    ('unknown-field', 'version: 1\n   bogus: 3\n',
     "line 2, column 10: unknown field 'bogus'"),
    ('unknown-before-duplicate', 'bogus: 1 bogus: 2',
     "line 1, column 7: unknown field 'bogus'"),
    ('no-version', 'kind: density\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "missing 'version' field"),
    ('wrong-version', 'version: 2\nkind: density\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "unsupported version '2', expected '1'"),
    ('decimal-version', 'version: 1.0\nkind: density\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "unsupported version '1.0', expected '1'"),
    ('no-kind', 'version: 1\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "missing 'kind' field"),
    ('wrong-kind', 'version: 1\nkind: mixed\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "kind must be one of ('density', 'pure', 'observable'), got 'mixed'"),
    ('glued-kind', 'version: 1\nkind:density,\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "kind must be one of ('density', 'pure', 'observable'), got 'density,'"),
    ('density-with-vector', 'version: 1\nkind: density\ndims: [1]\nvector: [[1.0, 0.0]]\n',
     "kind 'density' requires a 'matrix:' body, found 'vector:'"),
    ('pure-with-matrix', 'version: 1\nkind: pure\ndims: [1]\nmatrix: [[[1.0, 0.0]]]\n',
     "kind 'pure' requires a 'vector:' body, found 'matrix:'"),
    ('observable-with-vector', 'version: 1\nkind: observable\ndims: [1]\nvector: [[1.0, 0.0]]\n',
     "kind 'observable' requires a 'matrix:' body, found 'vector:'"),
    ('no-dims', 'version: 1\nkind: density\nmatrix: [[[1.0, 0.0]]]\n',
     "missing 'dims' field"),
    ('dims-empty', 'version: 1\nkind: density\ndims: []\nmatrix: [[[1.0, 0.0]]]\n',
     'dims must be positive integers, got []'),
    ('dims-zero', 'version: 1\nkind: density\ndims: [0, 2]\nmatrix: [[[1.0, 0.0]]]\n',
     'dims must be positive integers, got [0, 2]'),
    ('dims-negative', 'version: 1\nkind: density\ndims: [-1]\nmatrix: [[[1.0, 0.0]]]\n',
     'dims must be positive integers, got [-1]'),
    ('dims-letter', 'version: 1\nkind: density\ndims: [a]\nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 10: dims must be integers: invalid literal for int() with base 10: 'a'"),
    ('dims-float', 'version: 1\nkind: density\ndims: [2.5]\nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 12: dims must be integers: invalid literal for int() with base 10: '2.5'"),
    ('dims-nested', 'version: 1\nkind: density\ndims: [1, [2]]\nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 15: dims must be integers: invalid literal for int() with base 10: '[2]'"),
    ('dims-nested-deep', 'version: 1\nkind: density\ndims:  [[1, [2, 3]], 4]  \nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 24: dims must be integers: invalid literal for int() with base 10: '[1'"),
    ('dims-trailing-comma', 'version: 1\nkind: density\ndims: [ 2 , ]\nmatrix: [[[1.0, 0.0]]]\n',
     'matrix shape (1, 1) does not match dims product 2'),
    ('dims-unterminated', 'version: 1\nkind: density\ndims:   [2, 2\nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 9: unterminated '['"),
    ('dims-unterminated-nested', 'version: 1\nkind: density\ndims: [2, [2]\n',
     "line 3, column 7: unterminated '['"),
    ('dims-no-bracket', 'version: 1\nkind: density\ndims:   2\nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 9: expected '['"),
    ('dims-at-end', 'version: 1\nkind: density\ndims:',
     "line 3, column 6: expected '['"),
    ('dims-stray-close', 'version: 1\nkind: density\ndims: [2]]\nmatrix: [[[1.0, 0.0]]]\n',
     "line 3, column 10: expected a field name, found ']'"),
    ('labels-too-many', 'version: 1\nkind: pure\ndims: [2]\nlabels: [A, B]\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     '2 labels for 1 dims'),
    ('labels-too-few', 'version: 1\nkind: pure\ndims: [2, 2]\nlabels: [a]\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     '1 labels for 2 dims'),
    ('labels-empty', 'version: 1\nkind: pure\ndims: [2]\nlabels: []\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     '0 labels for 1 dims'),
    ('labels-trailing-comma', 'version: 1\nkind: pure\ndims: [2, 2]\nlabels: [ A , ]\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     '1 labels for 2 dims'),
    ('labels-nested', 'version: 1\nkind: pure\ndims: [2]\nlabels: [1, [2]]\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     '2 labels for 1 dims'),
    ('labels-duplicate', 'version: 1\nkind: pure\ndims: [2, 2]\nlabels: [A, A]\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     "labels must be unique, got ['A', 'A']"),
    ('labels-duplicate-after-strip', 'version: 1\nkind: density\ndims: [1, 1]\nlabels: [ B,B ]\nmatrix: [[[1.0, 0.0]]]\n',
     "labels must be unique, got ['B', 'B']"),
    ('labels-unterminated', 'version: 1\nkind: pure\ndims: [2]\n  labels: [A\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     "line 4, column 11: unterminated '['"),
    # a group closes on its own line, so it cannot swallow the body after it
    ('labels-unbalanced', 'version: 1\nkind: pure\ndims: [1]\nlabels: [[A]\nvector: [[1.0, 0.0]]]\n',
     "line 4, column 9: unterminated '['"),
    ('labels-unbalanced-two-line-body', 'version: 1\nkind: pure\ndims: [2]\nlabels: [[A]\nvector: [[1.0, 0.0],\n [0.0, 0.0]]]\n',
     "line 4, column 9: unterminated '['"),
    ('labels-no-bracket', 'version: 1\nkind: pure\ndims: [2]\nlabels: A\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     "line 4, column 9: expected '['"),
    # emit_state_file would refuse the label '[B]'
    ('labels-bracketed', 'version: 1\nkind: pure\ndims: [2]\nlabels: [[B]]\nvector: [[1.0, 0.0], [0.0, 0.0]]\n',
     "line 4, column 10: label '[B]' must not contain '[' or ']'"),
    ('labels-bracketed-second', 'version: 1\nkind: density\ndims: [1, 1]\nlabels: [A, [B]]\nmatrix: [[[1.0, 0.0]]]\n',
     "line 4, column 13: label '[B]' must not contain '[' or ']'"),
    # the bad label '[x' repeats the text of a good one and opens its group
    ('labels-bracketed-repeat', 'version: 1\nkind: pure\ndims: [1, 1, 1]\nlabels: [x, [x, y]]\nvector: [[1.0, 0.0]]\n',
     "line 4, column 13: label '[x' must not contain '[' or ']'"),
]

BODY_ERRORS = [
    ('ragged',
     '[[[1.0, 0.0], [0.0, 0.0]],\n [[0.0, 0.0]]]',
     'matrix row 1 has 1 entries, expected 2',
     '[[1.0, 0.0],\n [0.0, 0.0, 0.0]]',
     'vector entry 1: expected a [re, im] pair, got [0.0, 0.0, 0.0]'),
    ('short-pair',
     '[[[1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
     'matrix entry (0, 0): expected a [re, im] pair, got [1.0]',
     '[[1.0, 0.0], [1.0]]',
     'vector entry 1: expected a [re, im] pair, got [1.0]'),
    ('long-pair',
     '[[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
     'matrix entry (0, 0): expected a [re, im] pair, got [1.0, 0.0, 0.0]',
     '[[1.0, 0.0, 0.0], [0.0, 0.0]]',
     'vector entry 0: expected a [re, im] pair, got [1.0, 0.0, 0.0]'),
    ('too-deep',
     '[[[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[0.0, 0.0]]]]',
     'matrix entry (0, 0): expected a [re, im] pair, got [[1.0, 0.0]]',
     '[[[1.0, 0.0]], [[0.0, 0.0]]]',
     'vector entry 0: expected a [re, im] pair, got [[1.0, 0.0]]'),
    ('too-shallow',
     '[[1.0, 0.0], [0.0, 0.0]]',
     'matrix entry (0, 0): expected a [re, im] pair, got 1.0',
     '[1.0, 0.0]',
     'vector entry 0: expected a [re, im] pair, got 1.0'),
    ('scalar',
     '1.0',
     'matrix body must be a nonempty list of rows',
     '1.0',
     'vector body must be a nonempty list of [re, im] pairs'),
    ('empty-list',
     '[]',
     'matrix body must be a nonempty list of rows',
     '[]',
     'vector body must be a nonempty list of [re, im] pairs'),
    ('empty-row',
     '[[], []]',
     'matrix row 0 must be a nonempty list',
     '[[], []]',
     'vector entry 0: expected a [re, im] pair, got []'),
    ('object-body',
     '{}',
     'matrix body must be a nonempty list of rows',
     '{}',
     'vector body must be a nonempty list of [re, im] pairs'),
    ('trailing-junk',
     '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]] x',
     'line 5, column 54: array syntax error: Extra data',
     '[[1.0, 0.0], [0.0, 0.0]]\n  ]',
     'line 6, column 3: array syntax error: Extra data'),
    ('unterminated',
     '[[[1.0, 0.0], [0.0, 0.0]],\n [[0.0, 0.0], [0.0, 0.0]]',
     "line 6, column 26: array syntax error: Expecting ',' delimiter",
     '[[1.0, 0.0], [0.0, 0.0]',
     "line 5, column 24: array syntax error: Expecting ',' delimiter"),
    ('missing-comma',
     '[[[1.0, 0.0], [0.0 0.0]],\n [[0.0, 0.0], [0.0, 0.0]]]',
     "line 5, column 20: array syntax error: Expecting ',' delimiter",
     '[[1.0, 0.0],\n [0.0 0.0]]',
     "line 6, column 7: array syntax error: Expecting ',' delimiter"),
    ('nan',
     '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [NaN, 0.0]]]',
     "line 5, column 1: non-finite constant 'NaN' is not allowed",
     '[[1.0, 0.0], [NaN, 0.0]]',
     "line 5, column 1: non-finite constant 'NaN' is not allowed"),
    ('minus-infinity',
     '[[[-Infinity, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
     "line 5, column 1: non-finite constant '-Infinity' is not allowed",
     '[[1.0, -Infinity], [0.0, 0.0]]',
     "line 5, column 1: non-finite constant '-Infinity' is not allowed"),
    ('overflow',
     '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e999, 0.0]]]',
     'matrix entry (1, 1): entries must be finite, got [inf, 0.0]',
     '[[1.0, 0.0], [0.0, -1e999]]',
     'vector entry 1: entries must be finite, got [0.0, -inf]'),
    ('true',
     '[[[true, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
     'matrix entry (0, 0): expected a [re, im] pair, got [True, 0.0]',
     '[[1.0, 0.0], [0.0, true]]',
     'vector entry 1: expected a [re, im] pair, got [0.0, True]'),
    ('false',
     '[[[1.0, 0.0], [0.0, false]], [[0.0, 0.0], [0.0, 0.0]]]',
     'matrix entry (0, 1): expected a [re, im] pair, got [0.0, False]',
     '[[false, 0.0], [0.0, 0.0]]',
     'vector entry 0: expected a [re, im] pair, got [False, 0.0]'),
    ('quoted-number',
     '[[["1.0", 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
     "matrix entry (0, 0): expected a [re, im] pair, got ['1.0', 0.0]",
     '[["1.0", 0.0], [0.0, 0.0]]',
     "vector entry 0: expected a [re, im] pair, got ['1.0', 0.0]"),
    ('null',
     '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, null], [0.0, 0.0]]]',
     'matrix entry (1, 0): expected a [re, im] pair, got [0.0, None]',
     '[[1.0, 0.0], [null, 0.0]]',
     'vector entry 1: expected a [re, im] pair, got [None, 0.0]'),
    ('object-entry',
     '[[[1.0, 0.0], {}], [[0.0, 0.0], [0.0, 0.0]]]',
     'matrix entry (0, 1): expected a [re, im] pair, got {}',
     '[[1.0, 0.0], {}]',
     'vector entry 1: expected a [re, im] pair, got {}'),
    ('bad-entry-before-ragged-row',
     '[[[1.0, 0.0], [0.0, true]], [[0.0, 0.0]]]',
     'matrix entry (0, 1): expected a [re, im] pair, got [0.0, True]',
     '[[1.0, 0.0], [true, 0.0], [0.0]]',
     'vector entry 1: expected a [re, im] pair, got [True, 0.0]'),
    ('shape-against-dims',
     '[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]',
     'matrix shape (3, 3) does not match dims product 2',
     '[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]',
     'vector length 3 does not match dims product 2'),
    ('non-square',
     '[[[1.0, 0.0], [0.0, 0.0]]]',
     'matrix shape (1, 2) does not match dims product 2',
     '[[1.0, 0.0]]',
     'vector length 1 does not match dims product 2'),
    ('body-twice',
     '[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]\nmatrix: [[[1.0, 0.0]]]',
     'line 6, column 1: array syntax error: Extra data',
     '[[1.0, 0.0], [0.0, 0.0]]\nvector: [[1.0, 0.0]]',
     'line 6, column 1: array syntax error: Extra data'),
    ('unphysical',
     '[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]',
     'density matrix trace must be 1, got 0.5+0j',
     '[[0.5, 0.0], [0.0, 0.0]]',
     'state vector norm must be 1, got 0.5'),
]


MATRIX_HEAD = "version: 1\nkind: density\ndims: [2]\nmatrix:\n"
VECTOR_HEAD = "version: 1\nkind: pure\ndims: [2]\nvector:\n"


def _cases(rows):
    return [pytest.param(*row[1:], id=row[0]) for row in rows]


def _message(text: str) -> str:
    with pytest.raises(StateFileError) as info:
        parse_content(text)
    return str(info.value)


class TestErrorCorpus:
    @pytest.mark.parametrize("text, message", _cases(HEADER_ERRORS))
    def test_header(self, text, message):
        assert _message(text) == message

    @pytest.mark.parametrize("matrix, matrix_message, vector, vector_message",
                             _cases(BODY_ERRORS))
    def test_matrix_body(self, matrix, matrix_message, vector, vector_message):
        assert _message(MATRIX_HEAD + matrix) == matrix_message

    @pytest.mark.parametrize("matrix, matrix_message, vector, vector_message",
                             _cases(BODY_ERRORS))
    def test_vector_body(self, matrix, matrix_message, vector, vector_message):
        assert _message(VECTOR_HEAD + vector) == vector_message

    def test_integer_beyond_double_range(self):
        # used to escape as a bare OverflowError from float()
        big = "1" + "0" * 399
        assert _message(f"{MATRIX_HEAD}[[[{big}, 0.0]]]") == (
            f"matrix entry (0, 0): entries must be finite, got [{big}, 0.0]"
        )
        assert _message(f"{VECTOR_HEAD}[[0.0, -{big}]]") == (
            f"vector entry 0: entries must be finite, got [0.0, -{big}]"
        )

    def test_nesting_beyond_the_recursion_limit(self):
        # used to escape as a bare RecursionError from json.loads
        message = _message(MATRIX_HEAD + "[" * 100_000)
        assert message.startswith("line 5, column 1: maximum recursion depth exceeded")


class TestLabels:
    @pytest.mark.parametrize("label", ["A,B", "A]", "[A", "", " A", "A\t", "A\nB"])
    def test_emit_rejects_label_that_would_not_read_back(self, label):
        # "A,B" read back as two labels, "A]" as a syntax error, "" as none,
        # " A" as "A" and "A\nB" as a group left open on its line
        psi = PureState(np.array([1.0, 0.0]), ((label, 2),))
        assert psi.labels == (label,)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            emit_state_file(psi)

    def test_emit_rejects_unsupported_type(self):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            emit_state_file(np.eye(2) / 2)


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

    @pytest.mark.parametrize("seed", range(5))
    def test_traced_pure_state_bit_exact(self, seed):
        # M M^dagger of a 2 x 6 amplitude matrix can miss exact Hermiticity
        # by a rounding, which parsing the emitted state would then remove
        psi = PureState(random_pure(12, seed).amplitudes, (("A", 2), ("C", 6)))
        rho = content_to_bipartite(parse_content(emit_state_file(psi)), "C")
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        back = parse_state_file(emit_state_file(rho))
        assert back.matrix.tobytes() == rho.matrix.tobytes()

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


# An observable whose entries need every digit of repr: signed zeros, the
# smallest subnormal and +-1e300.
EDGE_OBSERVABLE = np.array([
    [complex(-0.0, -0.0), complex(5e-324, 1e300), complex(-1e300, -0.0)],
    [complex(5e-324, -1e300), complex(1e300, 0.0), complex(0.1, -5e-324)],
    [complex(-1e300, 0.0), complex(0.1, 5e-324), complex(-0.0, 0.0)],
])

# Pinned emit_state_file output, one file under tests/golden/ per input.
EMIT_GOLDENS = {
    "emit_bipartite_2x3_rank4_seed8.state": lambda: random_density(DimPair(2, 3), 4, 8),
    "emit_density_3_rank2_seed9.state": lambda: DensityMatrix(
        random_density(DimPair(3, 1), 2, 9).matrix
    ),
    "emit_observable_edge_doubles.state": lambda: Observable(EDGE_OBSERVABLE),
    "emit_pure_sys_c1_c2_seed10.state": lambda: PureState(
        random_pure(12, 10).amplitudes, (("sys", 2), ("C1", 3), ("C2", 2))
    ),
}


@pytest.mark.parametrize("name", sorted(EMIT_GOLDENS))
def test_emitted_bytes_are_pinned(name):
    obj = EMIT_GOLDENS[name]()
    golden = (GOLDEN / name).read_bytes()
    assert emit_state_file(obj).encode() == golden
    value = parse_content(golden.decode()).value
    if isinstance(obj, PureState):
        assert value.amplitudes.tobytes() == obj.amplitudes.tobytes()
        assert value.layout == obj.layout
    else:
        assert value.matrix.tobytes() == obj.matrix.tobytes()


class TestHelpers:
    def test_complex_array_to_pairs(self):
        a = np.array([[1 + 2j, 0], [0, -1j]])
        assert complex_array_to_pairs(a) == [
            [[1.0, 2.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, -1.0]],
        ]


# Bytes that a mutation writes: the grammar's own, digits, exponents and
# names that a number or a label can take.
_MUTATION_BYTES = st.sampled_from(list(b"0123456789eE+-.,:[] \n\tjCinfa_\"#"))
_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 2**16), _MUTATION_BYTES),
    min_size=1, max_size=4,
)


@st.composite
def _mutated_goldens(draw):
    """A golden state file with a few bytes replaced, inserted or deleted."""
    data = bytearray((GOLDEN / draw(st.sampled_from(sorted(GOLDEN.glob("*.state"))))
                      .name).read_bytes())
    for op, pos, byte in draw(_EDITS):
        pos %= len(data) + (op == "insert")
        if op == "replace" and data:
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        elif op == "delete" and data:
            del data[pos]
    return data.decode("latin-1")


def _value_or_none(read, *args):
    """``read(*args)``, or None when it raises StateFileError."""
    try:
        return read(*args)
    except StateFileError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_mutated_goldens())
@example(text="version: 1\nkind: pure\ndims: [2]\nvector: [[1e308, 0.0], [0.0, 0.0]]\n")
def test_a_mutated_file_parses_or_raises_state_file_error(text):
    """Every reader returns a value or raises StateFileError, and warns of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _value_or_none(parse_state_file, text)
        _value_or_none(parse_observable_file, text)
        content = _value_or_none(parse_content, text)
        if content is not None:
            _value_or_none(content_to_bipartite, content)
            if {"C1", "C2"} <= set(content.labels):
                _value_or_none(content_to_bipartite, content, "C1,C2")
