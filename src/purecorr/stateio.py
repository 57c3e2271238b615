"""Plain-text state files with exact decimal round trips.

Format (whitespace between tokens is free):

    version: 1
    kind: density
    dims: [2, 2]
    matrix:
    [[[0.5, 0.0], [0.0, 0.0], ...],
     ...]

Every scalar is a ``[re, im]`` pair written with shortest round-trip
decimal representation, so parse(emit(state)) reproduces the stored doubles
bit for bit.  Pure states use ``kind: pure`` with a ``vector:`` body and an
optional ``labels:`` line naming the tensor factors; Hermitian operators
use ``kind: observable``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import DimPair, multi_partial_trace, require_hermitian
from .states import BipartiteState, DensityMatrix, Observable, PureState, _trusted

__all__ = [
    "FORMAT_VERSION",
    "StateFileError",
    "StateFileContent",
    "parse_content",
    "content_to_bipartite",
    "parse_state_file",
    "parse_observable_file",
    "emit_state_file",
    "complex_array_to_pairs",
]

FORMAT_VERSION = "1"

# Each kind and the key of its body, in the order error messages list them.
_BODY_KEY = {"density": "matrix", "pure": "vector", "observable": "matrix"}


class StateFileError(ValueError):
    """Malformed or non-physical state file; carries a position when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


@dataclass(frozen=True, eq=False)
class StateFileContent:
    """Parsed file: kind, factor dims, factor labels and the validated value."""

    kind: str
    dims: tuple[int, ...]
    labels: tuple[str, ...]
    value: DensityMatrix | PureState | Observable


def default_labels(count: int) -> tuple[str, ...]:
    """Factor labels assumed when a file does not name them."""
    named = {
        1: ("A",),
        2: ("A", "B"),
        3: ("A", "B", "C"),
        4: ("A", "B", "C1", "C2"),
    }
    if count in named:
        return named[count]
    return tuple(f"S{i + 1}" for i in range(count))


# Header grammar: a field name and its ':', a whitespace-free value, and
# the brackets of a ``[...]`` group, which may nest.
_KEY = re.compile(r"\s*(\w*)\s*(:?)")
_VALUE = re.compile(r"\s*(\S*)")
_BRACKET = re.compile(r"[\[\]]")
# A body spelled with these characters alone decodes to nested lists of
# numbers; anything else (true, null, strings, objects) takes the error path.
_NUMERIC = re.compile(r"[\[\],\s0-9eE.+-]*")


def _error(text: str, pos: int, message: str) -> StateFileError:
    line = text.count("\n", 0, pos) + 1
    return StateFileError(message, line, pos - text.rfind("\n", 0, pos))


def _group(text: str, pos: int) -> tuple[tuple[str, ...], int]:
    """Nonempty comma-separated items of the ``[...]`` group at ``pos``, and its end.

    The group closes on the line it opens on.
    """
    start = _VALUE.match(text, pos).start(1)
    if not text.startswith("[", start):
        raise _error(text, start, "expected '['")
    end = text.find("\n", start)
    depth = 0
    for bracket in _BRACKET.finditer(text, start, end if end >= 0 else len(text)):
        depth += 1 if bracket[0] == "[" else -1
        if not depth:
            items = (x.strip() for x in text[start + 1:bracket.start()].split(","))
            return tuple(x for x in items if x), bracket.end()
    raise _error(text, start, "unterminated '['")


def _readable_label(label: str) -> bool:
    """Whether a factor label reads back unchanged from a ``labels:`` line:
    nonempty, without ``,``, ``[``, ``]`` or a line end, and without outer
    whitespace."""
    return bool(label) and label == label.strip() and not set(label) & set(",[]\n")


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token!r} is not allowed")


def _body(payload, body: str, vector: bool) -> np.ndarray:
    """Complex vector or matrix of a decoded ``[re, im]`` body.

    A numeric body takes one float64 conversion, and the complex result
    views its ``(..., 2)`` pairs, so every double, -0.0 included, is kept.
    A body that conversion refuses is walked entry by entry, only to name
    the first bad entry in the error; such a body always has one.
    """
    if _NUMERIC.fullmatch(body):
        try:
            pairs = np.array(payload, dtype=np.float64)
        except (ValueError, OverflowError):  # ragged, or an integer beyond float range
            pairs = np.empty(0)
        shaped = pairs.ndim == (2 if vector else 3) and pairs.shape[-1] == 2 and pairs.size
        if shaped and np.isfinite(pairs).all():
            return pairs.view(np.complex128)[..., 0]
    if not isinstance(payload, list) or not payload:
        raise StateFileError(
            "vector body must be a nonempty list of [re, im] pairs"
            if vector else "matrix body must be a nonempty list of rows"
        )
    rows = [payload] if vector else payload
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise StateFileError(f"matrix row {i} must be a nonempty list")
        if len(row) != len(rows[0]):
            raise StateFileError(
                f"matrix row {i} has {len(row)} entries, expected {len(rows[0])}"
            )
        for j, pair in enumerate(row):
            where = f"vector entry {j}" if vector else f"matrix entry ({i}, {j})"
            if type(pair) is not list or len(pair) != 2 or {*map(type, pair)} - {int, float}:
                raise StateFileError(f"{where}: expected a [re, im] pair, got {pair!r}")
            try:
                finite = all(map(math.isfinite, pair))
            except OverflowError:  # an integer beyond the double range
                finite = False
            if not finite:
                raise StateFileError(f"{where}: entries must be finite, got {pair!r}")


def parse_content(text: str) -> StateFileContent:
    """Parse a state file, validating the physics once.

    Density matrices must be Hermitian, unit trace and positive
    semidefinite; pure vectors must be normalized; observables Hermitian.
    Violations raise :class:`StateFileError` naming the failed invariant.
    The validated value is kept on the returned content.
    """
    fields: dict[str, object] = {}
    pos = 0
    while True:
        field = _KEY.match(text, pos)
        key, start, pos = field[1], field.start(1), field.end()
        if start == len(text):
            raise _error(text, start, "missing 'matrix:' or 'vector:' body")
        if not key:
            raise _error(text, start, f"expected a field name, found {text[start]!r}")
        if not field[2]:
            raise _error(text, field.start(2), f"expected ':' after field name {key!r}")
        if key in fields:
            raise _error(text, pos, f"duplicate field {key!r}")
        if key in ("matrix", "vector"):
            break
        if key in ("version", "kind"):
            value = _VALUE.match(text, pos)
            if not value[1]:
                raise _error(text, value.start(1), "expected a value")
            fields[key], pos = value[1], value.end()
        elif key in ("dims", "labels"):
            if key == "labels":  # just inside the group's '['
                labels_at = _VALUE.match(text, pos).start(1) + 1
            fields[key], pos = _group(text, pos)
            if key == "dims":
                try:
                    fields[key] = tuple(int(x) for x in fields[key])
                except ValueError as exc:
                    raise _error(text, pos, f"dims must be integers: {exc}") from exc
        else:
            raise _error(text, pos, f"unknown field {key!r}")

    start = _VALUE.match(text, pos).start(1)
    if start == len(text):
        raise _error(text, start, "missing array body")
    body = text[start:]
    try:
        payload = json.loads(body, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise _error(text, start + exc.pos, f"array syntax error: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise _error(text, start, str(exc)) from exc

    version = fields.get("version")
    if version is None:
        raise StateFileError("missing 'version' field")
    if version != FORMAT_VERSION:
        raise StateFileError(f"unsupported version {version!r}, expected {FORMAT_VERSION!r}")
    kind = fields.get("kind")
    if kind is None:
        raise StateFileError("missing 'kind' field")
    if kind not in _BODY_KEY:
        raise StateFileError(f"kind must be one of {tuple(_BODY_KEY)}, got {kind!r}")
    if key != _BODY_KEY[kind]:
        raise StateFileError(
            f"kind {kind!r} requires a '{_BODY_KEY[kind]}:' body, found '{key}:'"
        )
    dims = fields.get("dims")
    if dims is None:
        raise StateFileError("missing 'dims' field")
    if not dims or any(d < 1 for d in dims):
        raise StateFileError(f"dims must be positive integers, got {list(dims)}")
    total = math.prod(dims)

    labels = fields.get("labels", default_labels(len(dims)))
    if len(labels) != len(dims):
        raise StateFileError(f"{len(labels)} labels for {len(dims)} dims")
    if len(set(labels)) != len(labels):
        raise StateFileError(f"labels must be unique, got {list(labels)}")
    # _group drops empty items and outer blanks: only a bracket can be left.
    # A good label holds none, so the first match inside the group is bad[0].
    bad = [x for x in labels if not _readable_label(x)]
    if bad:
        where = text.index(bad[0], labels_at)
        raise _error(text, where, f"label {bad[0]!r} must not contain '[' or ']'")

    vector = key == "vector"
    array = _body(payload, body, vector)
    if array.shape != (total,) * array.ndim:
        found = f"vector length {array.size}" if vector else f"matrix shape {array.shape}"
        raise StateFileError(f"{found} does not match dims product {total}")

    try:
        if kind == "pure":
            value = PureState(array, tuple(zip(labels, dims)))
        else:
            value = (DensityMatrix if kind == "density" else Observable)(array)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc
    return StateFileContent(kind, tuple(dims), tuple(labels), value)


def _require_state(content: StateFileContent) -> None:
    if content.kind == "observable":
        raise StateFileError("expected a density or pure state file, found an observable")


def content_to_bipartite(
    content: StateFileContent, trace_out: str | None = None
) -> BipartiteState:
    """Bipartite density matrix of a parsed state file.

    ``trace_out`` names factors (comma-separated labels) to trace out first;
    pure states are reduced from their amplitude matrix, never through
    their full density.  One remaining factor gives a ``d x 1`` bipartite
    state; more than two is an error.
    """
    _require_state(content)
    dims = list(content.dims)
    labels = list(content.labels)
    drop = [s.strip() for s in (trace_out or "").split(",") if s.strip()]
    unknown = sorted(set(drop) - set(labels))
    if unknown:
        raise StateFileError(f"labels {unknown} not in state factors {labels}")
    keep = [i for i, lab in enumerate(labels) if lab not in drop]
    if not keep:
        raise StateFileError("cannot trace out every factor")
    if content.kind == "pure":
        # M M^dagger can miss exact Hermiticity by a rounding, which parse would undo
        matrix = require_hermitian(content.value.reduced(keep))
    else:
        matrix = multi_partial_trace(content.value.matrix, dims, keep)
    dm = _trusted(DensityMatrix, matrix=matrix)
    dims = [dims[i] for i in keep]
    labels = [labels[i] for i in keep]
    if len(dims) == 1:
        return BipartiteState(dm, DimPair(dims[0], 1))
    if len(dims) == 2:
        return BipartiteState(dm, DimPair(*dims))
    raise StateFileError(
        f"state has {len(dims)} factors {labels}; use --trace-out to reduce to two"
    )


def parse_state_file(text: str) -> BipartiteState | PureState | DensityMatrix:
    """Parse and validate a density or pure state file.

    Two-factor density files come back as :class:`BipartiteState`,
    single-factor ones as a bare :class:`DensityMatrix`, pure files as
    :class:`PureState`; in every case parse(emit(x)) reproduces x bit for
    bit.
    """
    content = parse_content(text)
    _require_state(content)
    if content.kind == "pure" or len(content.dims) == 1:
        return content.value
    if len(content.dims) == 2:
        return BipartiteState(content.value, DimPair(*content.dims))
    raise StateFileError(
        f"density file has {len(content.dims)} factors; trace it down to two first"
    )


def parse_observable_file(text: str) -> Observable:
    """Parse a Hermitian observable from a ``kind: observable`` file."""
    content = parse_content(text)
    if content.kind != "observable":
        raise StateFileError(f"expected an observable file, found kind {content.kind!r}")
    return content.value


def complex_array_to_pairs(a: np.ndarray) -> list:
    """Nested [re, im] lists for JSON output."""
    return np.stack([a.real, a.imag], -1).tolist()


def emit_state_file(obj: BipartiteState | DensityMatrix | PureState | Observable) -> str:
    """Serialize a state or observable; parse(emit(x)) is bit-exact.

    A pure state's labels must read back unchanged, so a label that is
    empty, holds ``,``, ``[``, ``]`` or a line end, or has leading or
    trailing whitespace raises ``ValueError``.
    """
    if isinstance(obj, PureState):
        kind, dims, array = "pure", obj.factor_dims, obj.amplitudes
        for label in obj.labels:
            if not _readable_label(label):
                raise ValueError(f"label {label!r} would not read back from a state file")
    elif isinstance(obj, BipartiteState):
        kind, dims, array = "density", obj.dims, obj.matrix
    elif isinstance(obj, (DensityMatrix, Observable)):
        kind = "observable" if isinstance(obj, Observable) else "density"
        dims, array = (obj.dim,), obj.matrix
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    labels = f"labels: [{', '.join(obj.labels)}]\n" if kind == "pure" else ""
    # One template for the body, a line per row; %r is each double's shortest repr.
    line = "[%r, %r]"
    if array.ndim == 2:
        line = "[" + ", ".join([line] * array.shape[1]) + "]"
    template = "[" + ",\n ".join([line] * array.shape[0]) + "]"
    body = template % tuple(np.stack([array.real, array.imag], -1).ravel().tolist())
    return (
        f"version: {FORMAT_VERSION}\nkind: {kind}\ndims: [{', '.join(map(str, dims))}]\n"
        f"{labels}{_BODY_KEY[kind]}:\n{body}\n"
    )
