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
from dataclasses import dataclass

import numpy as np

from .linalg import DimPair, multi_partial_trace
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

_KINDS = ("density", "pure", "observable")
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


def _linecol(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> StateFileError:
        line, col = _linecol(self.text, self.pos if pos is None else pos)
        return StateFileError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def read_key(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise self.error(
                f"expected a field name, found {self.text[self.pos:self.pos + 1]!r}"
            )
        key = self.text[start:self.pos]
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ":":
            raise self.error(f"expected ':' after field name {key!r}")
        self.pos += 1
        return key

    def read_token(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a value")
        return self.text[start:self.pos]

    def read_bracket_group(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "[":
            raise self.error("expected '['")
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return self.text[start:self.pos]
            self.pos += 1
        raise self.error("unterminated '['", pos=start)


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token!r} is not allowed")


def _parse_payload(scanner: _Scanner):
    scanner.skip_ws()
    start = scanner.pos
    payload = scanner.text[start:]
    if not payload.strip():
        raise scanner.error("missing array body")
    try:
        return json.loads(payload, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        line, col = _linecol(scanner.text, start + exc.pos)
        raise StateFileError(f"array syntax error: {exc.msg}", line, col) from exc
    except ValueError as exc:
        raise scanner.error(str(exc), pos=start) from exc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pair_to_complex(pair, where: str) -> complex:
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(_is_number(x) for x in pair)
    ):
        raise StateFileError(f"{where}: expected a [re, im] pair, got {pair!r}")
    value = complex(float(pair[0]), float(pair[1]))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise StateFileError(f"{where}: entries must be finite, got {pair!r}")
    return value


def _payload_to_vector(payload) -> np.ndarray:
    if not isinstance(payload, list) or not payload:
        raise StateFileError("vector body must be a nonempty list of [re, im] pairs")
    return np.array(
        [_pair_to_complex(p, f"vector entry {i}") for i, p in enumerate(payload)],
        dtype=np.complex128,
    )


def _payload_to_matrix(payload) -> np.ndarray:
    if not isinstance(payload, list) or not payload:
        raise StateFileError("matrix body must be a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(payload):
        if not isinstance(row, list) or not row:
            raise StateFileError(f"matrix row {i} must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise StateFileError(
                f"matrix row {i} has {len(row)} entries, expected {width}"
            )
        rows.append(
            [_pair_to_complex(p, f"matrix entry ({i}, {j})") for j, p in enumerate(row)]
        )
    return np.array(rows, dtype=np.complex128)


def parse_content(text: str) -> StateFileContent:
    """Parse a state file, validating the physics once.

    Density matrices must be Hermitian, unit trace and positive
    semidefinite; pure vectors must be normalized; observables Hermitian.
    Violations raise :class:`StateFileError` naming the failed invariant.
    The validated value is kept on the returned content.
    """
    scanner = _Scanner(text)
    fields: dict[str, object] = {}
    body_key = None
    while True:
        if scanner.at_end():
            raise scanner.error("missing 'matrix:' or 'vector:' body")
        key = scanner.read_key()
        if key in fields or (body_key is not None):
            raise scanner.error(f"duplicate field {key!r}")
        if key in ("matrix", "vector"):
            body_key = key
            payload = _parse_payload(scanner)
            break
        if key == "version":
            fields["version"] = scanner.read_token()
        elif key == "kind":
            fields["kind"] = scanner.read_token()
        elif key == "dims":
            group = scanner.read_bracket_group()
            try:
                dims = tuple(int(x.strip()) for x in group[1:-1].split(",") if x.strip())
            except ValueError as exc:
                raise scanner.error(f"dims must be integers: {exc}") from exc
            fields["dims"] = dims
        elif key == "labels":
            group = scanner.read_bracket_group()
            fields["labels"] = tuple(
                x.strip() for x in group[1:-1].split(",") if x.strip()
            )
        else:
            raise scanner.error(f"unknown field {key!r}")

    version = fields.get("version")
    if version is None:
        raise StateFileError("missing 'version' field")
    if version != FORMAT_VERSION:
        raise StateFileError(f"unsupported version {version!r}, expected {FORMAT_VERSION!r}")
    kind = fields.get("kind")
    if kind is None:
        raise StateFileError("missing 'kind' field")
    if kind not in _KINDS:
        raise StateFileError(f"kind must be one of {_KINDS}, got {kind!r}")
    if body_key != _BODY_KEY[kind]:
        raise StateFileError(
            f"kind {kind!r} requires a '{_BODY_KEY[kind]}:' body, found '{body_key}:'"
        )
    dims = fields.get("dims")
    if dims is None:
        raise StateFileError("missing 'dims' field")
    if not dims or any(d < 1 for d in dims):
        raise StateFileError(f"dims must be positive integers, got {list(dims)}")
    total = math.prod(dims)

    labels = fields.get("labels", default_labels(len(dims)))
    if len(labels) != len(dims):
        raise StateFileError(
            f"{len(labels)} labels for {len(dims)} dims"
        )
    if len(set(labels)) != len(labels):
        raise StateFileError(f"labels must be unique, got {list(labels)}")

    if kind == "pure":
        array = _payload_to_vector(payload)
        if array.size != total:
            raise StateFileError(
                f"vector length {array.size} does not match dims product {total}"
            )
    else:
        array = _payload_to_matrix(payload)
        if array.shape != (total, total):
            raise StateFileError(
                f"matrix shape {array.shape} does not match dims product {total}"
            )

    try:
        if kind == "density":
            value = DensityMatrix(array)
        elif kind == "pure":
            value = PureState(array, tuple(zip(labels, dims)))
        else:
            value = Observable(array)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc
    return StateFileContent(kind, tuple(dims), tuple(labels), value)


def _require_state(content: StateFileContent) -> None:
    if content.kind == "observable":
        raise StateFileError("expected a density or pure state file, found an observable")


def content_to_state(
    content: StateFileContent,
) -> BipartiteState | PureState | DensityMatrix:
    """Typed state for a parsed file (density files need one or two factors)."""
    _require_state(content)
    if content.kind == "pure" or len(content.dims) == 1:
        return content.value
    if len(content.dims) == 2:
        return BipartiteState(content.value, DimPair(*content.dims))
    raise StateFileError(
        f"density file has {len(content.dims)} factors; trace it down to two first"
    )


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
        matrix = content.value.reduced(keep)
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
    return content_to_state(parse_content(text))


def parse_observable_file(text: str) -> Observable:
    """Parse a Hermitian observable from a ``kind: observable`` file."""
    content = parse_content(text)
    if content.kind != "observable":
        raise StateFileError(f"expected an observable file, found kind {content.kind!r}")
    return content.value


def _fmt(x: float) -> str:
    return repr(float(x))


def _pair(z: complex) -> str:
    return f"[{_fmt(z.real)}, {_fmt(z.imag)}]"


def _matrix_body(m: np.ndarray) -> str:
    rows = []
    for i in range(m.shape[0]):
        row = ", ".join(_pair(z) for z in m[i])
        rows.append(f"[{row}]")
    return "[" + ",\n ".join(rows) + "]"


def _vector_body(v: np.ndarray) -> str:
    return "[" + ",\n ".join(_pair(z) for z in v) + "]"


def complex_array_to_pairs(a: np.ndarray) -> list:
    """Nested [re, im] lists for JSON output."""
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [complex_array_to_pairs(row) for row in a]


def emit_state_file(obj: BipartiteState | DensityMatrix | PureState | Observable) -> str:
    """Serialize a state or observable; parse(emit(x)) is bit-exact."""
    lines = [f"version: {FORMAT_VERSION}"]
    if isinstance(obj, BipartiteState):
        lines.append("kind: density")
        lines.append(f"dims: [{obj.dims.da}, {obj.dims.db}]")
        lines.append("matrix:")
        lines.append(_matrix_body(obj.matrix))
    elif isinstance(obj, DensityMatrix):
        lines.append("kind: density")
        lines.append(f"dims: [{obj.dim}]")
        lines.append("matrix:")
        lines.append(_matrix_body(obj.matrix))
    elif isinstance(obj, PureState):
        lines.append("kind: pure")
        lines.append(f"dims: [{', '.join(str(d) for d in obj.factor_dims)}]")
        lines.append(f"labels: [{', '.join(obj.labels)}]")
        lines.append("vector:")
        lines.append(_vector_body(obj.amplitudes))
    elif isinstance(obj, Observable):
        lines.append("kind: observable")
        lines.append(f"dims: [{obj.dim}]")
        lines.append("matrix:")
        lines.append(_matrix_body(obj.matrix))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"
