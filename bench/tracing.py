"""Runtime spans around purecorr's public functions, for the traced run only.

A :class:`Tracer` replaces each traced function with a wrapper in every
``purecorr`` module that binds it (``cli`` and ``correlation`` hold their own
imported copies, so patching the definition alone would miss their calls),
and wraps constructors and methods on the class itself.  Spans are kept in
memory as ``[name, start, end, parent, value]`` and written out when the run
ends; leaving the ``with`` block restores every original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from purecorr import cli, correlation, linalg, purification, stateio, states


def _state_density_bytes(args, result):
    return result.nbytes


def _text_bytes(args, result):
    return len(args[0])


def _emitted_bytes(args, result):
    return len(result)


def _unitary_dim(args, result):
    return args[0]


# (owner, attribute, span name, value recorded on the span or None)
FUNCTIONS = [
    (correlation, "synthesize_witness", "correlation.synthesize_witness", None),
    (correlation, "correlation_operator", "correlation.correlation_operator", None),
    (correlation, "operator_schmidt", "correlation.operator_schmidt", None),
    (correlation, "covariance", "correlation.covariance", None),
    (correlation, "sample_measurements", "correlation.sample_measurements", None),
    (states, "random_density", "states.generate", None),
    (states, "random_product_state", "states.generate", None),
    (states, "random_unitary", "states.random_unitary", _unitary_dim),
    (linalg, "multi_partial_trace", "linalg.multi_partial_trace", None),
    (linalg, "hermitian_eig", "linalg.hermitian_eig", None),
    (linalg, "svd", "linalg.svd", None),
    (linalg, "operator_to_coefficient_matrix", "linalg.operator_to_coefficient_matrix", None),
    (linalg, "hermitian_basis", "linalg.hermitian_basis", None),
    (purification, "apply_ancilla_unitary", "purification.apply_ancilla_unitary", None),
    (purification, "cut_entanglement", "purification.cut_entanglement", None),
    (stateio, "parse_content", "stateio.parse_content", _text_bytes),
    (stateio, "emit_state_file", "stateio.emit_state_file", _emitted_bytes),
    (cli, "cmd_analyze", "cli.analyze", None),
    (cli, "cmd_purify", "cli.purify", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "cmd_sample", "cli.sample", None),
]
METHODS = [
    (states.DensityMatrix, "__post_init__", "states.validate", None),
    (states.PureState, "__post_init__", "states.validate", None),
    (states.PureState, "density", "states.PureState.density", _state_density_bytes),
    (purification.Purification, "__post_init__", "purification.Purification.check", None),
]

# Per-layer metrics read from the spans: (metric name, span name, kind, unit).
SPAN_METRICS = [
    ("correlation.synthesize_witness.calls", "correlation.synthesize_witness", "calls", "count"),
    ("correlation.synthesize_witness.self_s", "correlation.synthesize_witness", "self_s", "s"),
    ("correlation.correlation_operator.calls", "correlation.correlation_operator", "calls", "count"),
    ("correlation.correlation_operator.self_s", "correlation.correlation_operator", "self_s", "s"),
    ("correlation.operator_schmidt.self_s", "correlation.operator_schmidt", "self_s", "s"),
    ("correlation.covariance.calls", "correlation.covariance", "calls", "count"),
    ("correlation.sample_measurements.self_s", "correlation.sample_measurements", "self_s", "s"),
    ("states.validate.calls", "states.validate", "calls", "count"),
    ("states.validate.self_s", "states.validate", "self_s", "s"),
    ("states.generate.calls", "states.generate", "calls", "count"),
    ("states.generate.self_s", "states.generate", "self_s", "s"),
    ("linalg.multi_partial_trace.calls", "linalg.multi_partial_trace", "calls", "count"),
    ("linalg.multi_partial_trace.self_s", "linalg.multi_partial_trace", "self_s", "s"),
    ("linalg.hermitian_eig.calls", "linalg.hermitian_eig", "calls", "count"),
    ("linalg.hermitian_eig.self_s", "linalg.hermitian_eig", "self_s", "s"),
    ("linalg.svd.calls", "linalg.svd", "calls", "count"),
    ("linalg.svd.self_s", "linalg.svd", "self_s", "s"),
    ("linalg.operator_to_coefficient_matrix.calls", "linalg.operator_to_coefficient_matrix", "calls", "count"),
    ("linalg.operator_to_coefficient_matrix.self_s", "linalg.operator_to_coefficient_matrix", "self_s", "s"),
    ("linalg.hermitian_basis.calls", "linalg.hermitian_basis", "calls", "count"),
    ("purification.Purification.check.calls", "purification.Purification.check", "calls", "count"),
    ("purification.Purification.check.self_s", "purification.Purification.check", "self_s", "s"),
    ("purification.apply_ancilla_unitary.self_s", "purification.apply_ancilla_unitary", "self_s", "s"),
    ("purification.cut_entanglement.calls", "purification.cut_entanglement", "calls", "count"),
    ("purification.cut_entanglement.self_s", "purification.cut_entanglement", "self_s", "s"),
    ("states.PureState.density.calls", "states.PureState.density", "calls", "count"),
    ("states.PureState.density.self_s", "states.PureState.density", "self_s", "s"),
    ("states.PureState.density.bytes_computed", "states.PureState.density", "sum", "bytes"),
    ("states.random_unitary.calls", "states.random_unitary", "calls", "count"),
    ("states.random_unitary.self_s", "states.random_unitary", "self_s", "s"),
    ("states.random_unitary.dim_max", "states.random_unitary", "max", "dim"),
    ("stateio.parse_content.calls", "stateio.parse_content", "calls", "count"),
    ("stateio.parse_content.self_s", "stateio.parse_content", "self_s", "s"),
    ("stateio.parse_content.bytes", "stateio.parse_content", "sum", "bytes"),
    ("stateio.emit_state_file.calls", "stateio.emit_state_file", "calls", "count"),
    ("stateio.emit_state_file.self_s", "stateio.emit_state_file", "self_s", "s"),
    ("stateio.emit_state_file.bytes", "stateio.emit_state_file", "sum", "bytes"),
    ("cli.analyze.self_s", "cli.analyze", "self_s", "s"),
    ("cli.purify.self_s", "cli.purify", "self_s", "s"),
    ("cli.verify.self_s", "cli.verify", "self_s", "s"),
    ("cli.sample.self_s", "cli.sample", "self_s", "s"),
]
# Calls of one span per state drawn by the seeded generators.
PER_STATE = [
    ("correlation.correlation_operator.calls_per_state", "correlation.correlation_operator"),
    ("states.validate.calls_per_state", "states.validate"),
]
STATES_SPAN = "states.generate"


class Tracer:
    """Records nested spans while active; a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, value=None):
        """``fn`` wrapped so that each call records one span named ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    record[4] = value(args, result)
                return result
            finally:
                stack.pop()
                record[2] = clock()

        return wrapper

    def __enter__(self):
        wrappers = {}
        for owner, attr, name, value in FUNCTIONS:
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, self.span(name, original, value))
        modules = [m for key, m in sys.modules.items()
                   if key == "purecorr" or key.startswith("purecorr.")]
        for module in modules:
            for attr, current in list(vars(module).items()):
                hit = wrappers.get(id(current))
                if hit is not None and hit[0] is current:
                    self._patch(module, attr, hit[1])
        for cls, attr, name, value in METHODS:
            self._patch(cls, attr, self.span(name, vars(cls)[attr], value))
        return self

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent id, value."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for sid, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, value]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest on one call stack, so children never overlap each other.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def span_summary(spans: list[list]) -> dict[str, dict]:
    """Calls, self and total time, and the sum and max of the recorded values, per span name.

    Total time skips a span nested directly in a span of the same name, which
    would count the same interval twice.
    """
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "sum": 0, "max": 0})
    for (name, start, end, parent, value), own in zip(spans, self_times(spans)):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += own
        if parent < 0 or spans[parent][0] != name:
            entry["total_s"] += end - start
        if value is not None:
            entry["sum"] += value
            entry["max"] = max(entry["max"], value)
    return out


def layer_metrics(spans: list[list]) -> tuple[dict, list[str]]:
    """Per-layer metrics named in BENCHMARK.json, plus printable ratio lines."""
    summary = span_summary(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "sum": 0, "max": 0}
    metrics = {}
    for metric, span_name, kind, unit in SPAN_METRICS:
        metrics[metric] = {"value": summary.get(span_name, empty)[kind], "unit": unit}
    states_drawn = summary.get(STATES_SPAN, empty)["calls"]
    lines = []
    for metric, span_name in PER_STATE:
        calls = summary.get(span_name, empty)["calls"]
        ratio = calls / states_drawn if states_drawn else 0.0
        metrics[metric] = {"value": ratio, "unit": "ratio"}
        lines.append(f"{metric}: {ratio:.4g} = {calls} calls / {states_drawn} states")
    return metrics, lines


def layer_shares(spans: list[list], top: int = 6) -> list[str]:
    """Self time per module (the first part of each span name) and per span, largest first."""
    summary = span_summary(spans)
    by_layer: dict[str, float] = defaultdict(float)
    for name, entry in summary.items():
        by_layer[name.split(".")[0]] += entry["self_s"]
    total = sum(by_layer.values()) or 1.0

    lines = ["self time by layer in the traced ops ('op' is code outside purecorr's "
             "traced functions):"]
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer}: {t:.4f} s ({100 * t / total:.1f}%)")
    lines.append(f"top {top} spans by self time:")
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:top]
    for name, entry in ranked:
        lines.append(f"  {name}: {entry['self_s']:.4f} s self ({100 * entry['self_s'] / total:.1f}%)"
                     f", {entry['total_s']:.4f} s with children, {entry['calls']} calls")
    return lines

