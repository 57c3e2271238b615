"""Command-line interface: analyze, purify, verify and sample subcommands.

Exit codes are a stable contract: 0 success, 1 a verification campaign
found a counterexample, 2 input or usage error (a failed allocation included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .correlation import (
    FACTORABLE_TOL,
    chi_square_goodness,
    named_observable,
    sample_measurements,
    synthesize_witness,
    to_projective,
    verify_witness_criterion,
)
from .linalg import DimPair, hermitian_eig
from .purification import (
    apply_ancilla_unitary,
    cut_entanglement,
    embed_ancilla,
    entanglement_campaign,
    purify,
)
from .states import GENERATOR_NAME, Observable, random_unitary
from .stateio import (
    StateFileError,
    complex_array_to_pairs,
    content_to_bipartite,
    emit_state_file,
    parse_content,
    parse_observable_file,
)

_PAULI_NAMES = ("i", "x", "y", "z")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_observable(name_or_path: str, dim: int) -> Observable:
    if name_or_path.strip().lower() in _PAULI_NAMES:
        return named_observable(name_or_path, dim)
    obs = parse_observable_file(_read(name_or_path))
    if obs.dim != dim:
        raise StateFileError(
            f"observable {name_or_path} has dimension {obs.dim}, state factor has {dim}"
        )
    return obs


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.9g}{z.imag:+.9g}j"


def _matrix_lines(m: np.ndarray, indent: str = "    ") -> list[str]:
    return [indent + "  ".join(_fmt_complex(z) for z in row) for row in m]


def _print_output(ns, payload: dict, text_lines: list[str]) -> None:
    if ns.json:
        print(json.dumps(payload, indent=2))
    elif not ns.quiet:
        print("\n".join(text_lines))


def _projective_payload(obs: Observable) -> list[dict]:
    return [
        {"outcome": outcome, "projector": complex_array_to_pairs(projector)}
        for outcome, projector in to_projective(obs)
    ]


def cmd_analyze(ns) -> int:
    rho = content_to_bipartite(parse_content(_read(ns.state_file)), ns.trace_out)
    witness = synthesize_witness(rho)
    delta = witness.correlation
    factorable = delta.frobenius_norm <= ns.tol
    eig_a = hermitian_eig(delta.rho_a).eigenvalues
    eig_b = hermitian_eig(delta.rho_b).eigenvalues

    payload = {
        "dims": [rho.dims.da, rho.dims.db],
        "marginal_eigenvalues_a": [float(x) for x in eig_a],
        "marginal_eigenvalues_b": [float(x) for x in eig_b],
        "delta_frobenius_norm": delta.frobenius_norm,
        "factorable": factorable,
        "factorable_tol": ns.tol,
        "witness": {
            "covariance": witness.covariance,
            "sigma1": witness.sigma1,
            "observable_a": complex_array_to_pairs(witness.e.matrix),
            "observable_b": complex_array_to_pairs(witness.f.matrix),
            "measurement_a": _projective_payload(witness.e),
            "measurement_b": _projective_payload(witness.f),
        },
    }
    lines = [
        f"bipartite state on {rho.dims.da}x{rho.dims.db}",
        f"marginal eigenvalues A: [{', '.join(f'{x:.9g}' for x in eig_a)}]",
        f"marginal eigenvalues B: [{', '.join(f'{x:.9g}' for x in eig_b)}]",
        f"correlation operator norm ||Delta||_F: {delta.frobenius_norm:.12g}",
        f"factorable: {'yes' if factorable else 'no'} (tolerance {ns.tol:g})",
        f"witness covariance: {witness.covariance:.12g}",
        f"witness sigma1:     {witness.sigma1:.12g}",
        "witness observable E:",
        *_matrix_lines(witness.e.matrix),
        "witness observable F:",
        *_matrix_lines(witness.f.matrix),
    ]
    for label, obs in (("E", witness.e), ("F", witness.f)):
        lines.append(f"measurement {label} outcomes:")
        for outcome, projector in to_projective(obs):
            lines.append(f"  outcome {outcome:+.9g}, projector:")
            lines.extend(_matrix_lines(projector, indent="      "))
    _print_output(ns, payload, lines)
    return 0


def cmd_purify(ns) -> int:
    content = parse_content(_read(ns.state_file))
    if content.kind != "density":
        raise StateFileError("purify expects a density state file")
    p = purify(content_to_bipartite(content))
    if ns.ancilla_dims:
        try:
            c1, c2 = (int(x) for x in ns.ancilla_dims.split(","))
        except ValueError as exc:
            raise StateFileError(
                f"--ancilla-dims expects 'c1,c2', got {ns.ancilla_dims!r}"
            ) from exc
        p = embed_ancilla(p, (c1, c2))
    if ns.unitary_seed is not None:
        p = apply_ancilla_unitary(p, random_unitary(p.ancilla_dim, ns.unitary_seed))
    if "C1" in p.state.labels:
        left = ("A", "C1")
    else:
        left = ("AB",)
    report = cut_entanglement(p.state, left)
    state_text = emit_state_file(p.state)
    if ns.out:
        Path(ns.out).write_text(state_text)

    cut_name = f"{'+'.join(left)} | rest"
    payload = {
        "layout": [[lab, d] for lab, d in p.state.layout],
        "cut": cut_name,
        "schmidt_coefficients": [float(x) for x in report.schmidt_coefficients],
        "schmidt_rank": report.schmidt_rank,
        "entropy_bits": report.entropy_bits,
        "entangled": report.entangled,
        "unitary_seed": ns.unitary_seed,
        "generator": GENERATOR_NAME,
        "state_file": ns.out if ns.out else state_text,
    }
    lines = [
        "purification layout: " + ", ".join(f"{lab}:{d}" for lab, d in p.state.layout),
        f"cut {cut_name}",
        "schmidt coefficients: ["
        + ", ".join(f"{x:.9g}" for x in report.schmidt_coefficients)
        + "]",
        f"schmidt rank: {report.schmidt_rank}",
        f"entropy: {report.entropy_bits:.9g} bits",
        f"entangled: {'yes' if report.entangled else 'no'}",
    ]
    if ns.out:
        lines.append(f"state written to {ns.out}")
    else:
        lines.append("state file:")
        lines.append(state_text.rstrip("\n"))
    _print_output(ns, payload, lines)
    return 0


def _parse_dims(text: str) -> DimPair:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise StateFileError(f"--dims expects 'dAxdB' (e.g. 2x2), got {text!r}")
    try:
        dims = DimPair(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise StateFileError(f"--dims expects integers: {exc}") from exc
    if min(dims) < 1:
        raise StateFileError(f"--dims factors must be positive, got {text!r}")
    return dims


def _tolerance(text: str) -> float:
    """Argument type of ``--tol``: a finite, nonnegative float."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"expects a finite nonnegative number, got {text!r}"
        )
    return tol


def cmd_verify(ns) -> int:
    dims = _parse_dims(ns.dims)
    if ns.theorem == 1:
        report = entanglement_campaign(
            dims, ns.trials, ns.seed, factorable_tol=ns.tol
        )
    else:
        report = verify_witness_criterion(
            dims, ns.trials, ns.seed, factorable_tol=ns.tol
        )
    if ns.json:
        print(report.to_json())
    elif not ns.quiet:
        print(report.summary())
    return 0 if report.passed else 1


def cmd_sample(ns) -> int:
    rho = content_to_bipartite(parse_content(_read(ns.state_file)), ns.trace_out)
    obs_a = _load_observable(ns.obs_a, rho.dims.da)
    obs_b = _load_observable(ns.obs_b, rho.dims.db)
    result = sample_measurements(rho, obs_a, obs_b, ns.trials, ns.seed)
    stat, dof, pvalue = chi_square_goodness(result.counts, result.probabilities)

    payload = {
        "trials": result.trials,
        "seed": ns.seed,
        "generator": GENERATOR_NAME,
        "outcomes_a": list(result.outcomes_a),
        "outcomes_b": list(result.outcomes_b),
        "counts": [[int(c) for c in row] for row in result.counts],
        "probabilities": [[float(p) for p in row] for row in result.probabilities],
        "empirical_covariance": result.empirical_covariance,
        "analytic_covariance": result.analytic_covariance,
        "chi_square": {"statistic": stat, "dof": dof, "p_value": pvalue},
    }
    lines = [f"joint counts over {result.trials} trials (rows: E, columns: F):"]
    header = "  ".join(f"{v:+12.6g}" for v in result.outcomes_b)
    lines.append(f"  {'':>12}  {header}")
    for i, ea in enumerate(result.outcomes_a):
        cells = "  ".join(f"{int(c):12d}" for c in result.counts[i])
        lines.append(f"  {ea:+12.6g}  {cells}")
    lines += [
        f"empirical covariance: {result.empirical_covariance:.9g}",
        f"analytic covariance:  {result.analytic_covariance:.9g}",
        f"chi-square vs analytic law: stat {stat:.6g}, dof {dof}, p {pvalue:.6g}",
    ]
    _print_output(ns, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress human-readable output"
    )

    parser = argparse.ArgumentParser(
        prog="purecorr",
        description=(
            "Analyze bipartite quantum states: factorability, correlation "
            "witnesses, purifications and seeded verification campaigns."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "analyze", parents=[common], help="factorability and correlation witness"
    )
    p.add_argument("state_file")
    p.add_argument("--tol", type=_tolerance, default=FACTORABLE_TOL,
                   help="factorability tolerance on ||Delta||_F")
    p.add_argument("--trace-out", default=None, metavar="LABELS",
                   help="comma-separated factor labels to trace out first")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "purify", parents=[common], help="build a purification and report its entanglement"
    )
    p.add_argument("state_file")
    p.add_argument("--ancilla-dims", default=None, metavar="C1,C2",
                   help="split the ancilla into two factors of these dimensions")
    p.add_argument("--unitary-seed", type=int, default=None, metavar="S",
                   help="apply a seeded Haar unitary on the ancilla")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the purified state file here instead of stdout")
    p.set_defaults(func=cmd_purify)

    p = sub.add_parser(
        "verify", parents=[common], help="run a seeded verification campaign"
    )
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--dims", required=True, metavar="dAxdB")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, default=FACTORABLE_TOL,
                   help="factorability tolerance on ||Delta||_F")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sample", parents=[common], help="sample joint projective measurements"
    )
    p.add_argument("state_file")
    p.add_argument("--obs-a", required=True, metavar="NAME|FILE")
    p.add_argument("--obs-b", required=True, metavar="NAME|FILE")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-out", default=None, metavar="LABELS",
                   help="comma-separated factor labels to trace out first")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (StateFileError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
