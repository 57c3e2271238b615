"""End-to-end tests for the command line interface."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from purecorr import cli, purification
from purecorr.cli import main
from purecorr.correlation import Observable, to_projective
from purecorr.linalg import DimPair, multi_partial_trace
from purecorr.states import (
    DensityMatrix,
    PureState,
    example_source_state,
    ghz,
    random_density,
)
from purecorr.stateio import emit_state_file, parse_state_file


@pytest.fixture
def eq2_file(tmp_path):
    path = tmp_path / "eq2.state"
    path.write_text(emit_state_file(example_source_state()))
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.state"
    path.write_text(emit_state_file(ghz()))
    return str(path)


def _fresh_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def _fresh_cli(argv: list[str]) -> list[str]:
    """Command line of a fresh ``purecorr`` process printing ``--json``."""
    return [sys.executable, "-m", "purecorr.cli", *argv, "--json"]


class TestAnalyze:
    def test_source_state(self, eq2_file, capsys):
        assert main(["analyze", eq2_file]) == 0
        out = capsys.readouterr().out
        assert "factorable: no" in out
        assert "witness sigma1:     0.5" in out

    def test_json_payload(self, eq2_file, capsys):
        assert main(["analyze", eq2_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [2, 2]
        assert payload["factorable"] is False
        assert payload["delta_frobenius_norm"] == pytest.approx(0.5, abs=1e-12)
        assert payload["witness"]["sigma1"] == pytest.approx(0.5, abs=1e-9)
        assert len(payload["witness"]["measurement_a"]) == 2

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_each_measurement_is_computed_once(self, flags, eq2_file, monkeypatch, capsys):
        calls = []

        def counting(obs):
            calls.append(obs)
            return to_projective(obs)

        monkeypatch.setattr(cli, "to_projective", counting)
        assert main(["analyze", eq2_file, *flags]) == 0
        assert "measurement" in capsys.readouterr().out
        assert len(calls) == 2

    def test_ghz_traced_matches_source_byte_identical(
        self, eq2_file, ghz_file, capsys
    ):
        assert main(["analyze", ghz_file, "--trace-out", "C", "--json"]) == 0
        out_ghz = capsys.readouterr().out
        assert main(["analyze", eq2_file, "--json"]) == 0
        out_eq2 = capsys.readouterr().out
        assert out_ghz == out_eq2

    def test_product_state(self, tmp_path, capsys):
        rho = DensityMatrix(np.kron(np.eye(2) / 2, np.diag([0.25, 0.75])))
        path = tmp_path / "prod.state"
        path.write_text(
            emit_state_file(rho).replace("dims: [4]", "dims: [2, 2]")
        )
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "factorable: yes" in out

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.state"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.state"
        path.write_text("version: 1\nkind: density\ndims: [2]\nmatrix: [[[2.0,")
        assert main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_trace_label(self, ghz_file, capsys):
        assert main(["analyze", ghz_file, "--trace-out", "Q"]) == 2
        assert "not in state factors" in capsys.readouterr().err

    def test_quiet(self, eq2_file, capsys):
        assert main(["analyze", eq2_file, "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestPurify:
    def test_maximally_mixed_qubit(self, tmp_path, capsys):
        path = tmp_path / "mixed.state"
        path.write_text(emit_state_file(DensityMatrix(np.eye(2) / 2)))
        assert main(["purify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schmidt_coefficients"] == pytest.approx(
            [np.sqrt(0.5), np.sqrt(0.5)], abs=1e-12
        )
        assert payload["entropy_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_pure_density_input_entropy_zero(self, tmp_path, capsys):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        path = tmp_path / "pure.state"
        path.write_text(emit_state_file(rho).replace("dims: [4]", "dims: [2, 2]"))
        assert main(["purify", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entropy_bits"] <= 1e-12
        assert payload["schmidt_rank"] == 1

    def test_roundtrip_through_output_file(self, eq2_file, tmp_path, capsys):
        out_path = tmp_path / "purified.state"
        assert main(["purify", eq2_file, "--out", str(out_path), "--quiet"]) == 0
        psi = parse_state_file(out_path.read_text())
        keep = [i for i, lab in enumerate(psi.labels) if not lab.startswith("C")]
        reduced = multi_partial_trace(psi.density(), psi.factor_dims, keep)
        defect = np.linalg.norm(reduced - example_source_state().matrix)
        assert defect <= 1e-10

    def test_ancilla_split_and_seed(self, eq2_file, tmp_path, capsys):
        out_path = tmp_path / "purified.state"
        assert (
            main([
                "purify", eq2_file,
                "--ancilla-dims", "4,4",
                "--unitary-seed", "3",
                "--out", str(out_path),
                "--json",
            ])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["layout"] == [["A", 2], ["B", 2], ["C1", 4], ["C2", 4]]
        assert payload["cut"] == "A+C1 | rest"
        psi = parse_state_file(out_path.read_text())
        keep = [0, 1]
        reduced = multi_partial_trace(psi.density(), psi.factor_dims, keep)
        assert np.linalg.norm(reduced - example_source_state().matrix) <= 1e-10

    def test_rejects_pure_input(self, ghz_file, capsys):
        assert main(["purify", ghz_file]) == 2
        assert "density" in capsys.readouterr().err

    def test_rejects_bad_ancilla_dims(self, eq2_file, capsys):
        assert main(["purify", eq2_file, "--ancilla-dims", "x,y"]) == 2
        assert main(["purify", eq2_file, "--ancilla-dims", "1,1"]) == 2

    def test_seeded_split_memory_is_linear_in_the_vector(self, tmp_path):
        # the seeded draw maps the rank-3 support into the 32 x 32 ancillas:
        # a 1024 x 3 isometry, not a 1024 x 1024 unitary
        source = Path(__file__).parent / "golden" / "purify_input_2x2_rank3_seed6.state"
        argv = ["purify", str(source), "--ancilla-dims", "32,32",
                "--unitary-seed", "5", "--out", str(tmp_path / "purified.state")]
        # a first run also imports modules lazily: trace a second one
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        vector_bytes = 4 * 32 * 32 * np.dtype(np.complex128).itemsize
        assert peak < 32 * vector_bytes

    def test_fresh_processes_write_and_read_identical_bytes(self, tmp_path):
        # The same argv in the same environment gives the same stdout and
        # the same state file in a fresh process, import included.
        source = Path(__file__).parent / "golden" / "purify_input_2x2_rank3_seed6.state"
        out = tmp_path / "purified.state"
        runs = []
        for _ in range(2):
            outputs = [
                subprocess.run(
                    _fresh_cli(argv), env=_fresh_env(),
                    capture_output=True, text=True, check=True,
                ).stdout
                for argv in (
                    ["purify", str(source), "--ancilla-dims", "4,4",
                     "--unitary-seed", "5", "--out", str(out)],
                    ["analyze", str(out), "--trace-out", "C1,C2"],
                )
            ]
            runs.append((outputs, out.read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0][1])["factorable"] is False


class TestVerify:
    def test_theorem_2_passes(self, capsys):
        rc = main([
            "verify", "--theorem", "2", "--dims", "2x2",
            "--trials", "25", "--seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "counterexamples: none" in out

    def test_theorem_1_passes(self, capsys):
        rc = main([
            "verify", "--theorem", "1", "--dims", "2x2",
            "--trials", "10", "--seed", "7",
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_theorem_1_larger_campaign(self, capsys):
        rc = main([
            "verify", "--theorem", "1", "--dims", "2x2",
            "--trials", "100", "--seed", "7", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["stats"]["random_min_entropy_bits"] > 1e-3

    def test_theorem_2_larger_campaign(self, capsys):
        rc = main([
            "verify", "--theorem", "2", "--dims", "2x2",
            "--trials", "500", "--seed", "7", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["counterexamples"] == []

    def test_theorem_1_product_entropies_print_as_zero(self, capsys):
        # 1x1 printed -0.0 and -6.4e-16 bits of rounding noise
        rc = main([
            "verify", "--theorem", "1", "--dims", "1x1",
            "--trials", "2", "--seed", "1", "--json",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        entropies = {k: v for k, v in json.loads(out)["stats"].items()
                     if k.endswith("entropy_bits")}
        assert entropies and set(entropies.values()) == {0.0}

    def test_json_report_reproducible(self, capsys):
        args = [
            "verify", "--theorem", "2", "--dims", "2x2",
            "--trials", "10", "--seed", "5", "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["generator"] == "numpy-PCG64"
        assert payload["seed"] == 5
        assert payload["tolerances"]["factorable_tol"] == 1e-9

    def test_counterexample_exit_code(self, capsys):
        # an absurd factorability tolerance misclassifies every Ginibre
        # state, so the biconditional must report violations
        rc = main([
            "verify", "--theorem", "2", "--dims", "2x2",
            "--trials", "5", "--seed", "1", "--tol", "10", "--quiet",
        ])
        assert rc == 1

    def test_fresh_processes_print_identical_reports(self):
        # each campaign runs twice as a fresh process, import included; the
        # four processes run side by side
        commands = [
            ["verify", "--theorem", "1", "--dims", "2x2", "--trials", "2", "--seed", "4"],
            ["verify", "--theorem", "2", "--dims", "2x2", "--trials", "5", "--seed", "3"],
        ] * 2
        procs = [
            subprocess.Popen(_fresh_cli(argv), env=_fresh_env(),
                             stdout=subprocess.PIPE, text=True)
            for argv in commands
        ]
        outputs = [proc.communicate()[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 4
        assert outputs[:2] == outputs[2:]
        assert [json.loads(out)["theorem"] for out in outputs[:2]] == [1, 2]

    @pytest.mark.parametrize("rank_tol, lines", [
        (2.0, [
            "  counterexamples (3):",
            "    random state: unentangled purification at trial identity: "
            "entropy 0.986544 bits",
            "    random state: unentangled purification at trial haar[0]: "
            "entropy 3.08247 bits",
            "    random state: unentangled purification at trial haar[1]: "
            "entropy 2.95155 bits",
            "  result: FAIL",
        ]),
        (-1.0, [
            "  counterexamples (1):",
            "    product state: factored purification is entangled: rank 4, "
            "entropy 0 bits",
            "  result: FAIL",
        ]),
    ])
    def test_theorem_1_counterexample_lines(self, rank_tol, lines, monkeypatch, capsys):
        # a rank tolerance no purification can meet (2) or that every one
        # meets (-1) makes Theorem 1 report counterexamples
        monkeypatch.setattr(purification, "RANK_TOL", rank_tol)
        rc = main([
            "verify", "--theorem", "1", "--dims", "2x3",
            "--trials", "2", "--seed", "5",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-len(lines):] == lines

    def test_bad_dims(self, capsys):
        rc = main([
            "verify", "--theorem", "2", "--dims", "nonsense",
            "--trials", "5", "--seed", "1",
        ])
        assert rc == 2

    @pytest.mark.parametrize("dims", ["0x2", "2x0", "-1x2"])
    def test_non_positive_dims_named(self, dims, capsys):
        rc = main([
            "verify", "--theorem", "2", f"--dims={dims}",
            "--trials", "5", "--seed", "1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--dims" in err and "positive" in err


class TestToleranceFlag:
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf", "abc"])
    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_rejected_with_flag_named(self, command, tol, eq2_file, capsys):
        if command == "analyze":
            argv = ["analyze", eq2_file]
        else:
            argv = ["verify", "--theorem", "2", "--dims", "2x2",
                    "--trials", "2", "--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", tol])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_zero_accepted(self, eq2_file, capsys):
        assert main(["analyze", eq2_file, "--tol", "0"]) == 0
        assert "tolerance 0)" in capsys.readouterr().out


def _seeded_argv(command, flag, value, state_file):
    if command == "verify":
        return ["verify", "--theorem", "1", "--dims", "2x2", "--trials", "2",
                flag, value]
    if command == "sample":
        return ["sample", state_file, "--obs-a", "z", "--obs-b", "z",
                "--trials", "10", flag, value]
    return ["purify", state_file, flag, value]


class TestSeedFlags:
    @pytest.mark.parametrize("value", ["-1", "abc", "1.5", ""])
    @pytest.mark.parametrize("command,flag", [
        ("verify", "--seed"), ("sample", "--seed"), ("purify", "--unitary-seed"),
    ])
    def test_rejected_with_flag_named(self, command, flag, value, eq2_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_seeded_argv(command, flag, value, eq2_file))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err
        assert "nonnegative integer" in captured.err

    @pytest.mark.parametrize("command,flag", [
        ("verify", "--seed"), ("sample", "--seed"), ("purify", "--unitary-seed"),
    ])
    def test_zero_and_large_accepted(self, command, flag, eq2_file, capsys):
        for value in ("0", str(2**70)):
            assert main(_seeded_argv(command, flag, value, eq2_file) + ["--quiet"]) == 0
        assert capsys.readouterr().err == ""


class TestSample:
    def test_source_state_zz(self, eq2_file, capsys):
        rc = main([
            "sample", eq2_file, "--obs-a", "z", "--obs-b", "z",
            "--trials", "10000", "--seed", "3", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        counts = np.array(payload["counts"])
        assert counts[0, 1] == counts[1, 0] == 0
        assert abs(payload["empirical_covariance"] - 1.0) <= 0.05
        assert payload["analytic_covariance"] == pytest.approx(1.0, abs=1e-12)
        assert payload["chi_square"]["p_value"] > 0.001

    def test_maximally_mixed_near_uniform(self, tmp_path, capsys):
        path = tmp_path / "mixed.state"
        path.write_text(
            emit_state_file(DensityMatrix(np.eye(4) / 4)).replace(
                "dims: [4]", "dims: [2, 2]"
            )
        )
        rc = main([
            "sample", str(path), "--obs-a", "z", "--obs-b", "z",
            "--trials", "40000", "--seed", "5", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["empirical_covariance"]) <= 0.02

    def test_observable_from_file(self, eq2_file, tmp_path, capsys):
        obs_path = tmp_path / "halfz.obs"
        obs_path.write_text(
            emit_state_file(Observable(np.diag([1.0, -1.0]) / np.sqrt(2)))
        )
        rc = main([
            "sample", eq2_file, "--obs-a", str(obs_path), "--obs-b", "z",
            "--trials", "1000", "--seed", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcomes_a"] == pytest.approx(
            [1 / np.sqrt(2), -1 / np.sqrt(2)]
        )

    def test_ghz_with_trace_out(self, ghz_file, capsys):
        rc = main([
            "sample", ghz_file, "--trace-out", "C",
            "--obs-a", "z", "--obs-b", "z",
            "--trials", "1000", "--seed", "2", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        counts = np.array(payload["counts"])
        assert counts[0, 1] == counts[1, 0] == 0

    def test_dimension_mismatch(self, tmp_path, capsys):
        rho = random_density(DimPair(2, 3), 6, 0)
        path = tmp_path / "asym.state"
        path.write_text(emit_state_file(rho))
        rc = main([
            "sample", str(path), "--obs-a", "z", "--obs-b", "z",
            "--trials", "10", "--seed", "1",
        ])
        assert rc == 2
        assert "dimension 2" in capsys.readouterr().err


@pytest.fixture
def input_files(tmp_path, eq2_file, ghz_file):
    """Paths of the files the input-error table names, by name."""
    five = np.zeros(32)
    five[0] = 1.0
    text = emit_state_file(PureState(five, tuple((f"Q{i}", 2) for i in range(5))))
    paths = {"eq2": eq2_file, "ghz": ghz_file, "five": tmp_path / "five.state",
             "obs3": tmp_path / "three.obs", "huge": tmp_path / "huge.state"}
    # without its labels line, the file takes the default labels S1 .. S5
    paths["five"].write_text(text.replace("labels: [Q0, Q1, Q2, Q3, Q4]\n", ""))
    paths["obs3"].write_text(emit_state_file(Observable(np.eye(3))))
    # a finite amplitude whose squared norm overflows the double range
    paths["huge"].write_text("version: 1\nkind: pure\ndims: [2]\nvector: [[1e308, 0.0], [0.0, 0.0]]\n")
    return {name: str(path) for name, path in paths.items()}


# Input errors with the exact line each prints before exit 2; "{name}" is
# the path of that file of ``input_files``.
INPUT_ERRORS = [
    ("observable-dimension",
     ["sample", "{eq2}", "--obs-a", "{obs3}", "--obs-b", "z", "--trials", "5", "--seed", "1"],
     "observable {obs3} has dimension 3, state factor has 2"),
    ("dims-not-integer",
     ["verify", "--theorem", "2", "--dims", "2xa", "--trials", "5", "--seed", "1"],
     "--dims expects integers: invalid literal for int() with base 10: 'a'"),
    ("trace-out-every-default-label",
     ["analyze", "{five}", "--trace-out", "S1,S2,S3,S4,S5"],
     "cannot trace out every factor"),
    ("three-factors-no-trace-out", ["analyze", "{ghz}"],
     "state has 3 factors ['A', 'B', 'C']; use --trace-out to reduce to two"),
    ("density-as-observable",
     ["sample", "{eq2}", "--obs-a", "{eq2}", "--obs-b", "z", "--trials", "5", "--seed", "1"],
     "expected an observable file, found kind 'density'"),
    ("amplitude-near-double-max", ["analyze", "{huge}"], "state vector norm must be 1, got inf"),
]


@pytest.mark.parametrize("argv, message",
                         [pytest.param(*row[1:], id=row[0]) for row in INPUT_ERRORS])
def test_input_error_exits_2_with_its_message(argv, message, input_files, capsys):
    assert main([arg.format(**input_files) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**input_files)}\n"


class TestMemoryError:
    def test_allocation_failure_is_an_input_error(self, eq2_file, monkeypatch, capsys):
        def exhausted(p, ancilla_dims):
            raise MemoryError("Unable to allocate 58.2 TiB")

        monkeypatch.setattr("purecorr.cli.embed_ancilla", exhausted)
        argv = ["purify", eq2_file, "--ancilla-dims", "1000000,1000000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: Unable to allocate 58.2 TiB"
        ]
        assert "Traceback" not in err


class TestParserBasics:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_help_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
