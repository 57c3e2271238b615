"""End-to-end tests for the command line interface."""

import json

import numpy as np
import pytest

from purecorr.cli import main
from purecorr.correlation import Observable
from purecorr.linalg import DimPair, multi_partial_trace
from purecorr.states import DensityMatrix, example_source_state, ghz, random_density
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
