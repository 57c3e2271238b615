"""Module layering and validation-at-the-boundary checks."""

import ast
from pathlib import Path

import pytest

import purecorr
from purecorr import cli
from purecorr.correlation import synthesize_witness, verify_witness_criterion
from purecorr.linalg import DimPair
from purecorr.purification import entanglement_campaign
from purecorr.states import DensityMatrix, PureState, random_density
from purecorr.stateio import emit_state_file

PACKAGE_DIR = Path(purecorr.__file__).parent


def _imported_modules(node: ast.AST) -> list[str]:
    """Absolute names of the purecorr modules an import node brings in."""
    if isinstance(node, ast.ImportFrom):
        if node.level > 0:
            base = f"purecorr.{node.module}" if node.module else "purecorr"
        else:
            base = node.module or ""
        if base == "purecorr":
            names = [f"purecorr.{alias.name}" for alias in node.names]
        else:
            names = [base]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return []
    return [n for n in names if n == "purecorr" or n.startswith("purecorr.")]


def _parse(name: str) -> ast.Module:
    path = PACKAGE_DIR / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_no_function_local_package_imports(name):
    tree = _parse(name)
    local = [
        (fn.name, mod)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        for mod in _imported_modules(node)
    ]
    assert local == [], f"{name} imports purecorr modules inside functions"


def test_stateio_does_not_import_correlation():
    tree = _parse("stateio")
    imported = {mod for node in ast.walk(tree) for mod in _imported_modules(node)}
    assert "purecorr.correlation" not in imported


@pytest.fixture
def validations(monkeypatch):
    """Count DensityMatrix validations for the duration of a test."""
    calls = []
    original = DensityMatrix.__post_init__

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    return calls


def test_witness_campaign_validates_each_state_once(validations):
    trials = 3
    verify_witness_criterion(DimPair(2, 3), trials, 5)
    assert len(validations) == 2 * trials


def test_witness_of_validated_state_validates_nothing(validations):
    rho = random_density(DimPair(3, 2), 6, 1)
    del validations[:]
    synthesize_witness(rho)
    assert validations == []


def test_cli_analyze_validates_once(tmp_path, capsys, validations):
    path = tmp_path / "rho.state"
    path.write_text(emit_state_file(random_density(DimPair(2, 2), 4, 2)))
    del validations[:]
    assert cli.main(["analyze", str(path), "--json"]) == 0
    capsys.readouterr()
    assert len(validations) == 1


@pytest.fixture
def densities(monkeypatch):
    """Count dense pure-state densities formed for the duration of a test."""
    calls = []
    original = PureState.density

    def counting(self):
        calls.append(self.dim)
        return original(self)

    monkeypatch.setattr(PureState, "density", counting)
    return calls


def test_purification_campaign_forms_no_dense_density(densities):
    assert entanglement_campaign(DimPair(3, 3), 2, 4).passed
    assert densities == []


def test_cli_purify_and_trace_out_form_no_dense_density(tmp_path, capsys, densities):
    rho_path = tmp_path / "rho.state"
    rho_path.write_text(emit_state_file(random_density(DimPair(3, 3), 9, 3)))
    pure_path = tmp_path / "purified.state"
    argv = ["purify", str(rho_path), "--ancilla-dims", "9,9",
            "--unitary-seed", "5", "--out", str(pure_path)]
    assert cli.main(argv) == 0
    assert cli.main(["analyze", str(pure_path), "--trace-out", "C1,C2"]) == 0
    capsys.readouterr()
    assert densities == []
