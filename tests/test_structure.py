"""Module layering and validation-at-the-boundary checks."""

import ast
import importlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import purecorr
from purecorr import cli, linalg, purification, states
from purecorr.correlation import synthesize_witness, verify_witness_criterion
from purecorr.linalg import DimPair
from purecorr.purification import entanglement_campaign, verify_purification_entanglement
from purecorr.states import PureState, random_density
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


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE_DIR.glob("*.py")))
def test_no_module_level_scipy_import(name):
    """No module imports scipy, at module level or inside a function."""
    imported = []
    for node in ast.walk(_parse(name)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    scipy = [n for n in imported if n == "scipy" or n.startswith("scipy.")]
    assert scipy == [], f"{name} imports {scipy}"


SCIPY_FREE_RUN = textwrap.dedent(
    """
    import contextlib, io, sys
    from pathlib import Path

    import purecorr, purecorr.cli
    from purecorr.linalg import DimPair
    from purecorr.states import random_density
    from purecorr.stateio import emit_state_file

    tmp = Path(sys.argv[1])
    rho = tmp / "rho.state"
    rho.write_text(emit_state_file(random_density(DimPair(2, 2), 4, 1)))
    runs = [
        ["analyze", str(rho), "--json"],
        ["purify", str(rho), "--ancilla-dims", "4,4", "--unitary-seed", "3",
         "--out", str(tmp / "pure.state")],
        ["analyze", str(tmp / "pure.state"), "--trace-out", "C1,C2"],
        ["verify", "--theorem", "1", "--dims", "2x2", "--trials", "2", "--seed", "1"],
        ["verify", "--theorem", "2", "--dims", "2x2", "--trials", "2", "--seed", "1"],
        ["sample", str(rho), "--obs-a", "z", "--obs-b", "z",
         "--trials", "200", "--seed", "1"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert purecorr.cli.main(argv) == 0, argv
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
)


def test_no_command_loads_scipy(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        cwd=PACKAGE_DIR.parent,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]"]


def test_stateio_does_not_import_correlation():
    tree = _parse("stateio")
    imported = {mod for node in ast.walk(tree) for mod in _imported_modules(node)}
    assert "purecorr.correlation" not in imported


def test_purification_imports_no_private_correlation_name():
    """Theorem 1 reaches the correlation kernel through its public API only."""
    private = [
        alias.name
        for node in ast.walk(_parse("purification"))
        if isinstance(node, ast.ImportFrom) and node.module == "correlation"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize(
    "name",
    ["SeedSequence", "_STACK_BYTES", "_ginibre_densities", "_product_densities",
     "_validate_densities"],
)
def test_campaign_skeleton_is_named_only_in_states(name):
    """Seeding, the stack budget and the validated draw have one owner."""
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    owners = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if name in names(_parse(p.stem)))
    assert owners == ["states"]


def test_purification_does_not_import_the_correlation_module():
    modules = []
    for node in ast.walk(_parse("purification")):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "purecorr"):
            modules += [f"purecorr.{alias.name}" for alias in node.names]
    assert "purecorr.correlation" not in modules


CAMPAIGNS = [verify_witness_criterion, entanglement_campaign]


@pytest.mark.parametrize("campaign", CAMPAIGNS)
@pytest.mark.parametrize("dims, trials, message", [
    ((0, 2), 1, "subsystem dimensions must be >= 1, got DimPair(da=0, db=2)"),
    ((2, 0), 1, "subsystem dimensions must be >= 1, got DimPair(da=2, db=0)"),
    ((-1, 2), 1, "subsystem dimensions must be >= 1, got DimPair(da=-1, db=2)"),
    ((2, 2), 0, "trials must be >= 1"),
], ids=["da-zero", "db-zero", "da-negative", "trials-zero"])
def test_campaigns_check_their_arguments_alike(campaign, dims, trials, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        campaign(dims, trials, 0)


def test_purification_campaign_takes_no_partial_trace(monkeypatch):
    """The product state's marginals come with its correlation operator."""
    calls = []
    original = linalg.multi_partial_trace

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "multi_partial_trace", counting)
    assert entanglement_campaign(DimPair(2, 3), 2, 5).passed
    assert calls == []


def test_purification_campaign_checks_each_base_once(monkeypatch):
    """The bases are amplitude matrices, checked as row 0 of their stacks."""
    checked = []
    original = purification.Purification.__post_init__

    def counting(self):
        checked.append(self.state.labels)
        original(self)

    monkeypatch.setattr(purification.Purification, "__post_init__", counting)
    assert entanglement_campaign(DimPair(2, 3), 2, 5).passed
    assert checked == []

    spectrum = purification._clipped_spectrum

    def swapped(matrix):
        # a norm-preserving corruption: the first two system rows trade places
        lam, columns = spectrum(matrix)
        return lam, columns[[1, 0, *range(2, len(columns))]]

    monkeypatch.setattr(purification, "_clipped_spectrum", swapped)
    message = "stack index 0: tracing out the ancillas misses the original state by"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        entanglement_campaign(DimPair(2, 3), 2, 5)


@pytest.fixture
def validations(monkeypatch):
    """Record each state that passes density validation during a test.

    Every density is validated by ``states._validate_densities``, a single
    matrix (``DensityMatrix``) as a batch of one and a campaign's states as
    one stack; ``states`` is the one module that binds the validator.
    """
    calls = []
    original = states._validate_densities

    def counting(m, stacked=False):
        calls.extend(m if stacked else [m])
        return original(m, stacked)

    monkeypatch.setattr(states, "_validate_densities", counting)
    return calls


def test_witness_campaign_validates_each_state_once(validations):
    trials = 3
    verify_witness_criterion(DimPair(2, 3), trials, 5)
    assert len(validations) == 2 * trials


def test_witness_campaign_makes_one_svd_call(monkeypatch):
    shapes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    trials = 4
    verify_witness_criterion(DimPair(2, 3), trials, 5)
    assert shapes == [(2 * trials, 4, 9)]


def test_witness_campaign_draws_each_state_once_and_makes_one_eigvalsh_call(monkeypatch):
    rngs, eigvalsh_shapes = [], []
    default_rng, eigvalsh = np.random.default_rng, np.linalg.eigvalsh

    def counting_rng(*args, **kwargs):
        rngs.append(args)
        return default_rng(*args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        eigvalsh_shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    trials = 4
    verify_witness_criterion(DimPair(2, 3), trials, 5)
    assert len(rngs) == 2 * trials
    assert eigvalsh_shapes == [(2 * trials, 6, 6)]


def test_purification_campaign_validates_its_two_states_as_one_stack(
    monkeypatch, validations
):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert entanglement_campaign(DimPair(2, 3), 2, 5).passed
    assert len(validations) == 2
    assert shapes == [(2, 6, 6)]


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


@pytest.fixture
def haar_draws(monkeypatch):
    """Record (generator, d, r) of every Haar draw for the duration of a test.

    Every isometry is drawn by the stacked generator ``states._isometries``,
    which records one ``("random_isometry", d, r)`` per seed of its stack;
    ``random_unitary`` also records its own call.  Both are wrapped in every
    module that binds them, so calls through an imported name are seen as
    well as calls inside ``states``.
    """
    calls = []
    unitary = states.random_unitary
    isometries = states._isometries

    def counting_unitary(d, seed):
        calls.append(("random_unitary", d, d))
        return unitary(d, seed)

    def counting_isometries(seeds, d, r):
        calls.extend([("random_isometry", d, r)] * len(seeds))
        return isometries(seeds, d, r)

    for module in (states, purification, cli):
        for name, wrapped in (("random_unitary", counting_unitary),
                              ("_isometries", counting_isometries)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    return calls


def test_purification_campaign_draws_isometries_on_the_support(haar_draws):
    trials = 2
    assert entanglement_campaign(DimPair(3, 3), trials, 4).passed
    # the full-rank Ginibre state fills 9 of its 81 ancilla basis states;
    # the product state's factored ancilla has 9 and is drawn whole
    assert [c for c in haar_draws if c[0] == "random_unitary"] == []
    assert haar_draws == (
        [("random_isometry", 81, 9)] * trials + [("random_isometry", 9, 9)] * trials
    )


def test_rank_deficient_state_draws_rank_wide_isometries(haar_draws):
    rho = random_density(DimPair(3, 3), 4, 6)
    rank = int(np.linalg.matrix_rank(rho.matrix))
    assert verify_purification_entanglement(rho, 3, 2).passed
    assert haar_draws == [("random_isometry", 81, rank)] * 3


@pytest.fixture
def linalg_calls(monkeypatch):
    """Record the input shape of every ``np.linalg.qr`` and ``np.linalg.svd`` call."""
    calls = {"qr": [], "svd": []}
    for name, shapes in calls.items():
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, _shapes=shapes, **kwargs):
            _shapes.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("dims", [DimPair(3, 3), DimPair(2, 3)])
def test_purification_campaign_makes_one_qr_and_one_cut_svd_per_state(
    dims, linalg_calls
):
    trials, n = 3, dims.total
    assert entanglement_campaign(dims, trials, 4).passed
    # the Ginibre state's isometries act on its rank-n support in n x n
    # ancillas; the product state's factored ancilla (C1, C2) = (da, db)
    assert linalg_calls["qr"] == [(trials, n * n, n), (trials, n, n)]
    assert linalg_calls["svd"] == [
        (trials + 1, dims.da * n, dims.db * n),
        (trials + 1, dims.da * dims.da, dims.db * dims.db),
    ]


@pytest.mark.parametrize("rows, ginibre, product", [
    (1, [1] * 6, [4, 2]),
    (2, [2, 2, 2], [6]),
    (4, [4, 2], [6]),
])
def test_purification_campaign_chunks_its_stack(
    monkeypatch, linalg_calls, rows, ginibre, product
):
    """Chunks of ``rows`` Ginibre purifications (n^3 amplitudes each) split the
    identity and five trials; the product state's (n^2 each) take 4x as many
    per chunk.  Every report is that of the unchunked stack."""
    dims, trials = DimPair(2, 2), 5
    unchunked = entanglement_campaign(dims, trials, 8).to_json()
    del linalg_calls["svd"][:]
    monkeypatch.setattr(states, "_STACK_BYTES", rows * 16 * dims.total**3)
    assert entanglement_campaign(dims, trials, 8).to_json() == unchunked
    assert [s[0] for s in linalg_calls["svd"]] == ginibre + product


TRACING = PACKAGE_DIR.parent.parent / "bench" / "tracing.py"


def _traced(list_name: str) -> list[tuple[str, str]]:
    """(owner, attribute) of each entry of a list in bench/tracing.py, read with ast.

    The owner is written as in the file: a module name (``correlation``) or
    a module and a class (``states.DensityMatrix``).
    """
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == [list_name]:
            return [(ast.unparse(e.elts[0]), ast.literal_eval(e.elts[1])) for e in node.value.elts]
    raise AssertionError(f"{list_name} not found in {TRACING}")


def test_traced_functions_exist():
    traced = _traced("FUNCTIONS")
    assert traced
    missing = [
        (owner, attr) for owner, attr in traced
        if not callable(getattr(importlib.import_module(f"purecorr.{owner}"), attr, None))
    ]
    assert missing == [], "bench/tracing.py traces functions purecorr no longer has"


def test_traced_methods_exist():
    traced = _traced("METHODS")
    assert traced
    missing = []
    for owner, attr in traced:
        module, cls = owner.split(".")
        klass = getattr(importlib.import_module(f"purecorr.{module}"), cls, None)
        if klass is None or attr not in vars(klass):
            missing.append((owner, attr))
    assert missing == [], "bench/tracing.py traces methods purecorr no longer has"
