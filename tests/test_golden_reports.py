"""A quoted seed reproduces its report: pinned ``purecorr ... --json`` output.

Each ``.json`` file under ``tests/golden/`` is the complete stdout of one
command.  The reports depend on every seeded state and unitary drawn, so
any change to the generators, to how a campaign batches them, or to the
analysis shows up here as a byte difference.
"""

import json
from pathlib import Path

import pytest

from purecorr.cli import main
from purecorr.purification import _ancilla_trials, purify
from purecorr.states import _isometries
from purecorr.stateio import content_to_bipartite, parse_content, parse_state_file

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "verify_t2_2x2_trials5_seed3.json": "--theorem 2 --dims 2x2 --trials 5 --seed 3",
    "verify_t2_3x3_trials5_seed7.json": "--theorem 2 --dims 3x3 --trials 5 --seed 7",
    "verify_t2_4x4_trials5_seed11.json": "--theorem 2 --dims 4x4 --trials 5 --seed 11",
    "verify_t2_2x3_trials4_seed5.json": "--theorem 2 --dims 2x3 --trials 4 --seed 5",
    "verify_t1_3x3_trials2_seed4.json": "--theorem 1 --dims 3x3 --trials 2 --seed 4",
    "verify_t1_2x3_trials3_seed5.json": "--theorem 1 --dims 2x3 --trials 3 --seed 5",
    "verify_t1_4x4_trials2_seed11.json": "--theorem 1 --dims 4x4 --trials 2 --seed 11",
}

# Input state file (also under tests/golden/) and flags of each pinned
# ``purify`` run.  The rank-3 2x2 state is random_density((2, 2), 3, 6); a
# seeded isometry from its rank-3 support into the C1 (x) C2 ancillas is the
# CLI's batch of one.  With no split, or c1 * c2 equal to the rank, the
# seeded draw is square.
PURIFY_RUNS = {
    "purify_2x2_rank3_ancilla4x4_useed5.json": (
        "purify_input_2x2_rank3_seed6.state",
        "--ancilla-dims 4,4 --unitary-seed 5",
    ),
    "purify_2x2_rank3_useed5.json": (
        "purify_input_2x2_rank3_seed6.state",
        "--unitary-seed 5",
    ),
    "purify_2x2_rank3_ancilla3x1_useed5.json": (
        "purify_input_2x2_rank3_seed6.state",
        "--ancilla-dims 3,1 --unitary-seed 5",
    ),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_verify_report_is_byte_identical(name, capsys):
    assert main(["verify", *RUNS[name].split(), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(PURIFY_RUNS))
def test_purify_report_is_byte_identical(name, capsys):
    source, flags = PURIFY_RUNS[name]
    assert main(["purify", str(GOLDEN / source), *flags.split(), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_seeded_purify_is_the_campaign_kernels_batch_of_one():
    # the rank-3 purification's 4 x 3 amplitude matrix, rotated into 4 x 4
    # ancillas by the 16 x 3 Haar isometry that the Theorem-1 campaign
    # draws for seed 5
    source, _ = PURIFY_RUNS["purify_2x2_rank3_ancilla4x4_useed5.json"]
    rho = content_to_bipartite(parse_content((GOLDEN / source).read_text()))
    base = purify(rho).state.split([0])
    expected = _ancilla_trials(base, rho.matrix, _isometries([5], 16, 3))[0].reshape(-1)
    payload = json.loads((GOLDEN / "purify_2x2_rank3_ancilla4x4_useed5.json").read_text())
    psi = parse_state_file(payload["state_file"])
    assert psi.amplitudes.tobytes() == expected.tobytes()
