"""A quoted seed reproduces its report: pinned ``purecorr ... --json`` output.

Each ``.json`` file under ``tests/golden/`` is the complete stdout of one
command.  The reports depend on every seeded state and unitary drawn, so
any change to the generators, to how a campaign batches them, or to the
analysis shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from purecorr.cli import main

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
# seeded unitary on its C1 (x) C2 ancillas is the CLI's batch of one.
PURIFY_RUNS = {
    "purify_2x2_rank3_ancilla4x4_useed5.json": (
        "purify_input_2x2_rank3_seed6.state",
        "--ancilla-dims 4,4 --unitary-seed 5",
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
