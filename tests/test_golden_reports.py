"""A quoted seed reproduces its report: pinned ``purecorr verify --json`` output.

Each file under ``tests/golden/`` is the complete stdout of one ``verify``
command.  The reports depend on every seeded state drawn, so any change to
the generators, to how a campaign batches them, or to the analysis shows up
here as a byte difference.
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
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_verify_report_is_byte_identical(name, capsys):
    assert main(["verify", *RUNS[name].split(), "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
