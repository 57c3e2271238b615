"""The benchmark's three workloads: seeded inputs, one op, and its check.

Each workload is a closed loop with one caller.  Op ``i`` is entry
``i % len(cycle)`` of a fixed cycle, with inputs derived from the workload
seed and ``i``, so the same seed gives the same ops.  ``check`` raises
:class:`CheckFailed` when an op's output is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import purecorr
from purecorr import cli


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def op_seed(workload_seed: int, index: int) -> int:
    """Seed for op ``index``, independent of the order ops run in."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


class Campaign:
    """One seeded campaign call per op over a cycle of dims."""

    rusage = resource.RUSAGE_SELF
    warmup_cycles = 1

    def __init__(self, seed: int, function, cycle, trials: int):
        self.seed = seed
        self.function = function
        self.cycle = cycle
        self.trials = trials

    def label(self, i: int) -> str:
        da, db = self.cycle[i % len(self.cycle)]
        return f"{da}x{db}"

    def call(self, i: int):
        dims = self.cycle[i % len(self.cycle)]
        return self.function(dims, self.trials, op_seed(self.seed, i))

    def call_in_process(self, i: int):
        return self.call(i)

    def check(self, i: int, report) -> None:
        if not report.passed or report.counterexamples:
            raise CheckFailed(f"counterexamples: {report.counterexamples[:3]}")

    def setup_code(self) -> str:
        return (f"import purecorr; purecorr.{self.function.__name__}("
                f"{self.cycle[0]}, {self.trials}, {op_seed(self.seed, 0)})")


class WitnessCampaign(Campaign):
    """``verify_witness_criterion`` over a 2x2 / 3x3 / 4x4 cycle.

    Many tiny matrices: Python overhead and repeated validation dominate,
    and almost all the work is in ``correlation``, ``states`` and ``linalg``.
    Equal weights put the median inside the 3x3 group and the tail inside
    the 4x4 group.
    """

    name = "witness-campaign"
    traced_cycles = 60

    def __init__(self, seed: int, tiny: bool = False):
        cycle = [(2, 2)] if tiny else [(2, 2), (3, 3), (4, 4)]
        super().__init__(seed, purecorr.verify_witness_criterion, cycle, 2 if tiny else 5)

    def check(self, i: int, report) -> None:
        super().check(i, report)
        tol = report.tolerances
        if not report.stats["min_covariance_nonfactorable"] > tol["witness_tol"]:
            raise CheckFailed(f"weak witness on a non-factorable state: {report.stats}")
        if not report.stats["max_covariance_factorable"] <= tol["factorable_tol"]:
            raise CheckFailed(f"covariance on a factorable state: {report.stats}")


class PurifyCampaign(Campaign):
    """``entanglement_campaign`` over a 2x2, 3x3, 3x3, 3x4, 4x4 cycle.

    Every ``Purification`` constructor traces a dense ``n^3 x n^3`` density
    back to the state, which dominates at 4x4; ``correlation`` runs one
    ``is_factorable`` per state.  The doubled 3x3 entry puts the median
    inside the 3x3 group and the tail inside the 4x4 group.  5x5 is left
    out: one campaign takes about 17 s and 3.9 GB.
    """

    name = "purify-campaign"
    traced_cycles = 6

    def __init__(self, seed: int, tiny: bool = False):
        cycle = [(2, 2)] if tiny else [(2, 2), (3, 3), (3, 3), (3, 4), (4, 4)]
        super().__init__(seed, purecorr.entanglement_campaign, cycle, 1 if tiny else 2)


class CliRoundtrip:
    """Fresh ``python -m purecorr.cli`` processes on state files from the seed.

    Every call pays ``import purecorr``; ``stateio`` writes and reads files,
    and ``analyze F --trace-out C1,C2`` forms the full density of the
    purification that ``purify`` wrote.  The traced run calls ``cli.main``
    in-process instead, so that spans can be recorded.
    """

    name = "cli-roundtrip"
    rusage = resource.RUSAGE_CHILDREN
    warmup_cycles = 0
    traced_cycles = 10

    def __init__(self, seed: int, workdir: Path, env: dict, tiny: bool = False):
        n = 2 if tiny else 4
        source = workdir / f"rho{n}x{n}.txt"
        qubits = workdir / "rho2x2.txt"
        purified = workdir / "purified.txt"
        s = [int(x) % 2**31 for x in np.random.SeedSequence(seed).generate_state(6)]
        source.write_text(purecorr.emit_state_file(
            purecorr.random_density((n, n), n * n, s[4])))
        qubits.write_text(purecorr.emit_state_file(
            purecorr.random_density((2, 2), 4, s[5])))
        small = ["--dims", "2x2", "--trials"]
        self.cycle = [
            ["analyze", str(source)],
            ["purify", str(source), "--ancilla-dims", f"{n * n},{n * n}",
             "--unitary-seed", str(s[0]), "--out", str(purified)],
            ["analyze", str(purified), "--trace-out", "C1,C2"],
            ["sample", str(qubits), "--obs-a", "z", "--obs-b", "x",
             "--trials", "2000", "--seed", str(s[1])],
            ["verify", "--theorem", "1", *small, "2", "--seed", str(s[2])],
            ["verify", "--theorem", "2", *small, "5", "--seed", str(s[3])],
        ]
        self.cycle = [argv + ["--json"] for argv in self.cycle]
        self.labels = ["analyze", "purify", "analyze --trace-out", "sample",
                       "verify 1", "verify 2"]
        self.env = env
        self.first_stdout: dict[int, bytes] = {}
        self.first_file: bytes | None = None
        self.purified = purified
        self.source_sigma1: float | None = None

    def label(self, i: int) -> str:
        return self.labels[i % len(self.cycle)]

    def call(self, i: int):
        argv = self.cycle[i % len(self.cycle)]
        proc = subprocess.run(
            [sys.executable, "-m", "purecorr.cli", *argv],
            capture_output=True, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def call_in_process(self, i: int):
        argv = self.cycle[i % len(self.cycle)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, i: int, result) -> None:
        code, stdout, stderr = result
        k = i % len(self.cycle)
        if code != 0:
            raise CheckFailed(f"exit {code}: {stderr.decode(errors='replace')[-300:]}")
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            raise CheckFailed(f"--json output does not parse: {exc}") from exc
        if self.first_stdout.setdefault(k, stdout) != stdout:
            raise CheckFailed("stdout differs from the first run of the same argv")
        if k == 0:
            self.source_sigma1 = payload["witness"]["sigma1"]
        elif k == 1:
            written = self.purified.read_bytes()
            if self.first_file is None:
                self.first_file = written
            elif written != self.first_file:
                raise CheckFailed("purify wrote a different state file for the same argv")
        elif k == 2:
            if self.source_sigma1 is None:
                raise CheckFailed("no analyze of the source file to compare against")
            gap = abs(payload["witness"]["sigma1"] - self.source_sigma1)
            if gap > 1e-9:
                raise CheckFailed(f"traced-out sigma1 differs from the source by {gap:.3e}")

    def setup_code(self) -> str:
        return ("import purecorr, sys; from purecorr import cli; "
                f"sys.exit(cli.main({self.cycle[0]!r}))")


def make(name: str, seed: int, workdir: Path, env: dict, tiny: bool = False):
    """The named workload; ``workdir`` holds its files, ``env`` is for child processes."""
    if name == WitnessCampaign.name:
        return WitnessCampaign(seed, tiny)
    if name == PurifyCampaign.name:
        return PurifyCampaign(seed, tiny)
    if name == CliRoundtrip.name:
        return CliRoundtrip(seed, workdir, env, tiny)
    raise ValueError(f"unknown workload {name!r}")
