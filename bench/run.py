"""purecorr benchmark: one workload per run, outputs checked, metrics printed.

Run from the root of a checkout:

    python3 bench/run.py --workload witness-campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
is the separate traced run: it records spans around purecorr's public
functions for a fixed number of op cycles and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark exits
with a nonzero code, printing no result, when the checkout has no
``src/purecorr``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
OUT_DIR = ".bench_out"


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest-percentile latency with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples, the maximum at 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


def git_commit(root: Path) -> str:
    """Commit of the checkout read from .git, or 'unknown' outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, cap: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_thread_cap": int(cap),
        "commit": git_commit(root),
        "workload_seed": seed,
    }


def run_ops(workload, call, indices, tracer=None):
    """Run and check each op in turn; return latencies and failure messages."""
    latencies, failures = [], []
    if tracer is not None:
        call = tracer.span("op", call)
    for i in indices:
        timed = len(latencies)
        start = time.perf_counter()
        try:
            result = call(i)
            latencies.append(time.perf_counter() - start)
            workload.check(i, result)
        except Exception as exc:  # a failed op is counted, the loop goes on
            if len(latencies) == timed:
                latencies.append(time.perf_counter() - start)
            failures.append(f"op {i} ({workload.label(i)}): {exc!r}")
            if len(failures) == 1:
                traceback.print_exc(file=sys.stderr)
    return latencies, failures


def timed_ops(workload, start_index: int, seconds: float):
    """Run ops from ``start_index`` until ``seconds`` of wall time have passed."""
    latencies, failures = [], []
    i = start_index
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        lat, fail = run_ops(workload, workload.call, [i])
        latencies += lat
        failures += fail
        i += 1
    return latencies, failures, time.perf_counter() - began


def setup_times(workload, env: dict, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that import purecorr and run the first op."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", workload.setup_code()],
                              capture_output=True, env=env, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode()[-500:]}")
    return times


def import_times(env: dict, repeats: int) -> tuple[list[float], float]:
    """Fresh-process ``import purecorr`` wall times, and scipy.stats' share from -X importtime."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import purecorr"],
                       check=True, env=env, timeout=120)
        times.append(time.perf_counter() - start)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import purecorr"],
                          capture_output=True, text=True, check=True, env=env, timeout=120)
    scipy_stats_us = 0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*scipy\.stats$", line)
        if match:
            scipy_stats_us = int(match.group(1))
    return times, scipy_stats_us / 1e6


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seconds: float, env: dict, setup_repeats: int):
    """Untraced run: set-up times, a warm-up cycle, then the timed loop."""
    setups = setup_times(workload, env, setup_repeats)
    warm = range(workload.warmup_cycles * len(workload.cycle))
    _, warm_failures = run_ops(workload, workload.call, warm)
    latencies, failures, elapsed = timed_ops(workload, len(warm), seconds)
    tail_s, tail_pct = tail(latencies)
    completed = len(latencies) - len(failures)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": completed / elapsed, "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(workload.rusage), "unit": "MB"},
    }
    by_label: dict[str, list[float]] = {}
    for k, lat in enumerate(latencies):
        by_label.setdefault(workload.label(len(warm) + k), []).append(lat)
    lines = [
        f"setup_s: median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{t:.4f}" for t in setups),
        f"ops_per_s: {completed} completed ops / {elapsed:.3f} s",
        f"op_tail_s: p{tail_pct:.1f} of {len(latencies)} ops "
        f"({min(TAIL_BEYOND, len(latencies) - 1)} beyond it)",
        *(f"  {label}: {len(v)} ops, median {statistics.median(v):.5f} s"
          for label, v in by_label.items()),
    ]
    return metrics, len(warm) + len(latencies), warm_failures + failures, lines


def traced(workload, env: dict, spans_path: Path, repeats: int):
    """Traced run: a fixed number of cycles with spans, then the same ops untraced."""
    from tracing import Tracer, layer_metrics, layer_shares

    n = len(workload.cycle)
    warm = range(workload.warmup_cycles * n)
    ops = range(len(warm), len(warm) + workload.traced_cycles * n)
    _, failures = run_ops(workload, workload.call_in_process, warm)
    with Tracer() as tracer:
        start = time.perf_counter()
        lat_traced, fail = run_ops(workload, workload.call_in_process, ops, tracer)
        traced_s = time.perf_counter() - start
    failures += fail
    start = time.perf_counter()
    lat_plain, fail = run_ops(workload, workload.call_in_process, ops)
    plain_s = time.perf_counter() - start
    failures += fail
    tracer.write(spans_path)
    print(f"spans written to {spans_path}")

    imports, scipy_stats_s = import_times(env, repeats)
    metrics, lines = layer_metrics(tracer.spans)
    metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    metrics["cli.import_scipy_stats_s"] = {"value": scipy_stats_s, "unit": "s"}
    rate_traced, rate_plain = len(ops) / traced_s, len(ops) / plain_s
    lines += [
        f"traced ops: {len(ops)} ({workload.traced_cycles} cycles), {len(tracer.spans)} spans",
        f"tracing overhead: {rate_plain - rate_traced:.4f} ops/s "
        f"(untraced {rate_plain:.4f} ops/s, traced {rate_traced:.4f} ops/s, same ops)",
        f"cli.import_s: median of {len(imports)} fresh processes: "
        + ", ".join(f"{t:.4f}" for t in imports),
        f"a fresh process spends {statistics.median(imports):.4f} s importing purecorr; "
        f"an in-process op takes {plain_s / len(ops):.4f} s on average",
        *layer_shares(tracer.spans),
    ]
    attempted = len(warm) + len(lat_traced) + len(lat_plain)
    return metrics, attempted, failures, lines


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        tiny: bool = False) -> dict:
    """Run one workload and return the result object printed as the last line."""
    import workloads

    cap = os.environ[BLAS_THREAD_VARS[0]]
    env_block = environment(root, seed, cap)
    for key, value in env_block.items():
        print(f"env {key}: {value}")
    child_env = dict(os.environ, PYTHONPATH=str(root / "src"))
    workdir = root / OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(name, seed, workdir, child_env, tiny)
        repeats = 1 if tiny else SETUP_REPEATS
        if trace:
            spans_path = Path(OUT_DIR) / f"spans-{name}-seed{seed}.jsonl"
            metrics, attempted, failures, lines = traced(
                workload, child_env, spans_path, repeats)
        else:
            metrics, attempted, failures, lines = end_to_end(
                workload, seconds, child_env, repeats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines.append(f"error_rate: {len(failures) / attempted:.6g} "
                 f"({len(failures)} failed / {attempted} attempted)")
    for message in failures[:5]:
        print(f"failure: {message}", file=sys.stderr)
    print(f"workload {name}, seed {seed}, trace {int(trace)}")
    for line in lines:
        print(line)
    for key, metric in metrics.items():
        print(f"metric {key} = {metric['value']!r} {metric['unit']}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def prepare(root: Path) -> None:
    """Cap BLAS threads and put the checkout's ``src`` first on the import path.

    Must run before numpy is imported, so that the cap takes effect.
    """
    if not (root / "src" / "purecorr" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/purecorr under {root}; run from a purecorr checkout")
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cap
    sys.path.insert(0, str(root / "src"))
    import purecorr

    if Path(purecorr.__file__).resolve().parent != (root / "src" / "purecorr").resolve():
        raise SystemExit(f"error: imported purecorr from {purecorr.__file__}, not {root}/src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("witness-campaign", "purify-campaign", "cli-roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    root = Path.cwd()
    prepare(root)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
