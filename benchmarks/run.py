"""Benchmark for uqsd: Monte Carlo throughput, exact-query time, cold CLI start.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload {mc,exact,cli} --seed N --seconds S --trace {0,1}

The program under test is the checkout's own `src/uqsd`; the benchmark
refuses to run (exit 2, no result) when that tree is missing.  With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the workload runs with every public uqsd function wrapped and
the last line holds the per-layer metrics of a fixed layer probe.  Raw
samples and the span summary go to `benchmarks/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Fresh processes that each repeat the set-up; setup_s is their median.
SETUP_REPEATS = 9

# One thread everywhere, so that timings do not depend on how a BLAS pool
# shares the host's cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc", "exact", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_uqsd():
    """Import the checkout's uqsd (and nothing installed elsewhere)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import uqsd.cli

    if Path(uqsd.__file__).resolve().parent != src / "uqsd":
        raise RuntimeError(f"imported uqsd from {uqsd.__file__}, not from {src}")
    return uqsd.cli


def setup_probe(workload: str, seed: int):
    """Child side of set-up timing: import uqsd, then build the workload."""
    t0 = time.perf_counter()
    cli = import_uqsd()
    t1 = time.perf_counter()
    workdir = OUT / f"setup-{workload}-{seed}-{os.getpid()}"
    try:
        WORKLOADS[workload](cli, ROOT, workdir, seed)
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_rounds(workload, seconds: float):
    """Whole rounds until `seconds` have passed; returns (rounds, attempted, failed, errors)."""
    rounds, attempted, failed, errors = [], 0, 0, []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        timings = []
        for op in workload.ops:
            attempted += 1
            try:
                elapsed, out = workload.run(op)
            except Exception:  # an operation that fails is counted, not fatal
                failed += 1
                errors.append(f"failed: {label(op)}: {traceback.format_exc()}")
                continue
            try:
                workload.check(op, out)
            except Exception:  # includes CheckFailed and malformed reports
                errors.append(f"wrong output: {label(op)}: {traceback.format_exc()}")
            timings.append((op, elapsed))
        rounds.append(timings)
    return rounds, attempted, failed, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "uqsd" / "__init__.py").is_file():
        print(f"error: no uqsd source tree at {ROOT / 'src' / 'uqsd'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    setup = measure_setup(args.workload, args.seed)
    cli = import_uqsd()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](cli, ROOT, workdir, args.seed)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                rounds, attempted, failed, errors = run_rounds(workload, args.seconds)
            metrics, probe_spans = tracing.layer_probe(
                cli, workdir / "probe", [s["import_s"] for s in setup]
            )
        else:
            rounds, attempted, failed, errors = run_rounds(workload, args.seconds)
            metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [r for r in rounds if r]
    end_to_end = workload.metrics(done)
    op_times = workload.op_times(done)
    end_to_end["setup_s"] = (
        statistics.median(s["import_s"] + s["inputs_s"] for s in setup), "s"
    )
    samples = {"setup": setup, "rounds": [[(label(op), t) for op, t in r] for r in rounds],
               "op_times_s": op_times, "end_to_end": end_to_end, "errors": errors}
    if args.trace:
        samples["spans"] = tracer.summary()
        samples["probe_spans"] = probe_spans
        samples["per_layer"] = metrics
    (OUT / f"samples-{tag}.json").write_text(json.dumps(samples, indent=1), encoding="utf-8")
    for line in errors[:20]:
        print(line, file=sys.stderr)
    print("op times: " + ", ".join(f"{k} {1e3 * v:.2f} ms" for k, v in op_times.items()),
          file=sys.stderr)

    shown = metrics if args.trace else end_to_end
    print(json.dumps({
        "correct": not any(e.startswith("wrong output") for e in errors),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
