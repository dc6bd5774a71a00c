"""The three workloads: their inputs, operations, checks and metrics.

A workload is built once (its set-up: generate, write and parse the inputs)
and then asked for rounds.  A round is a fixed list of operations run in
round-robin order, so a slow spell of the host falls on every metric of the
workload alike.  An operation returns its own elapsed time, measured around
the call into uqsd only, and a payload that `check` then verifies outside the
timed region.  Checks compare against `reference` or against a property the
method must have, never against stored output.

Every workload reports the same end-to-end metrics, built from one time per
operation: `batch_s`, the time one pass through the workload's operations
takes (the sum of their times), and `op_geomean_ms`, the geometric mean of
their times, which weighs a short operation as much as a long one.  The
in-process operations are timed by the fastest sample of each in the run.
The host's speed swings by up to 2x in spells that last from milliseconds to
minutes, so a median reads the share of slow spells in the run, while the
fastest of many short calls reads the code's own cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference

# Width of the z-band around the analytic values for Monte Carlo estimates.
Z_BAND = 6.0
EXACT_TOL = 1e-12


class CheckFailed(Exception):
    """An output disagreed with the reference or broke a required property."""


class OpFailed(Exception):
    """An operation did not complete (non-zero exit status)."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, what: str, tol: float = EXACT_TOL):
    expect(abs(a - b) <= tol, f"{what}: {a!r} vs reference {b!r}")


def strict_json(text: str):
    def reject(token):
        raise CheckFailed(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run_in_process(cli, argv: list[str]) -> tuple[float, str]:
    """Run `uqsd.cli.main(argv)` with stdout captured; time only the call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise OpFailed(f"uqsd {' '.join(argv)} exited {code}")
    return elapsed, buf.getvalue()


def label(op) -> str:
    return op if isinstance(op, str) else op[0]


def times_by_label(rounds) -> dict[str, list[float]]:
    times: dict[str, list[float]] = {}
    for rnd in rounds:
        for op, elapsed in rnd:
            times.setdefault(label(op), []).append(elapsed)
    return times


def fastest(rounds) -> dict[str, float]:
    """The shortest time each operation took in the run, by label."""
    return {key: min(v) for key, v in times_by_label(rounds).items()}


def check_order_report(report, overlaps, r, s):
    p_ref = reference.global_optimum(math.prod(overlaps), r, s)
    ascending = sorted(range(len(overlaps)), key=lambda i: (overlaps[i], i))
    expect(report["ascending_order"] == ascending, "ascending_order is not ascending")
    close(
        report["ascending_cost"],
        reference.expected_count([overlaps[i] for i in ascending], r, s),
        "ascending_cost",
    )
    exhaustive = report["exhaustive"]
    close(exhaustive["best_cost"], report["ascending_cost"], "best_cost vs ascending_cost")
    table = exhaustive["table"]
    expect(len(table) == math.factorial(len(overlaps)), f"table has {len(table)} rows")
    for row in table:
        order = row["order"]
        close(row["p_success"], p_ref, f"p_success of order {order}")
        close(
            row["expected_measurements"],
            reference.expected_count([overlaps[i] for i in order], r, s),
            f"expected_measurements of order {order}",
        )


def check_sweep_row(c: float, r: float, p_global: float, p_locc: float, e_count: float):
    p_ref = reference.global_optimum(c, r, 1.0 - r)
    close(p_global, p_ref, f"p_global at c={c!r} r={r!r}")
    close(p_locc, p_global, f"p_locc - p_global at c={c!r} r={r!r}")
    root = math.sqrt(c)
    close(e_count, reference.expected_count([root, root], r, 1.0 - r), f"e_count at c={c!r}")


def check_sweep_rows(rows, grid):
    cells = [(c, r) for r in grid["r"] for c in grid["c"]]
    expect(len(rows) == len(cells), f"sweep has {len(rows)} rows, grid {len(cells)}")
    for row, (c, r) in zip(rows, cells):
        expect(row["c"] == c and row["r"] == r, f"sweep row {row} out of grid order")
        check_sweep_row(c, r, row["p_global"], row["p_locc"], row["e_count"])


def check_protocol_report(report, order, overlaps, r, s):
    expect(report["order"] == list(order), f"protocol ran order {report['order']}")
    expect(report["local_global_gap"] <= EXACT_TOL, f"gap {report['local_global_gap']!r}")
    close(report["p_success"], reference.global_optimum(math.prod(overlaps), r, s), "p_success")
    close(
        report["expected_measurements"],
        reference.expected_count([overlaps[i] for i in order], r, s),
        "expected_measurements",
    )


class Workload:
    """Base: subclasses set `name` and build `self.ops`."""

    name = ""

    def __init__(self, cli, root: Path, workdir: Path, seed: int):
        self.cli = cli
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.first_output: dict[str, str] = {}

    def same_as_first(self, key: str, out: str):
        first = self.first_output.setdefault(key, out)
        expect(out == first, f"{key}: output differs from the first identical call")

    def op_times(self, rounds) -> dict[str, float]:
        """One time per operation, in seconds: its fastest sample in the run."""
        return fastest(rounds)

    def metrics(self, rounds):
        times = self.op_times(rounds)
        return {
            "batch_s": (math.fsum(times.values()), "s"),
            "op_geomean_ms": (1e3 * statistics.geometric_mean(times.values()), "ms"),
        }


class MonteCarlo(Workload):
    """`simulate` with both engines on the shipped tripartite and a deep 8-party case."""

    name = "mc"

    def __init__(self, cli, root, workdir, seed):
        super().__init__(cli, root, workdir, seed)
        deep = inputs.write_scenarios(workdir, seed, ["deep"])["deep"]
        tripartite = root / "scenarios" / "tripartite.json"
        self.cases = []
        for name, path in (("tripartite", tripartite), ("deep", deep)):
            doc = json.loads(path.read_text(encoding="utf-8"))
            cli.parse_scenario(str(path))
            self.cases.append((name, str(path), inputs.overlaps_of(doc), *inputs.priors_of(doc)))
        self.ops = [
            (f"{case[0]}.{engine}", engine, case)
            for case in self.cases
            for engine in ("povm", "neumark")
        ]

    def run(self, op):
        _, engine, (_, path, *_rest) = op
        argv = ["simulate", "--scenario", path, "--engine", engine,
                "--trials", str(inputs.MC_TRIALS), "--seed", str(self.seed), "--quiet"]
        return run_in_process(self.cli, argv)

    def check(self, op, out):
        name, engine, (_, _path, overlaps, r, s) = op
        self.same_as_first(name, out)
        report = strict_json(out)
        n = len(overlaps)
        trials = inputs.MC_TRIALS
        expect(report["engine"] == engine and report["trials"] == trials, f"{name}: header")
        expect(report["order"] == list(range(n)), f"{name}: order {report['order']}")
        expect(report["misidentifications"] == 0, f"{name}: misidentifications")
        p = reference.global_optimum(math.prod(overlaps), r, s)
        mean = reference.expected_count(overlaps, r, s)
        band_p = Z_BAND * math.sqrt(p * (1.0 - p) / trials)
        band_n = Z_BAND * math.sqrt(reference.count_variance(overlaps, r, s) / trials)
        close(report["success_rate"], p, f"{name}: success_rate", band_p)
        close(report["mean_measurements"], mean, f"{name}: mean_measurements", band_n)
        close(report["analytic"]["p_success"], p, f"{name}: analytic p_success")
        close(report["analytic"]["expected_measurements"], mean, f"{name}: analytic count")


class Exact(Workload):
    """Order search, the property suite, a fine sweep and a 50-party protocol."""

    name = "exact"

    def __init__(self, cli, root, workdir, seed):
        super().__init__(cli, root, workdir, seed)
        paths = inputs.write_scenarios(workdir, seed, ["order", "sweep", "explicit"])
        self.paths = {k: str(v) for k, v in paths.items()}
        self.docs = {k: json.loads(v.read_text(encoding="utf-8")) for k, v in paths.items()}
        for path in self.paths.values():
            cli.parse_scenario(path)
        self.echo_checked = False
        self.ops = ["order", "verify", "sweep", "protocol"]

    def argv(self, op):
        if op == "verify":
            return ["verify", "--seed", str(self.seed), "--trials", str(inputs.VERIFY_COUNT)]
        path = self.paths["explicit" if op == "protocol" else op]
        return [op, "--scenario", path]

    def run(self, op):
        return run_in_process(self.cli, self.argv(op))

    def check(self, op, out):
        report = strict_json(out)
        if op == "verify":
            expect(report["all_pass"] is True, f"verify: {report['properties']}")
            return
        doc = self.docs["explicit" if op == "protocol" else op]
        overlaps = inputs.overlaps_of(doc)
        r, s = inputs.priors_of(doc)
        if op == "order":
            check_order_report(report, overlaps, r, s)
        elif op == "sweep":
            check_sweep_rows(report["rows"], doc["sweep"])
        else:
            self.same_as_first(op, out)
            check_protocol_report(report, range(len(overlaps)), overlaps, r, s)
            if not self.echo_checked:
                echo = self.workdir / "protocol_echo.json"
                echo.write_text(json.dumps(report["scenario"]), encoding="utf-8")
                _, again = run_in_process(self.cli, ["protocol", "--scenario", str(echo)])
                expect(again == out, "protocol: re-fed scenario block changed the report")
                self.echo_checked = True


class ColdCli(Workload):
    """Fresh `python -m uqsd.cli` processes on the shipped scenarios."""

    name = "cli"

    def __init__(self, cli, root, workdir, seed):
        super().__init__(cli, root, workdir, seed)
        scen = root / "scenarios"
        self.docs = {}
        for name in inputs.SHIPPED:
            self.docs[name] = json.loads((scen / name).read_text(encoding="utf-8"))
            cli.parse_scenario(str(scen / name))
        self.order = random.Random(f"cli:{seed}").sample(range(3), 3)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.ops = [
            ("optimum", ["optimum", "--scenario", str(scen / "bipartite.json")]),
            ("protocol", ["protocol", "--scenario", str(scen / "tripartite.json"),
                          "--order", ",".join(map(str, self.order))]),
            ("order", ["order", "--scenario", str(scen / "tripartite.json")]),
            ("sweep", ["sweep", "--scenario", str(scen / "sweep.json"), "--csv"]),
        ]

    def run(self, op):
        _, argv = op
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "uqsd.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise OpFailed(f"uqsd {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
        return elapsed, proc.stdout

    def check(self, op, out):
        name, _ = op
        self.same_as_first(name, out)
        if name == "sweep":
            self.check_csv(out)
            return
        report = strict_json(out)
        doc = self.docs["bipartite.json" if name == "optimum" else "tripartite.json"]
        overlaps = inputs.overlaps_of(doc)
        r, s = inputs.priors_of(doc)
        if name == "optimum":
            close(report["global_overlap"], math.prod(overlaps), "optimum: global_overlap")
            p_ref = reference.global_optimum(math.prod(overlaps), r, s)
            close(report["p_success"], p_ref, "optimum: p_success")
        elif name == "protocol":
            check_protocol_report(report, self.order, overlaps, r, s)
        else:
            check_order_report(report, overlaps, r, s)

    def check_csv(self, out):
        lines = out.splitlines()
        expect(lines[0] == "c,r,regime,p_global,p_locc,e_count", f"csv header {lines[0]!r}")
        grid = self.docs["sweep.json"]["sweep"]
        cells = [(c, r) for r in grid["r"] for c in grid["c"]]
        expect(len(lines) - 1 == len(cells), f"csv has {len(lines) - 1} rows")
        for line, (c, r) in zip(lines[1:], cells):
            fields = line.split(",")
            expect(len(fields) == 6, f"csv row {line!r}")
            nums = [float(x) for i, x in enumerate(fields) if i != 2]
            expect(all(math.isfinite(x) for x in nums), f"csv row {line!r} not finite")
            expect(fields[2] in ("equal_posterior", "saturated"), f"csv regime {fields[2]!r}")
            expect(nums[0] == c and nums[1] == r, f"csv row {line!r} out of grid order")
            check_sweep_row(*nums)

    def op_times(self, rounds):
        # A process start is too long to fit in one of the host's fast
        # spells, so here the median reads steadier than the best sample.
        return {key: statistics.median(v) for key, v in times_by_label(rounds).items()}


WORKLOADS = {w.name: w for w in (MonteCarlo, Exact, ColdCli)}
