"""Command-line surface: scenario files in, machine-readable reports out.

Commands print one JSON document (or CSV for `sweep --csv`) to stdout.  Exit
codes: 0 on success, 1 on any input problem, 2 when the `verify` property
suite finds a violation, 3 on an internal fault (traceback on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import traceback
from typing import Any

import numpy as np

from . import __version__
from .locc import (
    EXHAUSTIVE_MAX_PARTIES,
    best_order,
    checked_order,
    global_optimum,
    global_overlap,
    group,
    measurement_count_distribution,
    OrderMode,
    run_protocol,
)
from .montecarlo import Engine, simulate
from .pair_disc import brute_force_strategy, optimal_strategy
from .states import (
    LocalPair,
    Priors,
    ProductInstance,
    PureState,
    _norm,
    _unit,
    random_instance,
    state_pair_with_overlap,
)

_ENGINES = {"povm": Engine.POVM_SAMPLING, "neumark": Engine.NEUMARK_EVOLUTION}

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0
# Largest `abstract.dim`.  Nothing computed grows faster than dim, but every
# report embeds the scenario's amplitudes in explicit form, about 200 KB of
# JSON per party at this size.
MAX_ABSTRACT_DIM = 1024


class ScenarioError(ValueError):
    """A scenario file (or flag standing in for one of its fields) could not be used."""


@dataclasses.dataclass(frozen=True)
class Scenario:
    instance: ProductInstance
    order: tuple[int, ...] | None
    trials: int
    seed: int
    engine: Engine
    sweep: dict | None


def _fail(field: str, problem: str):
    raise ScenarioError(f"scenario field '{field}': {problem}")


def _number(value, field: str, lo: float, hi: float) -> float:
    # NaN fails the range test, so finite bounds also reject non-finite input.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not lo <= value <= hi:
        _fail(field, f"expected a number in [{lo:g}, {hi:g}], got {value!r}")
    return float(value)


def _integer(value, field: str, minimum: int, maximum: int | None = None) -> int:
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
        or (maximum is not None and value > maximum)
    ):
        expected = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        _fail(field, f"expected an integer {expected}, got {value!r}")
    return value


def _amplitudes_from_json(entries, field: str) -> PureState:
    if not isinstance(entries, list) or len(entries) < 2:
        _fail(field, "expected a list of at least two [re, im] pairs")
    vec = np.empty(len(entries), dtype=np.complex128)
    for j, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair)
        ):
            _fail(f"{field}[{j}]", f"expected [re, im], got {pair!r}")
        vec[j] = complex(pair[0], pair[1])
    norm = _norm(vec)
    if abs(norm - 1.0) > 1e-6:
        _fail(field, f"amplitudes have norm {norm!r}; expected a unit vector")
    try:
        return PureState(vec.size, _unit(vec, norm))
    except ValueError as exc:  # e.g. NaN amplitudes, whose norm passes the test above
        _fail(field, str(exc))


def _parse_priors(doc: dict) -> Priors:
    block = doc.get("priors")
    if not isinstance(block, dict):
        _fail("priors", "required object with key 'r' (and optionally 's')")
    r = _number(block.get("r"), "priors.r", 0.0, 1.0)
    s = _number(block.get("s", 1.0 - r), "priors.s", 0.0, 1.0)
    try:
        return Priors(r, s)
    except ValueError as exc:
        _fail("priors", str(exc))


def _parse_parties(doc: dict) -> tuple[LocalPair, ...]:
    has_abstract = "abstract" in doc
    has_explicit = "explicit" in doc
    if has_abstract == has_explicit:
        _fail("abstract/explicit", "exactly one of the two blocks must be present")
    if has_abstract:
        block = doc["abstract"]
        if not isinstance(block, dict):
            _fail("abstract", "expected an object")
        overlaps = block.get("overlaps")
        if not isinstance(overlaps, list) or not overlaps:
            _fail("abstract.overlaps", "required non-empty list of numbers")
        dim = _integer(block.get("dim", 2), "abstract.dim", 2, MAX_ABSTRACT_DIM)
        seed = _integer(block.get("seed", 0), "abstract.seed", 0)
        # Canonicalize to concrete state vectors so every command runs
        # through the same physical layer as an explicit scenario.
        return tuple(
            state_pair_with_overlap(
                _number(c, f"abstract.overlaps[{i}]", 0.0, 1.0), dim, (seed, i)
            )
            for i, c in enumerate(overlaps)
        )
    block = doc["explicit"]
    if not isinstance(block, dict):
        _fail("explicit", "expected an object")
    parties = block.get("parties")
    if not isinstance(parties, list) or not parties:
        _fail("explicit.parties", "required non-empty list")
    pairs = []
    for i, party in enumerate(parties):
        if not isinstance(party, dict) or "u" not in party or "v" not in party:
            _fail(f"explicit.parties[{i}]", "expected an object with keys 'u' and 'v'")
        u = _amplitudes_from_json(party["u"], f"explicit.parties[{i}].u")
        v = _amplitudes_from_json(party["v"], f"explicit.parties[{i}].v")
        if u.dim != v.dim:
            _fail(f"explicit.parties[{i}]", f"'u' has dim {u.dim} but 'v' has dim {v.dim}")
        pairs.append(LocalPair.from_states(u, v))
    return tuple(pairs)


def _parse_scenario_dict(doc: Any, **flags) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario root must be an object, got {type(doc).__name__}")
    doc = {**doc, **flags}
    known = {"priors", "abstract", "explicit", "order", "trials", "seed", "engine", "sweep"}
    for key in doc:
        if key not in known:
            _fail(key, "unknown field")
    priors = _parse_priors(doc)
    pairs = _parse_parties(doc)
    try:
        instance = ProductInstance(parties=pairs, priors=priors)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    order = doc.get("order")
    if order is not None:
        try:
            order = checked_order(order, len(pairs))
        except ValueError as exc:
            _fail("order", str(exc))

    engine_name = doc.get("engine", "povm")
    if not isinstance(engine_name, str) or engine_name not in _ENGINES:
        _fail("engine", f"expected 'povm' or 'neumark', got {engine_name!r}")

    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            _fail("sweep", "expected an object with keys 'c' and 'r'")
        grid = {}
        for axis in ("c", "r"):
            values = sweep.get(axis)
            if not isinstance(values, list) or not values:
                _fail(f"sweep.{axis}", "required non-empty list of numbers")
            grid[axis] = [
                _number(x, f"sweep.{axis}[{j}]", 0.0, 1.0) for j, x in enumerate(values)
            ]
        sweep = grid

    return Scenario(
        instance=instance,
        order=order,
        trials=_integer(doc.get("trials", DEFAULT_TRIALS), "trials", 1),
        seed=_integer(doc.get("seed", DEFAULT_SEED), "seed", 0),
        engine=_ENGINES[engine_name],
        sweep=sweep,
    )


def parse_scenario(path: str, **flags) -> Scenario:
    """Read and validate a scenario file.

    `flags` (order, trials, seed, engine) replace the top-level fields of
    the same name before validation, so a flag is checked exactly like the
    field it stands in for.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario file {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return _parse_scenario_dict(doc, **flags)


def _instance_to_dict(instance: ProductInstance) -> dict:
    return {
        "priors": {"r": instance.priors.r, "s": instance.priors.s},
        "parties": [
            {
                "u": [[a.real, a.imag] for a in pair.p.amplitudes],
                "v": [[a.real, a.imag] for a in pair.q.amplitudes],
            }
            for pair in instance.parties
        ],
    }


def serialize_scenario(scenario: Scenario) -> dict:
    """Canonical (explicit) form of a scenario; parsing it back is a no-op."""
    body = _instance_to_dict(scenario.instance)
    return {
        "priors": body["priors"],
        "explicit": {"parties": body["parties"]},
        "order": None if scenario.order is None else list(scenario.order),
        "trials": scenario.trials,
        "seed": scenario.seed,
        "engine": scenario.engine.value,
        "sweep": scenario.sweep,
    }


def _report(command: str, scenario: Scenario | None, body: dict) -> dict:
    report = {"command": command, "version": __version__}
    if scenario is not None:
        report["scenario"] = serialize_scenario(scenario)
    report.update(body)
    return report


def _emit(report: dict):
    print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))


def _priors_dict(priors: Priors) -> dict:
    return {"r": priors.r, "s": priors.s}


def cmd_optimum(scenario: Scenario) -> dict:
    instance = scenario.instance
    c = global_overlap(instance)
    strat = optimal_strategy(c, instance.priors)
    return _report(
        "optimum",
        scenario,
        {
            "global_overlap": c,
            "regime": strat.regime.value,
            "p_success": strat.p_success,
            "p_fail": strat.p_fail,
            "fail_p": strat.fail_p,
            "fail_q": strat.fail_q,
            "swapped": strat.swapped,
        },
    )


def _step_dict(rec) -> dict:
    return {
        "party_index": rec.party_index,
        "priors_before": _priors_dict(rec.priors_before),
        "local_overlap": rec.local_overlap,
        "regime": rec.regime.value,
        "p_conclusive_given_reached": rec.p_conclusive_given_reached,
        "posterior_after_fail": _priors_dict(rec.posterior_after_fail),
        "skipped": rec.skipped,
    }


def cmd_protocol(scenario: Scenario, quiet: bool = False) -> dict:
    instance = scenario.instance
    order = scenario.order or tuple(range(instance.n_parties))
    result = run_protocol(instance, order)
    body = {
        "order": list(order),
        "p_success": result.p_success,
        "p_inconclusive": result.p_inconclusive,
        "expected_measurements": result.expected_measurements,
        "local_global_gap": abs(result.p_success - global_optimum(instance)),
    }
    if not quiet:
        body["transcript"] = [_step_dict(rec) for rec in result.transcript]
    return _report("protocol", scenario, body)


def cmd_simulate(scenario: Scenario, quiet: bool = False) -> dict:
    instance = scenario.instance
    order = scenario.order or tuple(range(instance.n_parties))
    stats = simulate(instance, order, scenario.trials, scenario.seed, scenario.engine)
    analytic = run_protocol(instance, order)
    dist = measurement_count_distribution(analytic)
    count_var = sum(k * k * p for k, p in dist) - analytic.expected_measurements**2
    count_stderr = math.sqrt(max(0.0, count_var) / stats.trials)

    def z_score(delta: float, stderr: float):
        if stderr > 0.0:
            return delta / stderr
        return 0.0 if delta == 0.0 else None

    return _report(
        "simulate",
        scenario,
        {
            "engine": scenario.engine.value,
            "trials": stats.trials,
            "seed": scenario.seed,
            "order": list(order),
            "success_rate": stats.success_rate,
            "success_stderr": stats.success_stderr,
            "misidentifications": stats.misidentifications,
            "mean_measurements": stats.mean_measurements,
            "analytic": {
                "p_success": analytic.p_success,
                "expected_measurements": analytic.expected_measurements,
                "count_stderr": count_stderr,
            },
            "z_success": z_score(stats.success_rate - analytic.p_success, stats.success_stderr),
            "z_measurements": z_score(
                stats.mean_measurements - analytic.expected_measurements, count_stderr
            ),
        },
    )


def cmd_order(scenario: Scenario, exhaustive: bool = False, quiet: bool = False) -> dict:
    instance = scenario.instance
    n = instance.n_parties
    if exhaustive and n > EXHAUSTIVE_MAX_PARTIES:
        raise ScenarioError(
            f"exhaustive order search refused for n = {n} (> {EXHAUSTIVE_MAX_PARTIES}):"
            f" {n}! protocol runs"
        )
    asc_order, asc_cost = best_order(instance, OrderMode.ASCENDING_OVERLAP)
    body = {
        "ascending_order": list(asc_order),
        "ascending_cost": asc_cost,
        "exhaustive": None,
    }
    if n <= EXHAUSTIVE_MAX_PARTIES:
        table = None if quiet else []
        best, cost = best_order(instance, OrderMode.EXHAUSTIVE, table=table)
        exhaustive_body = {"best_order": list(best), "best_cost": cost}
        if table is not None:
            exhaustive_body["table"] = [
                {"order": list(perm), "expected_measurements": e_count, "p_success": p_success}
                for perm, e_count, p_success in table
            ]
        body["exhaustive"] = exhaustive_body
    return _report("order", scenario, body)


_VERIFY_TOLERANCES = {
    "closed_form_vs_oracle": 1e-6,
    "order_invariance": 1e-12,
    "grouping_invariance": 1e-12,
    "boundary_formula_gap": 1e-12,
    "boundary_perturbation": 1e-7,
}


def cmd_verify(seed: int, count: int) -> tuple[dict, bool]:
    """Run the property suite on `count` random instances per property.

    Returns the report and whether every property stayed within tolerance.
    """
    seed = _integer(seed, "seed", 0)
    count = _integer(count, "trials", 1)
    properties: dict[str, dict] = {}

    def record(name: str, deviation: float, worst):
        tol = _VERIFY_TOLERANCES[name]
        entry = {
            "max_deviation": deviation,
            "tolerance": tol,
            "pass": bool(deviation <= tol),
        }
        if not entry["pass"]:
            entry["worst"] = worst
        properties[name] = entry

    # Closed form vs independent grid oracle over random (c, r).
    rng = np.random.default_rng((seed, 0))
    worst_dev, worst_case = -1.0, None
    for _ in range(count):
        c = float(rng.random())
        r = float(rng.random())
        priors = Priors(r, 1.0 - r)
        dev = abs(
            optimal_strategy(c, priors).p_success
            - brute_force_strategy(c, priors, 300).p_success
        )
        if dev > worst_dev:
            worst_dev, worst_case = dev, {"c": c, "r": r}
    record("closed_form_vs_oracle", worst_dev, worst_case)

    # Every visiting order reproduces the joint optimum.
    worst_dev, worst_case = -1.0, None
    for i in range(count):
        n = 2 + i % 3
        dim = 2 + i % 2
        instance = random_instance(n, dim, (seed, 1, i))
        target = global_optimum(instance)
        rows = []
        best_order(instance, OrderMode.EXHAUSTIVE, table=rows)
        for perm, _, p_success in rows:
            dev = abs(p_success - target)
            if dev > worst_dev:
                worst_dev, worst_case = dev, {
                    "instance": _instance_to_dict(instance),
                    "order": list(perm),
                }
    record("order_invariance", worst_dev, worst_case)

    # Merging parties into effective parties leaves the result unchanged.
    partitions = [[[0, 1], [2]], [[0], [1, 2]], [[0, 1, 2]]]
    worst_dev, worst_case = -1.0, None
    for i in range(count):
        instance = random_instance(3, 2, (seed, 2, i))
        base = run_protocol(instance, (0, 1, 2)).p_success
        for partition in partitions:
            grouped = group(instance, partition)
            dev = abs(
                run_protocol(grouped, tuple(range(grouped.n_parties))).p_success - base
            )
            if dev > worst_dev:
                worst_dev, worst_case = dev, {
                    "instance": _instance_to_dict(instance),
                    "partition": partition,
                }
    record("grouping_invariance", worst_dev, worst_case)

    # Both closed-form branches meet at the regime boundary...
    rng = np.random.default_rng((seed, 3))
    worst_gap, worst_gap_case = -1.0, None
    worst_jump, worst_jump_case = -1.0, None
    delta = 1e-9
    for _ in range(count):
        c = 0.05 + 0.9 * float(rng.random())
        r = 1.0 / (1.0 + c * c)  # the boundary sqrt(s/r) = c
        s = 1.0 - r
        equal_branch = 1.0 - 2.0 * math.sqrt(r * s) * c
        saturated_branch = r * (1.0 - c * c)
        implemented = optimal_strategy(c, Priors(r, s)).p_success
        gap = max(
            abs(equal_branch - saturated_branch),
            abs(implemented - equal_branch),
            abs(implemented - saturated_branch),
        )
        if gap > worst_gap:
            worst_gap, worst_gap_case = gap, {"c": c, "r": r}
        # ... and crossing it changes the output only infinitesimally.
        above = optimal_strategy(c, Priors(r + delta, s - delta)).p_success
        below = optimal_strategy(c, Priors(r - delta, s + delta)).p_success
        jump = abs(above - below)
        if jump > worst_jump:
            worst_jump, worst_jump_case = jump, {"c": c, "r": r}
    record("boundary_formula_gap", worst_gap, worst_gap_case)
    record("boundary_perturbation", worst_jump, worst_jump_case)

    all_pass = all(entry["pass"] for entry in properties.values())
    report = {
        "command": "verify",
        "version": __version__,
        "seed": seed,
        "count": count,
        "properties": properties,
        "all_pass": all_pass,
    }
    return report, all_pass


def cmd_sweep(scenario: Scenario, csv: bool = False) -> tuple[dict | None, list[str]]:
    """Tabulate the success-probability surface over a (c, r) grid.

    Each row's sequential-protocol column comes from a two-party instance
    whose local overlaps are both sqrt(c), so the physical path is exercised
    rather than the closed form alone.
    """
    if not scenario.sweep:
        raise ScenarioError("sweep command needs a 'sweep' block with 'c' and 'r' grids")
    rows = []
    lines = ["c,r,regime,p_global,p_locc,e_count"]
    row_index = 0
    for r in scenario.sweep["r"]:
        for c in scenario.sweep["c"]:
            priors = Priors(r, 1.0 - r)
            strat = optimal_strategy(c, priors)
            root = math.sqrt(c)
            pairs = tuple(
                state_pair_with_overlap(root, 2, (scenario.seed, row_index, k))
                for k in range(2)
            )
            result = run_protocol(ProductInstance(pairs, priors), (0, 1))
            row = {
                "c": c,
                "r": r,
                "regime": strat.regime.value,
                "p_global": strat.p_success,
                "p_locc": result.p_success,
                "e_count": result.expected_measurements,
            }
            rows.append(row)
            lines.append(
                f"{c!r},{r!r},{strat.regime.value},"
                f"{strat.p_success!r},{result.p_success!r},{result.expected_measurements!r}"
            )
            row_index += 1
    if csv:
        return None, lines
    return _report("sweep", scenario, {"rows": rows}), []


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # input-error path (exit 1) instead.
    def error(self, message):
        raise ScenarioError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uqsd",
        description="Conclusive discrimination of two product multipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, scenario: bool = True):
        p = sub.add_parser(name, help=help_text)
        if scenario:
            p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--quiet", action="store_true", help="suppress transcripts/tables")
        return p

    add("optimum", "closed-form optimum for the scenario's global overlap")

    p = add("protocol", "run the sequential protocol and print the transcript")
    p.add_argument("--order", type=_int_list, help="comma-separated visiting order, e.g. 2,0,1")

    p = add("simulate", "Monte Carlo the protocol and compare with the analytic values")
    p.add_argument("--order", type=_int_list, help="comma-separated visiting order")
    p.add_argument("--trials", type=int, help="number of trials (default from scenario)")
    p.add_argument("--seed", type=int, help="simulation seed (default from scenario)")
    p.add_argument("--engine", help="sampling engine: povm or neumark")

    p = add("order", "best visiting order: ascending heuristic plus exhaustive table")
    p.add_argument("--exhaustive", action="store_true", help="require the exhaustive search")

    p = add("verify", "run the property suite on random instances", scenario=False)
    p.add_argument("--seed", type=int, default=1, help="root seed (default 1)")
    p.add_argument("--trials", type=int, default=100, help="instances per property (default 100)")

    p = add("sweep", "tabulate p_success over the scenario's (c, r) grid")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--seed", type=int, help="seed for the per-row state construction")
    return parser


# Flags that stand in for the scenario field of the same name.
_FIELD_FLAGS = ("order", "trials", "seed", "engine")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            report, ok = cmd_verify(args.seed, args.trials)
            _emit(report)
            return 0 if ok else 2
        flags = {k: v for k, v in vars(args).items() if k in _FIELD_FLAGS and v is not None}
        scenario = parse_scenario(args.scenario, **flags)
        if args.command == "optimum":
            _emit(cmd_optimum(scenario))
        elif args.command == "protocol":
            _emit(cmd_protocol(scenario, quiet=args.quiet))
        elif args.command == "simulate":
            _emit(cmd_simulate(scenario, quiet=args.quiet))
        elif args.command == "order":
            _emit(cmd_order(scenario, exhaustive=args.exhaustive, quiet=args.quiet))
        elif args.command == "sweep":
            report, lines = cmd_sweep(scenario, csv=args.csv)
            if report is not None:
                _emit(report)
            for line in lines:
                print(line)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        # Anything else is a fault in uqsd, not in its input.
        traceback.print_exc()
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
