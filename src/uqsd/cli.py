"""Command-line surface: scenario files in, machine-readable reports out.

Commands print one JSON document on one line (or CSV for `sweep --csv`) to
stdout; `python -m json.tool` pretty-prints it.  Exit codes: 0 on success, 1
on any input problem or a stdout closed before the report was written, 2 when
the `verify` property suite finds a violation, 3 on an internal fault
(traceback on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import functools
import gc
import itertools
import json
import os
import sys
import traceback
from typing import Any

import numpy as np

from . import __version__, checks
from .locc import EXHAUSTIVE_MAX_PARTIES, OrderMode, best_order, checked_order, run_protocol
from .locc import global_optimum, global_overlap
from .montecarlo import Engine, simulate
from .pair_disc import optimal_strategy
from .states import LocalPair, Priors, ProductInstance, PureState, _norm, _normalized
from .states import _is_real, checked_integer, checked_number, state_pairs_with_overlaps

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
    """A validated scenario file, flags applied.

    order is the visiting order of `protocol` and `simulate`, or None for
    the parties' listed order; trials, seed and engine drive `simulate`, and
    seed also draws `sweep`'s pairs; sweep holds the 'c' and 'r' grids, or
    None when the file has none.
    """

    instance: ProductInstance
    order: tuple[int, ...] | None
    trials: int
    seed: int
    engine: Engine
    sweep: dict | None


def _fail(field: str, problem: str):
    raise ScenarioError(f"scenario field '{field}': {problem}")


def _checked(check, value, field: str, *bounds):
    # The one place a bounded-number field's ValueError becomes a ScenarioError.
    try:
        return check(value, f"scenario field '{field}'", *bounds)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _are_amplitudes(rows: list) -> bool:  # [re, im] lists of two numbers, checked per type
    return (
        all(issubclass(kind, list) for kind in {*map(type, rows)})
        and {*map(len, rows)} <= {2}
        and all(map(_is_real, {*map(type, itertools.chain.from_iterable(rows))}))
    )


def _complex_array(rows: list) -> np.ndarray | None:
    # The rows as one complex vector, from one type pass and one conversion;
    # None if some row is no amplitude or does not fit in a float.
    if _are_amplitudes(rows):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            return np.array(rows, dtype=np.float64).view(np.complex128).ravel()
    return None


def _unit_state(vec: np.ndarray, field: str) -> PureState:
    norm = _norm(vec)
    if abs(norm - 1.0) > 1e-6:
        _fail(field, f"amplitudes have norm {norm!r}; expected a unit vector")
    try:
        return _normalized(vec, norm)
    except ValueError as exc:  # e.g. NaN amplitudes, whose norm passes the test above
        _fail(field, str(exc))


def _probabilities(values, field: str) -> list[float]:
    if not isinstance(values, list) or not values:
        _fail(field, "required non-empty list of numbers")
    return [_checked(checked_number, x, f"{field}[{j}]", 0.0, 1.0) for j, x in enumerate(values)]


def _parse_priors(doc: dict) -> Priors:
    block = doc.get("priors")
    if not isinstance(block, dict):
        _fail("priors", "required object with key 'r' (and optionally 's')")
    r = _checked(checked_number, block.get("r"), "priors.r", 0.0, 1.0)
    s = _checked(checked_number, block.get("s", 1.0 - r), "priors.s", 0.0, 1.0)
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
        cs = _probabilities(block.get("overlaps"), "abstract.overlaps")
        dim = _checked(checked_integer, block.get("dim", 2), "abstract.dim", 2, MAX_ABSTRACT_DIM)
        seed = _checked(checked_integer, block.get("seed", 0), "abstract.seed", 0)
        # Canonicalize to concrete state vectors so every command runs
        # through the same physical layer as an explicit scenario.
        return state_pairs_with_overlaps(cs, dim, seed)
    block = doc["explicit"]
    if not isinstance(block, dict):
        _fail("explicit", "expected an object")
    parties = block.get("parties")
    if not isinstance(parties, list) or not parties:
        _fail("explicit.parties", "required non-empty list")
    # Three passes, each in file order (party by party, 'u' before 'v'); the
    # first fault of the first pass that finds one is named.  The structure:
    # every party an object with 'u' and 'v', every list at least two long.
    lists = []
    for i, party in enumerate(parties):
        if not isinstance(party, dict) or "u" not in party or "v" not in party:
            _fail(f"explicit.parties[{i}]", "expected an object with keys 'u' and 'v'")
        for key in ("u", "v"):
            field, entries = f"explicit.parties[{i}].{key}", party[key]
            if not isinstance(entries, list) or len(entries) < 2:
                _fail(field, "expected a list of at least two [re, im] pairs")
            lists.append((field, entries))
    # The entries: every amplitude converted in one np.array call; only if
    # that refuses some entry are they checked one by one, to name it.
    if (vecs := _complex_array([pair for _, entries in lists for pair in entries])) is None:
        for field, entries in lists:
            for j, pair in enumerate(entries):
                if not _are_amplitudes([pair]):
                    _fail(f"{field}[{j}]", f"expected [re, im], got {pair!r}")
                if _complex_array([pair]) is None:
                    _fail(f"{field}[{j}]", "amplitude does not fit in a float")
    # The values: each state, a view of that one array, must be a unit
    # vector, and each party's two states must have one dim.
    pairs, start = [], 0
    for k, (field, entries) in enumerate(lists):
        end = start + len(entries)
        state = _unit_state(vecs[start:end], field)
        start = end
        if k % 2 == 0:
            u = state
            continue
        if u.dim != state.dim:
            _fail(f"explicit.parties[{k // 2}]", f"'u' has dim {u.dim} but 'v' has dim {state.dim}")
        pairs.append(LocalPair(u, state))
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
    # The parser has already checked the party count and every dim.
    instance = ProductInstance(parties=pairs, priors=priors)

    order = doc.get("order")
    if order is not None:
        try:
            order = checked_order(order, len(pairs))
        except ValueError as exc:
            _fail("order", str(exc))

    engine_name = doc.get("engine", "povm")
    try:
        engine = Engine(engine_name)
    except ValueError:
        _fail("engine", f"expected 'povm' or 'neumark', got {engine_name!r}")

    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            _fail("sweep", "expected an object with keys 'c' and 'r'")
        sweep = {axis: _probabilities(sweep.get(axis), f"sweep.{axis}") for axis in ("c", "r")}

    return Scenario(
        instance=instance,
        order=order,
        trials=_checked(checked_integer, doc.get("trials", DEFAULT_TRIALS), "trials", 1),
        seed=_checked(checked_integer, doc.get("seed", DEFAULT_SEED), "seed", 0),
        engine=engine,
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
    except ValueError as exc:  # e.g. an integer literal past Python's digit limit
        raise ScenarioError(f"scenario file {path} cannot be read as JSON: {exc}") from exc
    return _parse_scenario_dict(doc, **flags)


def _amplitudes_json(amplitudes: np.ndarray) -> list:
    return amplitudes.view(np.float64).reshape(-1, 2).tolist()


def _instance_json(instance: ProductInstance) -> dict:
    """An instance in the scenario file's explicit form."""
    return {
        "priors": _fields(instance.priors),
        "explicit": {
            "parties": [
                {
                    "u": _amplitudes_json(pair.p.amplitudes),
                    "v": _amplitudes_json(pair.q.amplitudes),
                }
                for pair in instance.parties
            ]
        },
    }


def serialize_scenario(scenario: Scenario) -> dict:
    """Canonical (explicit) form of a scenario; parsing it back is a no-op."""
    return {
        **_instance_json(scenario.instance),
        "order": None if scenario.order is None else list(scenario.order),
        "trials": scenario.trials,
        "seed": scenario.seed,
        "engine": scenario.engine.value,
        "sweep": scenario.sweep,
    }


def _fields(obj) -> dict:
    return {field.name: getattr(obj, field.name) for field in dataclasses.fields(obj)}


def _json_default(obj):
    # Reports hold library results as they are: an enum is written as its
    # value, an instance as a scenario that replays it, any other dataclass
    # as its fields.  uqsd's dataclasses have no slots and no attributes but
    # their fields, so the instance's own __dict__ is exactly those fields.
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, ProductInstance):
        return _instance_json(obj)
    if not dataclasses.is_dataclass(obj):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj.__dict__


def _report(command: str, scenario: Scenario | None, body: dict) -> dict:
    report = {"command": command, "version": __version__}
    if scenario is not None:
        report["scenario"] = serialize_scenario(scenario)
    report.update(body)
    return report


def _emit(report: dict):
    # No `indent`: with it json falls back from its C encoder to the pure-Python
    # one, which costs about three times as much per report.  The flush makes a
    # closed stdout fail here, inside `main`, not at interpreter exit.
    print(json.dumps(report, sort_keys=True, allow_nan=False, default=_json_default), flush=True)


def cmd_optimum(scenario: Scenario) -> dict:
    c = global_overlap(scenario.instance)
    strategy = optimal_strategy(c, scenario.instance.priors)
    return _report("optimum", scenario, {"global_overlap": c, **_fields(strategy)})


def cmd_protocol(scenario: Scenario, quiet: bool = False) -> dict:
    instance = scenario.instance
    order = scenario.order or tuple(range(instance.n_parties))
    result = run_protocol(instance, order)
    gap = abs(result.p_success - global_optimum(instance))
    body = {"order": list(order), "local_global_gap": gap, **_fields(result)}
    if quiet:
        del body["transcript"]
    return _report("protocol", scenario, body)


def cmd_simulate(scenario: Scenario) -> dict:
    instance = scenario.instance
    order = scenario.order or tuple(range(instance.n_parties))
    stats = simulate(instance, order, scenario.trials, scenario.seed, scenario.engine)
    body = {"engine": scenario.engine, "seed": scenario.seed, "order": list(order)}
    return _report("simulate", scenario, {**body, **_fields(stats)})


def cmd_order(scenario: Scenario, exhaustive: bool = False, quiet: bool = False) -> dict:
    instance = scenario.instance
    n = instance.n_parties
    walk = n <= EXHAUSTIVE_MAX_PARTIES
    if exhaustive and not walk:
        raise ScenarioError(
            f"exhaustive order search refused for n = {n} (> {EXHAUSTIVE_MAX_PARTIES}):"
            f" its walk over the order tree takes sum_k {n}!/({n}-k)! steps"
        )
    asc_order, asc_cost = best_order(instance, OrderMode.ASCENDING_OVERLAP)
    body = {
        "ascending_order": list(asc_order),
        "ascending_cost": asc_cost,
        "exhaustive": None,
    }
    if walk:
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


def cmd_verify(seed: int, count: int) -> tuple[dict, bool]:
    """Run the property suite on `count` random instances per property.

    Returns the report and whether every property stayed within tolerance.
    """
    result = checks.verify(
        _checked(checked_integer, seed, "seed", 0), _checked(checked_integer, count, "trials", 1)
    )
    return _report("verify", None, _fields(result)), result.all_pass


def cmd_sweep(scenario: Scenario) -> dict:
    """Tabulate the success-probability surface over the scenario's (c, r) grid."""
    if not scenario.sweep:
        raise ScenarioError("sweep command needs a 'sweep' block with 'c' and 'r' grids")
    rows = checks.sweep(scenario.sweep["c"], scenario.sweep["r"], scenario.seed)
    return _report("sweep", scenario, {"rows": rows})


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
        return p

    add("optimum", "closed-form optimum for the scenario's global overlap")

    p = add("protocol", "run the sequential protocol and print the transcript")
    p.add_argument("--quiet", action="store_true", help="drop the transcript")
    p.add_argument("--order", type=_int_list, help="comma-separated visiting order, e.g. 2,0,1")

    p = add("simulate", "Monte Carlo the protocol and compare with the analytic values")
    p.add_argument("--quiet", action="store_true", help="accepted; changes nothing")
    p.add_argument("--order", type=_int_list, help="comma-separated visiting order")
    p.add_argument("--trials", type=int, help="number of trials (default from scenario)")
    p.add_argument("--seed", type=int, help="simulation seed (default from scenario)")
    p.add_argument("--engine", help="sampling engine: povm or neumark")

    p = add("order", "best visiting order: ascending heuristic plus exhaustive table")
    p.add_argument("--quiet", action="store_true", help="drop the exhaustive table")
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
            _emit(cmd_simulate(scenario))
        elif args.command == "order":
            _emit(cmd_order(scenario, exhaustive=args.exhaustive, quiet=args.quiet))
        elif args.command == "sweep":
            report = cmd_sweep(scenario)
            if args.csv:
                print(",".join(field.name for field in dataclasses.fields(checks.SweepRow)))
                for row in report["rows"]:
                    cells = _fields(row).values()
                    print(",".join(v.value if isinstance(v, enum.Enum) else repr(v) for v in cells))
                sys.stdout.flush()
            else:
                _emit(report)
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away, e.g. `uqsd order ... | head -c 10`.
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return 1
    except Exception:
        # Anything else is a fault in uqsd, not in its input.
        traceback.print_exc()
        return 3


def entry():
    """Run `main` on sys.argv and exit with its code: `uqsd` and `python -m uqsd.cli`.

    Everything a command uses is imported by now, numpy included, so the
    freeze moves those objects out of the collector's reach: neither a full
    collection during a long command nor the one at interpreter exit walks
    them again.  That exit-time walk was about a tenth of a short command's
    time.
    """
    gc.freeze()
    code = main()
    # main flushes what it writes.  After a closed pipe, what it could not write
    # is still buffered; with stdout on devnull the interpreter's final flush
    # drops it instead of printing "Exception ignored" and exiting 120.
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
