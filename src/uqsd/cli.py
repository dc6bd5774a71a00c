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
import orjson

from . import __version__, checks
from .locc import EXHAUSTIVE_MAX_PARTIES, OrderMode, best_order, checked_order, run_protocol
from .locc import global_optimum, global_overlap
from .montecarlo import Engine, simulate
from .pair_disc import optimal_strategy
from .states import LocalPair, Priors, ProductInstance, _normalized, _norms
from .states import _SHOWN_CHARS, _is_real, _shown, checked_integer, checked_number
from .states import state_pairs_with_overlaps

DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0
# Largest seed or trial count, in a scenario or a flag: reports echo both, and
# orjson writes no integer wider than 64 bits.
UINT64_MAX = 2**64 - 1
# Largest `verify --trials`: at about 0.3 ms per instance, about 5 minutes.
MAX_VERIFY_COUNT = 10**6
# Largest `simulate` trial count: at about 53 s per 10**9 trials, about 9 minutes.
MAX_SIMULATE_TRIALS = 10**10
# Largest `sweep` grid, len(c) * len(r) cells: each cell is a report row of
# about 160 bytes of JSON, so the report stays under about 16 MB.
MAX_SWEEP_CELLS = 10**5
# Largest `abstract.dim`.  Nothing computed grows faster than dim, but every
# report embeds the scenario's amplitudes in explicit form, about 91 KB of
# JSON per party at this size.
MAX_ABSTRACT_DIM = 1024
# The top-level fields of a scenario file; a command-line flag of the same
# name replaces the field.
SCENARIO_FIELDS = {"priors", "abstract", "explicit", "order", "trials", "seed", "engine", "sweep"}


class ScenarioError(ValueError):
    """A scenario file (or flag standing in for one of its fields) could not be used."""


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A validated scenario file, flags applied.

    order is the visiting order of `protocol` and `simulate`, or None for
    the parties' listed order; trials, seed and engine drive `simulate`;
    sweep holds the 'c' and 'r' grids, or None when the file has none.  The
    `sweep` command steps each grid column on local overlaps sqrt(c) and
    reads no seed.
    """

    instance: ProductInstance
    order: tuple[int, ...] | None
    trials: int
    seed: int
    engine: Engine
    sweep: dict | None


def _fail(field: str, problem: str):
    raise ScenarioError(f"scenario field '{field}': {problem}")


def _checked(check, value, field: str, *bounds, label: str = "scenario field '{}'"):
    # The one place a bounded number's ValueError becomes a ScenarioError.  Its
    # message names the value by `label` with `field` filled in: a scenario
    # field by default, or, for `verify`, a flag that stands for no field.
    try:
        return check(value, label.format(field), *bounds)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _given(text: str) -> str:
    # A command-line argument named in an error, as given; past _SHOWN_CHARS
    # characters, cut as _shown cuts a value.
    return text if len(text) <= _SHOWN_CHARS else _shown(text)


def _as_field(field: str, call, *args):
    # The one place any other library ValueError, whose message names no
    # field, becomes a ScenarioError for `field`.
    try:
        return call(*args)
    except ValueError as exc:
        _fail(field, str(exc))


def _refuse_unknown(block: dict, known, prefix: str) -> None:
    # One set comparison per object.  A key outside `known` is refused, the
    # first in file order, named under `prefix`: the block's own field and a
    # dot, or "" at the top level.
    if not block.keys() <= known:
        key = next(key for key in block if key not in known)
        raise ScenarioError(f"scenario field {_shown(prefix + key)}: unknown field")


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
            reals = itertools.chain.from_iterable(rows)
            return np.fromiter(reals, np.float64, 2 * len(rows)).view(np.complex128)
    return None


def _probabilities(values, field: str) -> list[float]:
    if not isinstance(values, list) or not values:
        _fail(field, "required non-empty list of numbers")
    return [_checked(checked_number, x, f"{field}[{j}]", 0.0, 1.0) for j, x in enumerate(values)]


def _parse_priors(doc: dict) -> Priors:
    block = doc.get("priors")
    if not isinstance(block, dict):
        _fail("priors", "required object with key 'r' (and optionally 's')")
    _refuse_unknown(block, {"r", "s"}, "priors.")
    r = _checked(checked_number, block.get("r"), "priors.r", 0.0, 1.0)
    s = _checked(checked_number, block.get("s", 1.0 - r), "priors.s", 0.0, 1.0)
    return _as_field("priors", Priors, r, s)


def _parse_parties(doc: dict) -> tuple[LocalPair, ...]:
    has_abstract = "abstract" in doc
    has_explicit = "explicit" in doc
    if has_abstract == has_explicit:
        _fail("abstract/explicit", "exactly one of the two blocks must be present")
    if has_abstract:
        block = doc["abstract"]
        if not isinstance(block, dict):
            _fail("abstract", "expected an object")
        _refuse_unknown(block, {"overlaps", "dim", "seed"}, "abstract.")
        cs = _probabilities(block.get("overlaps"), "abstract.overlaps")
        dim = _checked(checked_integer, block.get("dim", 2), "abstract.dim", 2, MAX_ABSTRACT_DIM)
        seed = _checked(checked_integer, block.get("seed", 0), "abstract.seed", 0)
        # Canonicalize to concrete state vectors so every command runs
        # through the same physical layer as an explicit scenario.
        return state_pairs_with_overlaps(cs, dim, seed)
    block = doc["explicit"]
    if not isinstance(block, dict):
        _fail("explicit", "expected an object")
    _refuse_unknown(block, {"parties"}, "explicit.")
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
        if len(party) > 2:  # 'u' and 'v' are there, so some key is unknown
            _refuse_unknown(party, {"u", "v"}, f"explicit.parties[{i}].")
        for key in ("u", "v"):
            field, entries = f"explicit.parties[{i}].{key}", party[key]
            if not isinstance(entries, list) or len(entries) < 2:
                _fail(field, "expected a list of at least two [re, im] pairs")
            lists.append((field, entries))
    # The entries: every amplitude converted in one np.fromiter call and
    # checked finite by one np.isfinite; only if either refuses some entry
    # are they checked one by one, to name it.
    vecs = _complex_array([pair for _, entries in lists for pair in entries])
    if vecs is None or not np.isfinite(vecs).all():
        for field, entries in lists:
            for j, pair in enumerate(entries):
                if not _are_amplitudes([pair]):
                    _fail(f"{field}[{j}]", f"expected [re, im], got {_shown(pair)}")
                if (vec := _complex_array([pair])) is None:
                    _fail(f"{field}[{j}]", "amplitude does not fit in a float")
                if not np.isfinite(vec).all():
                    _fail(f"{field}[{j}]", f"expected finite numbers, got {_shown(pair)}")
    # The values: every list's norm, from one stacked product per list
    # length; then each state, a view of that one array, must be a unit
    # vector, and each party's two states must have one dim.  The entries
    # are finite, so a norm within 1e-6 of 1 is normalized without fault.
    ends = list(itertools.accumulate(len(entries) for _, entries in lists))
    by_size: dict[int, list[int]] = {}
    for k, (_, entries) in enumerate(lists):
        by_size.setdefault(len(entries), []).append(k)
    norms = [0.0] * len(lists)
    for size, ks in by_size.items():
        rows = np.subtract.outer([ends[k] for k in ks], np.arange(size, 0, -1))
        for k, norm in zip(ks, _norms(vecs[rows])):
            norms[k] = norm
    pairs = []
    for k, (field, entries) in enumerate(lists):
        if abs(norms[k] - 1.0) > 1e-6:
            _fail(field, f"amplitudes have norm {norms[k]!r}; expected a unit vector")
        state = _normalized(vecs[ends[k] - len(entries) : ends[k]], norms[k])
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
    _refuse_unknown(doc, SCENARIO_FIELDS, "")
    priors = _parse_priors(doc)
    pairs = _parse_parties(doc)
    # The parser has already checked the party count and every dim.
    instance = ProductInstance(parties=pairs, priors=priors)

    order = doc.get("order")
    if order is not None:
        order = _as_field("order", checked_order, order, len(pairs))

    engine_name = doc.get("engine", Engine.POVM_SAMPLING.value)
    try:
        engine = Engine(engine_name)
    except ValueError:
        names = " or ".join(repr(e.value) for e in Engine)
        _fail("engine", f"expected {names}, got {_shown(engine_name)}")

    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict):
            _fail("sweep", "expected an object with keys 'c' and 'r'")
        _refuse_unknown(sweep, {"c", "r"}, "sweep.")
        sweep = {axis: _probabilities(sweep.get(axis), f"sweep.{axis}") for axis in ("c", "r")}

    return Scenario(
        instance=instance,
        order=order,
        trials=_checked(checked_integer, doc.get("trials", DEFAULT_TRIALS), "trials", 1, UINT64_MAX),
        seed=_checked(checked_integer, doc.get("seed", DEFAULT_SEED), "seed", 0, UINT64_MAX),
        engine=engine,
        sweep=sweep,
    )


def parse_scenario(path: str, **flags) -> Scenario:
    """Read and validate a scenario file.

    `flags` replace the top-level fields of the same name (any of
    SCENARIO_FIELDS) before validation, so a flag is checked exactly like
    the field it stands in for.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        # A path that opens is at most PATH_MAX long, but one that does not can
        # be any length, and the OSError's own text names it again: a path
        # that _given cuts is named once, with the reason alone.
        name = _given(path)
        reason = exc if name is path else exc.strerror
        raise ScenarioError(f"cannot read scenario file {name}: {reason}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario file {path} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # e.g. too many digits, or too deep nesting
        raise ScenarioError(f"scenario file {path} cannot be read as JSON: {exc}") from exc
    return _parse_scenario_dict(doc, **flags)


def _amplitudes_json(amplitudes: np.ndarray) -> list:
    return amplitudes.view(np.float64).reshape(-1, 2).tolist()


def _instance_json(instance: ProductInstance) -> dict:
    """An instance in the scenario file's explicit form."""
    return {
        "priors": dict(vars(instance.priors)),  # a copy: serialize_scenario hands it out
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
    """Canonical (explicit) form of a scenario; parsing it back is a no-op.

    An absent `order` or `sweep` is left out, as a file leaves it out.
    """
    doc = {
        **_instance_json(scenario.instance),
        "trials": scenario.trials,
        "seed": scenario.seed,
        "engine": scenario.engine.value,
    }
    if scenario.order is not None:
        doc["order"] = list(scenario.order)
    if scenario.sweep is not None:
        doc["sweep"] = scenario.sweep
    return doc


def _strict_default(obj):
    # json's strict encoder meets only what orjson has already encoded as an
    # enum or a dataclass: an enum is written as its value, a dataclass as its
    # fields.  uqsd's dataclasses have no slots and no attributes but their
    # fields, in field order, so `vars` of one is exactly its fields.
    return obj.value if isinstance(obj, enum.Enum) else vars(obj)


def _report(command: str, scenario: Scenario | None, body: dict) -> dict:
    report = {"command": command, "version": __version__}
    if scenario is not None:
        report["scenario"] = serialize_scenario(scenario)
    report.update(body)
    return report


def _emit(report: dict):
    # orjson writes the shortest round-trip digits of every float, as float's
    # repr does, at a fraction of json's cost.  It sorts every dict's keys and
    # writes uqsd's dataclasses and enums itself: a dataclass as its fields in
    # field order, an enum as its value.  A value it cannot encode raises
    # TypeError, an internal fault.  It writes NaN and +-inf as null, as it
    # writes None, so only a report with a null in it (none of the common
    # ones) is encoded once more, by json's strict encoder, which raises on a
    # non-finite number: an internal fault too, with nothing on stdout.
    text = orjson.dumps(report, option=orjson.OPT_SORT_KEYS)
    if b"null" in text:
        json.dumps(report, allow_nan=False, default=_strict_default)
    # The report and then its newline, as two writes: after a large first
    # write to a pipe whose reader has gone, only the second one fails.  The
    # flush makes a closed stdout fail here, inside `main`, not at exit.
    print(text.decode(), flush=True)


def cmd_optimum(scenario: Scenario) -> dict:
    c = global_overlap(scenario.instance)
    strategy = optimal_strategy(c, scenario.instance.priors)
    return _report("optimum", scenario, {"global_overlap": c, **vars(strategy)})


def cmd_protocol(scenario: Scenario, quiet: bool = False) -> dict:
    instance = scenario.instance
    order = scenario.order or tuple(range(instance.n_parties))
    result = run_protocol(instance, order)
    gap = abs(result.p_success - global_optimum(instance))
    body = {"order": list(order), "local_global_gap": gap, **vars(result)}
    if quiet:
        del body["transcript"]
    return _report("protocol", scenario, body)


def cmd_simulate(scenario: Scenario) -> dict:
    instance = scenario.instance
    order = scenario.order or tuple(range(instance.n_parties))
    trials = _checked(checked_integer, scenario.trials, "trials", 1, MAX_SIMULATE_TRIALS)
    stats = simulate(instance, order, trials, scenario.seed, scenario.engine)
    body = {"engine": scenario.engine, "seed": scenario.seed, "order": list(order)}
    return _report("simulate", scenario, {**body, **vars(stats)})


def cmd_order(scenario: Scenario, exhaustive: bool = False, quiet: bool = False) -> dict:
    instance = scenario.instance
    asc_order, asc_cost = best_order(instance, OrderMode.ASCENDING_OVERLAP)
    body = {
        "ascending_order": list(asc_order),
        "ascending_cost": asc_cost,
        "exhaustive": None,
    }
    if exhaustive or instance.n_parties <= EXHAUSTIVE_MAX_PARTIES:
        table = None if quiet else []  # --quiet: the walk keeps a running minimum, no rows
        try:  # best_order refuses a walk past EXHAUSTIVE_MAX_PARTIES parties
            best, cost = best_order(instance, OrderMode.EXHAUSTIVE, table=table)
        except ValueError as exc:
            raise ScenarioError(f"argument --exhaustive: {exc}") from None
        body["exhaustive"] = {"best_order": list(best), "best_cost": cost, "table": table}
        if quiet:
            del body["exhaustive"]["table"]
    return _report("order", scenario, body)


def cmd_verify(seed: int, count: int) -> tuple[dict, bool]:
    """Run the property suite on `count` random instances per property.

    Returns the report and whether every property stayed within tolerance.
    """
    # verify reads no scenario, so its errors name flags, worded as argparse's own.
    flag = "argument --{}"
    result = checks.verify(
        _checked(checked_integer, seed, "seed", 0, UINT64_MAX, label=flag),
        _checked(checked_integer, count, "trials", 1, MAX_VERIFY_COUNT, label=flag),
    )
    # A failing property's worst instance is written as a scenario that replays
    # it, in copies: the Verification's own dicts are left as they are.
    properties = {name: dict(entry) for name, entry in result.properties.items()}
    for entry in properties.values():
        if "instance" in entry.get("worst", ()):
            worst = entry["worst"]
            entry["worst"] = {**worst, "instance": _instance_json(worst["instance"])}
    return _report("verify", None, {**vars(result), "properties": properties}), result.all_pass


def cmd_sweep(scenario: Scenario) -> dict:
    """Tabulate the success-probability surface over the scenario's (c, r) grid."""
    if not scenario.sweep:
        raise ScenarioError("sweep command needs a 'sweep' block with 'c' and 'r' grids")
    cs, rs = scenario.sweep["c"], scenario.sweep["r"]
    if len(cs) * len(rs) > MAX_SWEEP_CELLS:
        grid = f"{len(cs)} x {len(rs)} = {len(cs) * len(rs)}"
        _fail("sweep", f"expected a grid of at most {MAX_SWEEP_CELLS} cells, got {grid}")
    rows = checks.sweep(cs, rs)
    return _report("sweep", scenario, {"rows": rows})


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {_shown(text)}"
        ) from None


def _int(text: str) -> int:
    # argparse's `type=int`, with the bad value cut as _shown cuts it.
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap onto the
    # input-error path (exit 1) instead.
    def error(self, message):
        raise ScenarioError(message)

    # argparse's own two checks that echo an argument, with their wording, but
    # the argument cut as _shown cuts a value.
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {_shown(value)} (choose from {choices})"
            raise argparse.ArgumentError(action, message)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {_given(' '.join(extra))}")
        return args


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
    p.add_argument("--trials", type=_int, help="number of trials (default from scenario)")
    p.add_argument("--seed", type=_int, help="simulation seed (default from scenario)")
    p.add_argument("--engine", help="sampling engine: povm or neumark")

    p = add("order", "best visiting order: ascending heuristic plus exhaustive table")
    p.add_argument("--quiet", action="store_true", help="drop the exhaustive table")
    p.add_argument("--exhaustive", action="store_true", help="require the exhaustive search")

    p = add("verify", "run the property suite on random instances", scenario=False)
    p.add_argument("--seed", type=_int, default=1, help="root seed (default 1)")
    p.add_argument("--trials", type=_int, default=100, help="instances per property (default 100)")

    p = add("sweep", "tabulate p_success over the scenario's (c, r) grid")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "verify":
            report, ok = cmd_verify(args.seed, args.trials)
            _emit(report)
            return 0 if ok else 2
        flags = {k: v for k, v in vars(args).items() if k in SCENARIO_FIELDS and v is not None}
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
                    cells = vars(row).values()
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
