"""Per-layer timing by wrapping uqsd's public functions from outside.

`Tracer.installed()` replaces each public function of `states`, `pair_disc`,
`locc`, `montecarlo` and `cli` with a timing wrapper in every uqsd module
namespace that refers to it, so calls between modules are seen too, and puts
the originals back on exit.  Nothing inside `src/` changes.  Durations are
kept in memory, one array per span name, and written out when the run ends.

`layer_probe` then makes a fixed set of calls on inputs generated from a
fixed seed, so its counts and sizes repeat exactly from run to run, and
derives the per-layer metrics from their spans.
"""

from __future__ import annotations

import array
import contextlib
import statistics
import sys
import time
from collections import defaultdict

import inputs
from workloads import run_in_process

PUBLIC = {
    "states": ("random_pure_state", "state_pair_with_overlap", "random_instance"),
    "pair_disc": (
        "optimal_strategy", "failure_posterior", "brute_force_strategy",
        "build_povm", "neumark_model", "evolve_with_ancilla",
    ),
    "locc": (
        "global_overlap", "global_optimum", "run_protocol", "best_order", "group",
        "measurement_count_distribution",
    ),
    "montecarlo": ("simulate",),
    "cli": (
        "main", "parse_scenario", "serialize_scenario", "cmd_optimum", "cmd_protocol",
        "cmd_simulate", "cmd_order", "cmd_verify", "cmd_sweep",
    ),
}

# Span-name suffixes that split one function's spans by the size of its input.
SUFFIX = {
    "locc.run_protocol": lambda args, result: f"n{args[0].n_parties}",
    "locc.best_order": lambda args, result: f"{args[1].value}_n{args[0].n_parties}",
    "montecarlo.simulate": lambda args, result: f"{args[4].value}.t{args[2]}",
    "cli.main": lambda args, result: args[0][0],
    "cli.parse_scenario": lambda args, result: f"n{result.instance.n_parties}",
    "cli.serialize_scenario": lambda args, result: f"n{args[0].instance.n_parties}",
}

# Seed of the probe's inputs; fixed so that counts and sizes repeat exactly.
PROBE_SEED = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, array.array] = defaultdict(lambda: array.array("d"))

    def _wrap(self, name, fn):
        suffix = SUFFIX.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            key = name if suffix is None else f"{name}.{suffix(args, result)}"
            spans[key].append(elapsed)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "uqsd" or k.startswith("uqsd.")]
        patched = []
        for short, names in PUBLIC.items():
            home = sys.modules[f"uqsd.{short}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # no longer public; only metrics built on it fail
                    continue
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        patched.append((module, fname, original))
        try:
            yield self
        finally:
            for module, fname, original in patched:
                setattr(module, fname, original)

    def median(self, key: str) -> float:
        return statistics.median(self.spans[key])

    def summary(self) -> dict:
        return {
            key: {"calls": len(v), "median_s": statistics.median(v), "total_s": sum(v)}
            for key, v in sorted(self.spans.items())
        }


@contextlib.contextmanager
def counting(module, fname: str, counter: list):
    """Count calls to module.fname while the block runs."""
    original = getattr(module, fname)

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    setattr(module, fname, counted)
    try:
        yield
    finally:
        setattr(module, fname, original)


def layer_probe(cli, workdir, import_samples: list[float]) -> tuple[dict, dict]:
    """Fixed calls into every layer; returns (per-layer metrics, span summary)."""
    import numpy as np
    import uqsd.montecarlo as mc

    paths = inputs.write_scenarios(workdir, PROBE_SEED, ["deep", "order7", "explicit", "sweep"])
    tracer = Tracer()
    report_bytes = set()
    protocol_calls = set()
    with tracer.installed():
        for _ in range(2):
            before = len(tracer.spans["locc.run_protocol.n7"])
            _, out = run_in_process(cli, ["order", "--scenario", str(paths["order7"])])
            protocol_calls.add(len(tracer.spans["locc.run_protocol.n7"]) - before)
            report_bytes.add(len(out.encode("utf-8")))
        run_in_process(cli, ["verify", "--seed", str(PROBE_SEED), "--trials", "30"])
        run_in_process(cli, ["sweep", "--scenario", str(paths["sweep"])])
        for _ in range(10):
            run_in_process(cli, ["protocol", "--scenario", str(paths["explicit"])])

        deep = cli.parse_scenario(str(paths["deep"])).instance
        order = tuple(range(deep.n_parties))
        streams = [0]
        trials_run = 0
        with counting(np.random, "default_rng", streams):
            for engine in mc.Engine:
                for trials in (1, inputs.MC_TRIALS, 1, 1, inputs.MC_TRIALS, 1, 1, inputs.MC_TRIALS):
                    mc.simulate(deep, order, trials, PROBE_SEED, engine)
                    trials_run += trials
    if len(report_bytes) != 1 or len(protocol_calls) != 1:
        raise RuntimeError(f"order probe not repeatable: {report_bytes} {protocol_calls}")

    us, ms = 1e6, 1e3
    med = tracer.median
    metrics = {
        "states.random_instance_us": (us * med("states.random_instance"), "us"),
        "states.state_pair_with_overlap_us": (us * med("states.state_pair_with_overlap"), "us"),
        "pair_disc.optimal_strategy_us": (us * med("pair_disc.optimal_strategy"), "us"),
        "pair_disc.brute_force_strategy_us": (us * med("pair_disc.brute_force_strategy"), "us"),
        "pair_disc.build_povm_us": (us * med("pair_disc.build_povm"), "us"),
        "pair_disc.neumark_model_us": (us * med("pair_disc.neumark_model"), "us"),
        "locc.run_protocol_us.n3": (us * med("locc.run_protocol.n3"), "us"),
        "locc.run_protocol_us.n50": (us * med("locc.run_protocol.n50"), "us"),
        "locc.best_order_ms.exhaustive_n7": (ms * med("locc.best_order.exhaustive_n7"), "ms"),
        "locc.run_protocol_calls.order": (protocol_calls.pop(), "count"),
        "locc.group_us": (us * med("locc.group"), "us"),
    }
    for engine in mc.Engine:
        fixed = med(f"montecarlo.simulate.{engine.value}.t1")
        full = med(f"montecarlo.simulate.{engine.value}.t{inputs.MC_TRIALS}")
        metrics[f"montecarlo.simulate_fixed_ms.{engine.value}"] = (ms * fixed, "ms")
        per_trial = us * (full - fixed) / (inputs.MC_TRIALS - 1)
        metrics[f"montecarlo.trial_us.{engine.value}"] = (per_trial, "us")
    metrics["montecarlo.rng_streams_per_trial"] = (streams[0] / trials_run, "count")
    self_order = [
        main - cmd
        for main, cmd in zip(tracer.spans["cli.main.order"], tracer.spans["cli.cmd_order"])
    ]
    metrics.update({
        "cli.import_ms": (ms * statistics.median(import_samples), "ms"),
        "cli.parse_scenario_us.n50": (us * med("cli.parse_scenario.n50"), "us"),
        "cli.serialize_scenario_us.n50": (us * med("cli.serialize_scenario.n50"), "us"),
        "cli.self_ms.order": (ms * statistics.median(self_order), "ms"),
        "cli.report_bytes.order": (report_bytes.pop(), "bytes"),
    })
    return metrics, tracer.summary()
