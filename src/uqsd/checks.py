"""The paper's invariants measured on random instances, and the (c, r) sweep.

`verify` is the property suite; `sweep` tabulates the closed form against the
sequential protocol over a grid of global overlaps and priors.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .locc import OrderMode, _figures, best_order, global_optimum, group, run_protocol
from .pair_disc import Regime, brute_force_strategy, optimal_strategy
from .states import Priors, checked_integer, checked_number, random_instance

# Largest deviation each property may show and still pass.
TOLERANCES = {
    "closed_form_vs_oracle": 1e-6,
    "order_invariance": 1e-12,
    "grouping_invariance": 1e-12,
    "boundary_formula_gap": 1e-12,
    "boundary_perturbation": 1e-7,
}


@dataclasses.dataclass(frozen=True)
class Verification:
    """Per property: max_deviation, tolerance, pass and, if it fails, the worst case.

    The worst case holds what reproduces it: a (c, r) point, or a
    ProductInstance with the order or partition that deviated.
    """

    seed: int
    count: int
    properties: dict[str, dict]
    all_pass: bool


def verify(seed: int, count: int) -> Verification:
    """Measure every property on `count` random cases drawn from `seed`.

    Each property draws its cases in turn from one stream of its own:
    `default_rng((seed, 0))` the (c, r) points of closed_form_vs_oracle,
    `(seed, 1)` the instances of order_invariance, `(seed, 2)` those of
    grouping_invariance and `(seed, 3)` the boundary points of
    boundary_formula_gap and boundary_perturbation.
    """
    seed = checked_integer(seed, "seed", 0)
    count = checked_integer(count, "count", 1)
    # Largest deviation per property and the first case that showed it.
    worst: dict[str, tuple] = {}

    def record(name: str, deviation: float, case: dict):
        if name not in worst or deviation > worst[name][0]:
            worst[name] = deviation, case

    # Closed form vs independent grid oracle over random (c, r).
    rng = np.random.default_rng((seed, 0))
    for _ in range(count):
        c = float(rng.random())
        r = float(rng.random())
        priors = Priors(r, 1.0 - r)
        dev = abs(
            optimal_strategy(c, priors).p_success
            - brute_force_strategy(c, priors).p_success
        )
        record("closed_form_vs_oracle", dev, {"c": c, "r": r})

    # Every visiting order reproduces the joint optimum.
    rng = np.random.default_rng((seed, 1))
    for i in range(count):
        instance = random_instance(2 + i % 3, 2 + i % 2, rng)
        target = global_optimum(instance)
        rows = []
        best_order(instance, OrderMode.EXHAUSTIVE, table=rows)
        devs = [abs(row["p_success"] - target) for row in rows]
        k = devs.index(max(devs))  # the first row of largest deviation, as `record` keeps it
        record("order_invariance", devs[k], {"instance": instance, "order": rows[k]["order"]})

    # Merging parties into effective parties leaves the result unchanged.
    # Each grouped run is `_figures` on the merged overlaps, which steps like
    # `run_protocol` without its transcript, so its p_success is
    # bit-identical to `run_protocol` on the grouped instance; one step memo
    # serves the whole loop, as in `sweep`.
    rng = np.random.default_rng((seed, 2))
    memo: dict = {}
    for _ in range(count):
        instance = random_instance(3, 2, rng)
        base = run_protocol(instance, (0, 1, 2)).p_success
        for partition in ([[0, 1], [2]], [[0], [1, 2]], [[0, 1, 2]]):
            grouped = group(instance, partition)
            overlaps = [pair.overlap_c for pair in grouped.parties]
            dev = abs(_figures(grouped.priors, overlaps, memo)[0] - base)
            record("grouping_invariance", dev, {"instance": instance, "partition": partition})

    # Both closed-form branches meet at the regime boundary...
    rng = np.random.default_rng((seed, 3))
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
        record("boundary_formula_gap", gap, {"c": c, "r": r})
        # ... and crossing it changes the output only infinitesimally.
        above = optimal_strategy(c, Priors(r + delta, s - delta)).p_success
        below = optimal_strategy(c, Priors(r - delta, s + delta)).p_success
        record("boundary_perturbation", abs(above - below), {"c": c, "r": r})

    properties = {}
    for name, (deviation, case) in worst.items():
        passed = bool(deviation <= TOLERANCES[name])
        entry = {"max_deviation": deviation, "tolerance": TOLERANCES[name], "pass": passed}
        if not passed:
            entry["worst"] = case
        properties[name] = entry
    return Verification(seed, count, properties, all(e["pass"] for e in properties.values()))


@dataclasses.dataclass(frozen=True)
class SweepRow:
    """One (c, r) cell of `sweep`: the closed form against the protocol.

    regime and p_global are the closed form's at overlap c and priors
    (r, 1 - r); p_locc and e_count are the success probability and expected
    measurement count of the two-party protocol whose local overlaps are
    both sqrt(c).
    """

    c: float
    r: float
    regime: Regime
    p_global: float
    p_locc: float
    e_count: float


def sweep(cs: Sequence[float], rs: Sequence[float]) -> list[SweepRow]:
    """Closed form and sequential protocol over the (c, r) grid, r outermost.

    Each row's protocol column is a two-party protocol whose local overlaps
    are both sqrt(c), exactly: the local optimum depends on a party's overlap
    alone, so the sweep builds no states and reads no seed.  Every cell hands
    its own priors and the overlaps [sqrt(c), sqrt(c)] to `locc._figures`,
    which steps like `run_protocol` but builds no instance and no transcript.
    One step memo serves the whole grid: an entry depends on (c, r, s) alone,
    so every row is bit-identical to `run_protocol` on an instance of its
    cell's priors whose two parties have overlap sqrt(c).
    """
    cs = [checked_number(c, f"cs[{i}]", 0.0, 1.0) for i, c in enumerate(cs)]
    rs = [checked_number(r, f"rs[{j}]", 0.0, 1.0) for j, r in enumerate(rs)]
    columns = [(math.sqrt(c),) * 2 for c in cs]
    memo: dict = {}
    rows = []
    for r in rs:
        priors = Priors(r, 1.0 - r)
        for c, column in zip(cs, columns):
            strat = optimal_strategy(c, priors)
            p_locc, e_count = _figures(priors, column, memo)
            rows.append(SweepRow(c, r, strat.regime, strat.p_success, p_locc, e_count))
    return rows
