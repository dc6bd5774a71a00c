"""The paper's invariants measured on random instances, and the (c, r) sweep.

`verify` is the property suite; `sweep` tabulates the closed form against the
sequential protocol over a grid of global overlaps and priors.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from .locc import OrderMode, best_order, global_optimum, group, run_protocol
from .pair_disc import Regime, brute_force_strategy, optimal_strategy
from .states import Priors, ProductInstance, checked_integer, checked_number
from .states import random_instance, state_pair_with_overlap

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
    """Measure every property on `count` random cases drawn from `seed`."""
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
            - brute_force_strategy(c, priors, 300).p_success
        )
        record("closed_form_vs_oracle", dev, {"c": c, "r": r})

    # Every visiting order reproduces the joint optimum.
    for i in range(count):
        instance = random_instance(2 + i % 3, 2 + i % 2, (seed, 1, i))
        target = global_optimum(instance)
        rows = []
        best_order(instance, OrderMode.EXHAUSTIVE, table=rows)
        for perm, _, p_success in rows:
            dev = abs(p_success - target)
            record("order_invariance", dev, {"instance": instance, "order": perm})

    # Merging parties into effective parties leaves the result unchanged.
    for i in range(count):
        instance = random_instance(3, 2, (seed, 2, i))
        base = run_protocol(instance, (0, 1, 2)).p_success
        for partition in ([[0, 1], [2]], [[0], [1, 2]], [[0, 1, 2]]):
            grouped = group(instance, partition)
            dev = abs(run_protocol(grouped, tuple(range(grouped.n_parties))).p_success - base)
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
    c: float
    r: float
    regime: Regime
    p_global: float
    p_locc: float
    e_count: float


def sweep(cs: Sequence[float], rs: Sequence[float], seed: int) -> list[SweepRow]:
    """Closed form and sequential protocol over the (c, r) grid, r outermost.

    Each row's protocol column comes from a two-party instance whose local
    overlaps are both sqrt(c), so the physical path is exercised rather than
    the closed form alone.  The instance depends on c only, so it is built
    once per overlap column: column i (overlap cs[i]) draws its pairs from
    seeds (seed, i, 0) and (seed, i, 1), and every r runs the protocol on
    them with its own priors.  Rows of the first r are the same as in
    earlier versions, which drew each row k from seeds (seed, k, j); later
    rows can differ from those in the last bits.
    """
    cs = [checked_number(c, f"cs[{i}]", 0.0, 1.0) for i, c in enumerate(cs)]
    rs = [checked_number(r, f"rs[{j}]", 0.0, 1.0) for j, r in enumerate(rs)]
    seed = checked_integer(seed, "seed", 0)
    columns = [
        tuple(state_pair_with_overlap(math.sqrt(c), 2, (seed, i, j)) for j in range(2))
        for i, c in enumerate(cs)
    ]
    rows = []
    for r in rs:
        priors = Priors(r, 1.0 - r)
        for c, pairs in zip(cs, columns):
            strat = optimal_strategy(c, priors)
            result = run_protocol(ProductInstance(pairs, priors), (0, 1))
            rows.append(
                SweepRow(
                    c, r, strat.regime, strat.p_success, result.p_success,
                    result.expected_measurements,
                )
            )
    return rows
