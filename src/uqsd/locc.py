"""Sequential local-measurement protocol over product multipartite instances.

Each party in turn performs its own optimal conclusive measurement with
priors conditioned on every earlier party having failed; the first conclusive
outcome ends the protocol.  The module also provides the jointly optimal
benchmark, order search, and party grouping.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .pair_disc import Regime, Strategy, failure_posterior, optimal_strategy
from .states import LocalPair, Priors, ProductInstance, PureState, checked_integer

Order = tuple[int, ...]


class OrderMode(enum.Enum):
    ASCENDING_OVERLAP = "ascending_overlap"
    EXHAUSTIVE = "exhaustive"


# Past this size the exhaustive search (a walk of sum_k n!/(n-k)! protocol steps,
# 109 600 at n = 8) stops being interactive; use the ascending heuristic instead.
EXHAUSTIVE_MAX_PARTIES = 8


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """What one party saw and did (or why it was skipped)."""

    party_index: int
    priors_before: Priors
    local_overlap: float
    regime: Regime
    p_conclusive_given_reached: float
    posterior_after_fail: Priors
    skipped: bool


@dataclasses.dataclass(frozen=True)
class ProtocolResult:
    p_success: float
    p_inconclusive: float
    expected_measurements: float
    transcript: tuple[StepRecord, ...]


def checked_order(order: Sequence[int], n: int) -> Order:
    """`order` as a tuple if it is a permutation of 0..n-1, else ValueError.

    Entries must be integers: a bool, float or str is rejected, not coerced.
    An ndarray is read as its `tolist()`.
    """
    entries = order.tolist() if isinstance(order, np.ndarray) else order
    if (
        not isinstance(entries, Sequence)
        or any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in entries)
        or sorted(entries) != list(range(n))
    ):
        raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")
    return tuple(int(i) for i in entries)


def global_overlap(instance: ProductInstance) -> float:
    """Overlap of the full product states: the product of party overlaps."""
    c = 1.0
    for pair in instance.parties:
        c *= pair.overlap_c
    return c


def global_optimum(instance: ProductInstance) -> float:
    """Best success probability of any joint measurement on all parties."""
    return optimal_strategy(global_overlap(instance), instance.priors).p_success


class _Walk(NamedTuple):
    """Protocol state after a prefix of the visiting order."""

    priors: Priors
    p_reach: float = 1.0
    p_success: float = 0.0
    expected: float = 0.0


def _step(walk: _Walk, c: float, memo: dict) -> tuple[Strategy, _Walk]:
    """One protocol step at a party of overlap c: its strategy and the new state.

    A party with overlap 1 is skipped and leaves the state unchanged; when the
    step cannot fail, later parties are unreachable and the priors are kept.
    A step's strategy and failure posterior depend on its priors and overlap
    alone, so `memo` keeps them under (r, s, c) for the next step that meets
    the same pair.  Every caller goes through here, so a walked order's
    figures are bit-identical to `run_protocol` on that order.
    """
    priors, p_reach, p_success, expected = walk
    key = (priors.r, priors.s, c)
    if (decision := memo.get(key)) is None:
        strat = optimal_strategy(c, priors)
        keep = c == 1.0 or strat.p_fail == 0.0
        decision = memo[key] = (strat, priors if keep else failure_posterior(strat, priors))
    strat, posterior = decision
    if c == 1.0:
        return strat, walk
    # p_fail = 0 leaves p_reach * p_fail = 0 exactly: later parties are unreachable.
    return strat, _Walk(
        posterior, p_reach * strat.p_fail, p_success + p_reach * strat.p_success, expected + p_reach
    )


def run_protocol(instance: ProductInstance, order: Sequence[int]) -> ProtocolResult:
    """Run the sequential protocol in the given visiting order.

    Parties whose two hypothesis states coincide (overlap 1) are skipped:
    their optimal measurement is vacuous.  A party with overlap 0 concludes
    with certainty; any remaining steps are recorded but unreachable.  The
    run computes one strategy per distinct (priors, overlap) it meets.
    """
    order = checked_order(order, instance.n_parties)
    walk = _Walk(instance.priors)
    memo: dict = {}
    records = []
    for idx in order:
        c = instance.parties[idx].overlap_c
        strat, after = _step(walk, c, memo)
        skipped = c == 1.0
        records.append(
            StepRecord(
                idx,
                walk.priors,
                c,
                strat.regime,
                0.0 if skipped else strat.p_success,
                after.priors,
                skipped=skipped,
            )
        )
        walk = after
    return ProtocolResult(
        p_success=walk.p_success,
        p_inconclusive=walk.p_reach,
        expected_measurements=walk.expected,
        transcript=tuple(records),
    )


def measurement_count_distribution(result: ProtocolResult) -> tuple[tuple[int, float], ...]:
    """Distribution of the number of measurements actually performed.

    The protocol stops at the first conclusive outcome; trials that exhaust
    every party count all non-skipped steps.
    """
    probs: dict[int, float] = {}
    reach = 1.0
    used = 0
    for rec in result.transcript:
        if rec.skipped:
            continue
        used += 1
        stop = reach * rec.p_conclusive_given_reached
        if stop > 0.0:
            probs[used] = probs.get(used, 0.0) + stop
        reach *= 1.0 - rec.p_conclusive_given_reached
    if reach > 0.0 or not probs:
        probs[used] = probs.get(used, 0.0) + reach
    return tuple(sorted(probs.items()))


def best_order(
    instance: ProductInstance, mode: OrderMode, table: list | None = None
) -> tuple[Order, float]:
    """Visiting order minimizing the expected number of measurements.

    ASCENDING_OVERLAP sorts parties by local overlap (ties by party index);
    EXHAUSTIVE evaluates all n! orders and keeps the lexicographically first
    minimizer.  It walks the order tree depth first, so each prefix is
    stepped once and shared by every order that starts with it:
    sum_k n!/(n-k)! steps in all instead of n * n!.  Like every protocol
    run, the walk keeps one strategy per distinct (priors, overlap) it
    meets, which on 5 parties is typically 10 to 40 of its 325 steps.  With
    EXHAUSTIVE, a given `table` list receives one (order,
    expected_measurements, p_success) row per order, in lexicographic order,
    each equal to `run_protocol` on that order, so callers that report every
    order walk them once.
    """
    n = instance.n_parties
    if mode is OrderMode.ASCENDING_OVERLAP:
        order = tuple(sorted(range(n), key=lambda i: (instance.parties[i].overlap_c, i)))
        return order, run_protocol(instance, order).expected_measurements
    if mode is OrderMode.EXHAUSTIVE:
        checked_integer(n, "parties in an exhaustive search", 1, EXHAUSTIVE_MAX_PARTIES)
        overlaps = [pair.overlap_c for pair in instance.parties]
        memo: dict = {}
        rows = []

        def visit(prefix: Order, remaining: Order, walk: _Walk):
            if not remaining:
                rows.append((prefix, walk.expected, walk.p_success))
            for k, idx in enumerate(remaining):
                _, after = _step(walk, overlaps[idx], memo)
                visit(prefix + (idx,), remaining[:k] + remaining[k + 1 :], after)

        visit((), tuple(range(n)), _Walk(instance.priors))
        if table is not None:
            table.extend(rows)
        # min keeps the first of equal minima: the lexicographically first order.
        best, cost, _ = min(rows, key=lambda row: row[1])
        return best, cost
    raise ValueError(f"unknown order mode: {mode!r}")


def group(instance: ProductInstance, partition: Sequence[Sequence[int]]) -> ProductInstance:
    """Merge parties into effective parties along a partition.

    Each part becomes one party whose hypothesis states are the tensor
    products of the members' states (in the listed order); the overlap of the
    merged pair is then automatically the product of member overlaps.
    """
    n = instance.n_parties
    parts = [tuple(part) for part in partition]
    if any(not part for part in parts):
        raise ValueError("partition parts must be non-empty")
    try:
        checked_order([i for part in parts for i in part], n)
    except ValueError:
        raise ValueError(f"{parts} is not a partition of 0..{n - 1}") from None
    merged = []
    for part in parts:
        p_vec = np.array([1.0], dtype=np.complex128)
        q_vec = np.array([1.0], dtype=np.complex128)
        for i in part:
            # For 1-D vectors the flattened outer product is the Kronecker product.
            p_vec = np.outer(p_vec, instance.parties[i].p.amplitudes).ravel()
            q_vec = np.outer(q_vec, instance.parties[i].q.amplitudes).ravel()
        merged.append(LocalPair(PureState.normalized(p_vec), PureState.normalized(q_vec)))
    return ProductInstance(parties=tuple(merged), priors=instance.priors)
