"""Sequential local-measurement protocol over product multipartite instances.

Each party in turn performs its own optimal conclusive measurement with
priors conditioned on every earlier party having failed; the first conclusive
outcome ends the protocol.  The module also provides the jointly optimal
benchmark, order search, and party grouping.
"""

from __future__ import annotations

__all__ = [
    "Order",
    "OrderMode",
    "StepRecord",
    "ProtocolResult",
    "EXHAUSTIVE_MAX_PARTIES",
    "global_overlap",
    "global_optimum",
    "run_protocol",
    "checked_order",
    "best_order",
    "group",
    "measurement_count_distribution",
]

import dataclasses
import enum
import math
from collections.abc import Sequence

import numpy as np

from .pair_disc import Regime, Strategy, failure_posterior, optimal_strategy
from .states import LocalPair, Priors, ProductInstance, _checked_type, _is_integer, _norm
from .states import _normalized, checked_integer

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
    """A protocol run's exact figures and what each party saw and did.

    p_success is the probability that some step concludes, p_inconclusive
    that every step fails; expected_measurements is the expected number of
    non-skipped steps reached, each of which measures once.  transcript has
    one StepRecord per party in visiting order, skipped parties included.
    """

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
        or not all(map(_is_integer, {*map(type, entries)}))
        or sorted(entries) != list(range(n))
    ):
        raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")
    return tuple(map(int, entries))


def global_overlap(instance: ProductInstance) -> float:
    """Overlap of the full product states: the product of party overlaps."""
    _checked_type(instance, "instance", ProductInstance)
    return math.prod(pair.overlap_c for pair in instance.parties)


def global_optimum(instance: ProductInstance) -> float:
    """Best success probability of any joint measurement on all parties."""
    return optimal_strategy(global_overlap(instance), instance.priors).p_success


def _start(priors: Priors) -> tuple:
    """The protocol state before the first step: see `_step`."""
    return (priors, 1.0, 0.0, 0.0)


def _step(state: tuple, c: float, memo: dict) -> tuple[Strategy, tuple]:
    """One protocol step at a party of overlap c: its strategy and the new state.

    A state is the plain tuple (priors, p_reach, p_success, expected) after a
    prefix of the visiting order: the priors given that every step so far
    failed, the probability of getting this far, the probability that some
    step so far concluded and the expected number of measurements so far.
    `_start` makes the empty prefix's state.  A party with overlap 1 is
    skipped and leaves the state unchanged; when the step cannot fail, later
    parties are unreachable and the priors are kept.  A step's strategy and
    failure posterior depend on its priors and overlap alone, so `memo`
    keeps them under (r, s, c) for the next step that meets the same pair,
    and one memo may serve any number of walks.  `run_protocol`, the
    exhaustive order walk and `_figures` all step through here, so their
    figures are bit-identical to `run_protocol` on the same order.
    """
    priors, p_reach, p_success, expected = state
    key = (priors.r, priors.s, c)
    if (decision := memo.get(key)) is None:
        strat = optimal_strategy(c, priors)
        keep = c == 1.0 or strat.p_fail == 0.0
        decision = memo[key] = (strat, priors if keep else failure_posterior(strat, priors))
    strat, posterior = decision
    if c == 1.0:
        return strat, state
    # p_fail = 0 leaves p_reach * p_fail = 0 exactly: later parties are unreachable.
    return strat, (
        posterior, p_reach * strat.p_fail, p_success + p_reach * strat.p_success, expected + p_reach
    )


def _figures(instance: ProductInstance, memo: dict) -> tuple[float, float]:
    """(p_success, expected_measurements) of the protocol in party order.

    The figures of `run_protocol(instance, range(n))` without its transcript,
    stepped the same way, so they are bit-identical to it; `memo` may be
    shared with other walks (see `_step`).
    """
    state = _start(instance.priors)
    for pair in instance.parties:
        _, state = _step(state, pair.overlap_c, memo)
    _, _, p_success, expected = state
    return p_success, expected


def run_protocol(instance: ProductInstance, order: Sequence[int]) -> ProtocolResult:
    """Run the sequential protocol in the given visiting order.

    Parties whose two hypothesis states coincide (overlap 1) are skipped:
    their optimal measurement is vacuous.  A party with overlap 0 concludes
    with certainty; any remaining steps are recorded but unreachable.  The
    run computes one strategy per distinct (priors, overlap) it meets.
    """
    _checked_type(instance, "instance", ProductInstance)
    order = checked_order(order, instance.n_parties)
    state = _start(instance.priors)
    memo: dict = {}
    records = []
    for idx in order:
        c = instance.parties[idx].overlap_c
        strat, after = _step(state, c, memo)
        skipped = c == 1.0
        records.append(
            StepRecord(
                idx,
                state[0],
                c,
                strat.regime,
                0.0 if skipped else strat.p_success,
                after[0],
                skipped=skipped,
            )
        )
        state = after
    _, p_inconclusive, p_success, expected = state
    return ProtocolResult(
        p_success=p_success,
        p_inconclusive=p_inconclusive,
        expected_measurements=expected,
        transcript=tuple(records),
    )


def measurement_count_distribution(result: ProtocolResult) -> tuple[tuple[int, float], ...]:
    """Distribution of the number of measurements actually performed.

    The protocol stops at the first conclusive outcome; trials that exhaust
    every party count all non-skipped steps.
    """
    _checked_type(result, "result", ProtocolResult)
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
    minimizer.  It walks the order tree depth first through `run_protocol`'s
    own step, so each prefix is stepped once and shared by every order that
    starts with it: sum_k n!/(n-k)! steps in all instead of n * n!, with no
    transcript built and each order's row appended by the frame that takes
    its last step.  Like every protocol run, the walk keeps one strategy per
    distinct (priors, overlap) it meets, which on 5 parties is typically 10
    to 40 of its 325 steps.  With EXHAUSTIVE, a given `table` list receives
    one (order, expected_measurements, p_success) row per order, in
    lexicographic order, each equal to `run_protocol` on that order, so
    callers that report every order walk them once; ASCENDING_OVERLAP fills
    none and refuses one.
    """
    _checked_type(instance, "instance", ProductInstance)
    _checked_type(mode, "mode", OrderMode)
    n = instance.n_parties
    if mode is OrderMode.ASCENDING_OVERLAP:
        if table is not None:
            raise ValueError("only an EXHAUSTIVE search fills a table")
        order = tuple(sorted(range(n), key=lambda i: (instance.parties[i].overlap_c, i)))
        return order, run_protocol(instance, order).expected_measurements
    checked_integer(n, "parties in an exhaustive search", 1, EXHAUSTIVE_MAX_PARTIES)
    overlaps = [pair.overlap_c for pair in instance.parties]
    memo: dict = {}
    rows = []

    def visit(prefix: Order, remaining: Order, state: tuple):
        last = len(remaining) == 1
        for k, idx in enumerate(remaining):
            _, after = _step(state, overlaps[idx], memo)
            if last:  # the order is complete: its row, here rather than one call deeper
                rows.append((prefix + (idx,), after[3], after[2]))
            else:
                visit(prefix + (idx,), remaining[:k] + remaining[k + 1 :], after)

    visit((), tuple(range(n)), _start(instance.priors))
    if table is not None:
        table.extend(rows)
    # min keeps the first of equal minima: the lexicographically first order.
    best, cost, _ = min(rows, key=lambda row: row[1])
    return best, cost


def group(instance: ProductInstance, partition: Sequence[Sequence[int]]) -> ProductInstance:
    """Merge parties into effective parties along a partition.

    Each part becomes one party whose hypothesis states are the tensor
    products of the members' states (in the listed order); the overlap of the
    merged pair is then automatically the product of member overlaps.
    """
    _checked_type(instance, "instance", ProductInstance)
    n = instance.n_parties
    parts = [tuple(part) for part in partition]
    if any(not part for part in parts):
        raise ValueError("partition parts must be non-empty")
    try:
        checked_order([i for part in parts for i in part], n)
    except ValueError:
        raise ValueError(f"{parts} is not a partition of 0..{n - 1}") from None
    merged = []
    for first, *rest in parts:
        pair = instance.parties[first]  # a one-party part keeps its pair as is
        if rest:
            p_vec, q_vec = pair.p.amplitudes, pair.q.amplitudes
            for i in rest:
                # For 1-D vectors the flattened outer product is the Kronecker product.
                p_vec = np.outer(p_vec, instance.parties[i].p.amplitudes).ravel()
                q_vec = np.outer(q_vec, instance.parties[i].q.amplitudes).ravel()
            pair = LocalPair(_normalized(p_vec, _norm(p_vec)), _normalized(q_vec, _norm(q_vec)))
        merged.append(pair)
    return ProductInstance(parties=tuple(merged), priors=instance.priors)
