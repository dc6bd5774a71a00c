"""Sequential local-measurement protocol over product multipartite instances.

Each party in turn performs its own optimal conclusive measurement with
priors conditioned on every earlier party having failed; the first conclusive
outcome ends the protocol.  The module also provides the jointly optimal
benchmark, order search, and party grouping.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from collections.abc import Sequence

import numpy as np

from .pair_disc import Regime, failure_posterior, optimal_strategy
from .states import LocalPair, Priors, ProductInstance, PureState

Order = tuple[int, ...]


class OrderMode(enum.Enum):
    ASCENDING_OVERLAP = "ascending_overlap"
    EXHAUSTIVE = "exhaustive"


# Past this size exhaustive permutation search (n! protocol runs) stops being
# interactive; callers must fall back to the ascending heuristic.
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
    """
    if (
        not isinstance(order, Sequence)
        or any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in order)
        or sorted(order) != list(range(n))
    ):
        raise ValueError(f"{order!r} is not a permutation of 0..{n - 1}")
    return tuple(int(i) for i in order)


def global_overlap(instance: ProductInstance) -> float:
    """Overlap of the full product states: the product of party overlaps."""
    c = 1.0
    for pair in instance.parties:
        c *= pair.overlap_c
    return c


def global_optimum(instance: ProductInstance) -> float:
    """Best success probability of any joint measurement on all parties."""
    return optimal_strategy(global_overlap(instance), instance.priors).p_success


def run_protocol(instance: ProductInstance, order: Sequence[int]) -> ProtocolResult:
    """Run the sequential protocol in the given visiting order.

    Parties whose two hypothesis states coincide (overlap 1) are skipped:
    their optimal measurement is vacuous.  A party with overlap 0 concludes
    with certainty; any remaining steps are recorded but unreachable.
    """
    order = checked_order(order, instance.n_parties)
    priors = instance.priors
    p_reach = 1.0
    p_success = 0.0
    expected = 0.0
    records = []
    for idx in order:
        pair = instance.parties[idx]
        c = pair.overlap_c
        strat = optimal_strategy(c, priors)
        if c == 1.0:
            records.append(
                StepRecord(idx, priors, c, strat.regime, 0.0, priors, skipped=True)
            )
            continue
        expected += p_reach
        p_success += p_reach * strat.p_success
        if strat.p_fail == 0.0:
            posterior = priors  # failure branch unreachable; keep priors for the record
            p_reach = 0.0
        else:
            posterior = failure_posterior(strat, priors)
            p_reach *= strat.p_fail
        records.append(
            StepRecord(idx, priors, c, strat.regime, strat.p_success, posterior, skipped=False)
        )
        priors = posterior
    return ProtocolResult(
        p_success=p_success,
        p_inconclusive=p_reach,
        expected_measurements=expected,
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
    minimizer.  With EXHAUSTIVE, a given `table` list receives one
    (order, expected_measurements, p_success) row per order, in
    lexicographic order, so callers that report every order walk them once.
    """
    n = instance.n_parties
    if mode is OrderMode.ASCENDING_OVERLAP:
        order = tuple(sorted(range(n), key=lambda i: (instance.parties[i].overlap_c, i)))
        return order, run_protocol(instance, order).expected_measurements
    if mode is OrderMode.EXHAUSTIVE:
        if n > EXHAUSTIVE_MAX_PARTIES:
            raise ValueError(
                f"exhaustive search over {n}! orders refused; max is {EXHAUSTIVE_MAX_PARTIES}"
            )

        def rows():
            for perm in itertools.permutations(range(n)):
                result = run_protocol(instance, perm)
                row = (perm, result.expected_measurements, result.p_success)
                if table is not None:
                    table.append(row)
                yield row

        # min keeps the first of equal minima: the lexicographically first order.
        best, cost, _ = min(rows(), key=lambda row: row[1])
        return best, cost
    raise ValueError(f"unknown order mode: {mode!r}")


def group(instance: ProductInstance, partition: Sequence[Sequence[int]]) -> ProductInstance:
    """Merge parties into effective parties along a partition.

    Each part becomes one party whose hypothesis states are the tensor
    products of the members' states (in the listed order); the overlap of the
    merged pair is then automatically the product of member overlaps.
    """
    n = instance.n_parties
    parts = [tuple(int(i) for i in part) for part in partition]
    if any(not part for part in parts):
        raise ValueError("partition parts must be non-empty")
    flat = [i for part in parts for i in part]
    if sorted(flat) != list(range(n)):
        raise ValueError(f"{parts} is not a partition of 0..{n - 1}")
    merged = []
    for part in parts:
        p_vec = np.array([1.0], dtype=np.complex128)
        q_vec = np.array([1.0], dtype=np.complex128)
        for i in part:
            p_vec = np.kron(p_vec, instance.parties[i].p.amplitudes)
            q_vec = np.kron(q_vec, instance.parties[i].q.amplitudes)
        merged.append(
            LocalPair.from_states(PureState.normalized(p_vec), PureState.normalized(q_vec))
        )
    return ProductInstance(parties=tuple(merged), priors=instance.priors)
