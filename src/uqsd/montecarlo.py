"""Stochastic execution of the sequential protocol at the physical level.

Both engines compile the protocol into one outcome table: for each
non-skipped step, P(identify p, identify q, fail | truth).  The POVM engine
fills it from Born probabilities, the Neumark engine by evolving each state
with the ancilla unitary.  One vectorized sampler reads the table, drawing
trials in blocks of BLOCK rows; block b draws from the stream seeded
(seed, b).  Aggregation uses integer counters only, so results are
bit-identical regardless of how blocks are scheduled.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Sequence

import numpy as np

from .locc import run_protocol
from .pair_disc import build_povm, evolve_with_ancilla, neumark_model, optimal_strategy
from .states import NORM_TOL, InternalFaultError, ProductInstance

# Outcome probabilities below this are artifacts of float rounding on terms
# that vanish identically; zeroing them keeps impossible branches impossible.
_PROB_FLOOR = 1e-30

# Trials per block.  Block b of a run draws its (rows, 1 + steps) uniform
# matrix from np.random.default_rng((seed, b)), so the block, not the trial,
# is the unit of reproducibility.
BLOCK = 16_384

# Most uniforms drawn in one call.  Deep instances draw a block's rows in
# several calls; the generator fills rows in order, so the values are the
# same as from one call and only peak memory changes.
_DRAW_CAP = 1 << 20


class Engine(enum.Enum):
    POVM_SAMPLING = "povm"
    NEUMARK_EVOLUTION = "neumark"


# Index of the fail outcome on the table's outcome axis (identify p, identify
# q, fail); the truth axis lists p first.
_FAIL = 2


@dataclasses.dataclass(frozen=True)
class SimStats:
    trials: int
    success_rate: float
    misidentifications: int
    mean_measurements: float
    success_stderr: float


def _clipped(*values: float) -> list[float]:
    return [0.0 if v < _PROB_FLOOR else v for v in values]


def _povm_row(pair, strat) -> list[list[float]]:
    povm = build_povm(pair, strat)
    row = []
    for state in (pair.p, pair.q):
        vec = state.amplitudes
        probs = _clipped(
            *(
                max(0.0, float(np.real(np.vdot(vec, e @ vec))))
                for e in (povm.e_p, povm.e_q, povm.e_fail)
            )
        )
        total = sum(probs)
        row.append([x / total for x in probs])
    return row


def _neumark_row(pair, strat) -> list[list[float]]:
    model = neumark_model(pair, strat)
    dim = pair.p.dim
    row = []
    for state in (pair.p, pair.q):
        evolved = evolve_with_ancilla(model, state)
        conclusive, fail_block = evolved[:dim], evolved[dim:]
        weights = np.abs(conclusive) ** 2
        leaked = float(np.sum(weights[2:]))
        if not leaked < 1e-24:
            raise InternalFaultError(
                f"conclusive branch leaves span{{|p1>, |q1>}}: weight {leaked!r} outside"
            )
        p_fail, w_p1, w_q1 = _clipped(
            float(np.sum(np.abs(fail_block) ** 2)), weights[0], weights[1]
        )
        total = p_fail + w_p1 + w_q1
        p_fail /= total
        p_p1 = 0.5 if w_p1 + w_q1 == 0.0 else w_p1 / (w_p1 + w_q1)
        row.append([(1.0 - p_fail) * p_p1, (1.0 - p_fail) * (1.0 - p_p1), p_fail])
    return row


def _outcome_table(instance: ProductInstance, order: Sequence[int], engine: Engine) -> np.ndarray:
    """P(identify p, identify q, fail | truth), shape (steps, 2, 3).

    One entry per non-skipped step in visiting order; the truth axis lists
    p first.  The entries that contradict the truth are exactly 0, so no
    uniform, not even 0.0, can misidentify.
    """
    if engine is Engine.POVM_SAMPLING:
        compile_row = _povm_row
    elif engine is Engine.NEUMARK_EVOLUTION:
        compile_row = _neumark_row
    else:
        raise ValueError(f"unknown engine: {engine!r}")
    rows = []
    for rec in run_protocol(instance, order).transcript:
        if rec.skipped:
            continue
        strat = optimal_strategy(rec.local_overlap, rec.priors_before)
        rows.append(compile_row(instance.parties[rec.party_index], strat))
    table = np.array(rows, dtype=np.float64).reshape(len(rows), 2, 3)
    # P(identify q | p) and P(identify p | q): rounding residues at most.
    cross = table[:, [0, 1], [1, 0]]
    if not (cross <= NORM_TOL).all():
        raise InternalFaultError(f"outcome table misidentifies with probability {cross.max()!r}")
    table[:, [0, 1], [1, 0]] = 0.0
    return table


def _sample(table: np.ndarray, prior_r: float, u: np.ndarray):
    """Run one trial per row of the uniform matrix u, shape (n, 1 + steps).

    Column 0 picks the truth (p when below prior_r); column k picks step k's
    outcome against the cumulative thresholds of its table row.  Returns
    integer arrays (truth index, conclusion index, measurements used).
    """
    n, steps = u.shape[0], u.shape[1] - 1
    truth = (u[:, 0] >= prior_r).astype(np.intp)
    # Identify p below the first threshold, q below the second, else fail.
    # A zero entry makes an empty interval, so impossible outcomes stay
    # impossible.
    thresholds = np.cumsum(table[:, :, :2], axis=2)[:, truth].transpose(1, 0, 2)
    outcome = np.full((n, steps + 1), _FAIL, dtype=np.intp)
    outcome[:, :steps] = (u[:, 1:, None] >= thresholds).sum(axis=2)
    # The first conclusive step ends the trial; the extra last column stands
    # for running out of steps.
    ends = outcome != _FAIL
    ends[:, steps] = True
    stop = ends.argmax(axis=1)
    conclusion = outcome[np.arange(n), stop]
    used = np.minimum(stop + 1, steps)
    return truth, conclusion, used


def _tally(table: np.ndarray, prior_r: float, trials: int, seed: int) -> SimStats:
    width = 1 + len(table)
    rows_per_draw = max(1, _DRAW_CAP // width)
    # cells[truth * 3 + conclusion] counts trials per (truth, conclusion).
    cells = np.zeros(6, dtype=np.int64)
    measurements = 0
    for block, start in enumerate(range(0, trials, BLOCK)):
        rng = np.random.default_rng((seed, block))
        left = min(BLOCK, trials - start)
        while left:
            take = min(left, rows_per_draw)
            truth, conclusion, used = _sample(table, prior_r, rng.random((take, width)))
            cells += np.bincount(3 * truth + conclusion, minlength=6)
            measurements += int(used.sum())
            left -= take
    (p_p, p_q, _), (q_p, q_q, _) = cells.reshape(2, 3).tolist()
    rate = (p_p + q_q) / trials
    return SimStats(
        trials=trials,
        success_rate=rate,
        misidentifications=p_q + q_p,
        mean_measurements=measurements / trials,
        success_stderr=math.sqrt(rate * (1.0 - rate) / trials),
    )


def simulate(
    instance: ProductInstance,
    order: Sequence[int],
    trials: int,
    seed: int,
    engine: Engine,
) -> SimStats:
    """Aggregate many independent trials.

    Trials run in blocks of BLOCK; block b draws from the stream seeded
    (seed, b), so the statistics are reproducible and independent of how
    blocks would be scheduled, and a run of n trials is the first n trials
    of any longer run with the same seed.  Misidentifications are counted
    from the sampled (truth, conclusion) pairs.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    table = _outcome_table(instance, order, engine)
    return _tally(table, instance.priors.r, trials, seed)
