"""Stochastic execution of the sequential protocol at the physical level.

Both engines compile the protocol into one outcome table: for each
non-skipped step, P(identify p, identify q, fail | truth).  The POVM engine
fills it from Born probabilities, the Neumark engine by evolving each state
with the ancilla unitary, both in the two-dimensional span of the step's
pair and for all steps at once.  One vectorized sampler reads the table,
drawing trials in blocks of BLOCK rows; block b draws from the stream seeded
(seed, b).  Aggregation uses integer counters only, so results are
bit-identical regardless of how blocks are scheduled.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Sequence

import numpy as np

from .locc import StepRecord, measurement_count_distribution, run_protocol
from .pair_disc import build_povm, neumark_model, optimal_strategy
from .states import NORM_TOL, InternalFaultError, ProductInstance, checked_integer

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
class Analytic:
    """The exact figures a run is compared with; count_stderr is for its trials."""

    p_success: float
    expected_measurements: float
    count_stderr: float


@dataclasses.dataclass(frozen=True)
class SimStats:
    """Sampled figures vs `analytic`; a z-score is None if its stderr is 0 yet the two differ."""

    trials: int
    success_rate: float
    misidentifications: int
    mean_measurements: float
    success_stderr: float
    analytic: Analytic
    z_success: float | None
    z_measurements: float | None


def _born_probabilities(steps) -> np.ndarray:
    # <x|e|x> for each step's states x and POVM elements e, shape (steps, 2, 3).
    povms = [build_povm(pair, strat) for pair, strat in steps]
    states = np.array([povm.span.states for povm in povms])
    elements = np.array([povm.elements for povm in povms])
    return np.einsum("sti,soij,stj->sto", states.conj(), elements, states).real


def _branch_weights(steps) -> np.ndarray:
    # Weights of |0>|b0>, |0>|b1> and the ancilla-1 branch after each step's
    # unitary, shape (steps, 2, 3).  The ancilla starts in 0, so only the
    # unitary's first two columns act.
    models = [neumark_model(pair, strat) for pair, strat in steps]
    states = np.array([model.span.states for model in models])
    unitaries = np.array([model.unitary for model in models])[:, :, :2]
    weights = np.abs(np.einsum("sij,stj->sti", unitaries, states)) ** 2
    gain = np.abs(weights.sum(axis=2) - (np.abs(states) ** 2).sum(axis=2))
    if not (gain <= NORM_TOL).all():
        raise InternalFaultError(
            f"Neumark evolution is not unitary: it changes a norm^2 by {gain.max()!r}"
        )
    fail = weights[:, :, 2:].sum(axis=2, keepdims=True)
    return np.concatenate([weights[:, :, :2], fail], axis=2)


def _outcome_table(
    instance: ProductInstance, transcript: Sequence[StepRecord], engine: Engine
) -> np.ndarray:
    """P(identify p, identify q, fail | truth), shape (steps, 2, 3).

    One entry per non-skipped step of the protocol transcript, in visiting
    order; the truth axis lists p first.  The entries that contradict the
    truth are exactly 0, so no uniform, not even 0.0, can misidentify.
    """
    if engine is Engine.POVM_SAMPLING:
        compile_steps = _born_probabilities
    elif engine is Engine.NEUMARK_EVOLUTION:
        compile_steps = _branch_weights
    else:
        raise ValueError(f"unknown engine: {engine!r}")
    steps = [
        (instance.parties[rec.party_index], optimal_strategy(rec.local_overlap, rec.priors_before))
        for rec in transcript
        if not rec.skipped
    ]
    if not steps:
        return np.zeros((0, 2, 3))
    probs = compile_steps(steps)
    probs[probs < _PROB_FLOOR] = 0.0
    table = probs / probs.sum(axis=2, keepdims=True)
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
    if not steps:
        return truth, np.full(n, _FAIL, dtype=np.intp), np.zeros(n, dtype=np.intp)
    rows = np.arange(n)
    # The first step whose uniform falls below its conclusive threshold ends
    # the trial.  A zero entry makes an empty interval, so impossible
    # outcomes stay impossible.
    conclusive = table[:, :, 0] + table[:, :, 1]
    hits = u[:, 1:] < np.take(conclusive.T, truth, axis=0)
    stop = hits.argmax(axis=1)
    concluded = hits[rows, stop]
    # Only the stop step is read against its lower threshold, so a nonzero
    # cross entry would still come out as a misidentification.
    conclusion = np.where(concluded, u[rows, stop + 1] >= table[stop, truth, 0], _FAIL)
    used = np.where(concluded, stop + 1, steps)
    return truth, conclusion, used


def _tally(table: np.ndarray, prior_r: float, trials: int, seed: int) -> tuple[int, int, int]:
    """Successes, misidentifications and measurements used over `trials` trials."""
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
    return p_p + q_q, p_q + q_p, measurements


def _z_score(delta: float, stderr: float) -> float | None:
    if stderr > 0.0:
        return delta / stderr
    return 0.0 if delta == 0.0 else None


def simulate(
    instance: ProductInstance,
    order: Sequence[int],
    trials: int,
    seed: int,
    engine: Engine,
) -> SimStats:
    """Aggregate many independent trials and compare them with run_protocol.

    Trials run in blocks of BLOCK; block b draws from the stream seeded
    (seed, b), so the statistics are reproducible and independent of how
    blocks would be scheduled, and a run of n trials is the first n trials
    of any longer run with the same seed.  Misidentifications are counted
    from the sampled (truth, conclusion) pairs.
    """
    trials = checked_integer(trials, "trials", 1)
    seed = checked_integer(seed, "seed", 0)
    result = run_protocol(instance, order)
    table = _outcome_table(instance, result.transcript, engine)
    successes, misidentifications, measurements = _tally(table, instance.priors.r, trials, seed)
    rate = successes / trials
    success_stderr = math.sqrt(rate * (1.0 - rate) / trials)
    mean = measurements / trials
    dist = measurement_count_distribution(result)
    count_var = sum(k * k * p for k, p in dist) - result.expected_measurements**2
    count_stderr = math.sqrt(max(0.0, count_var) / trials)
    return SimStats(
        trials=trials,
        success_rate=rate,
        misidentifications=misidentifications,
        mean_measurements=mean,
        success_stderr=success_stderr,
        analytic=Analytic(result.p_success, result.expected_measurements, count_stderr),
        z_success=_z_score(rate - result.p_success, success_stderr),
        z_measurements=_z_score(mean - result.expected_measurements, count_stderr),
    )
