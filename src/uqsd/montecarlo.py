"""Stochastic execution of the sequential protocol at the physical level.

Both engines compile the protocol into one outcome table: for each
non-skipped step, P(identify p, identify q, fail | truth).  The POVM engine
fills it from Born probabilities, the Neumark engine by evolving each state
with the ancilla unitary, both in the two-dimensional span of the step's
pair and for all steps at once.  One sampler reads the table as stop cells:
per truth, "step k identifies p", "step k identifies q" for every step, and
"every step failed".  Trials run in blocks of BLOCK rows; block b draws one
(rows, 2) uniform matrix from the stream seeded (seed, b), whose column 0
picks the truth and column 1 the stop cell, by inversion of that truth's
cumulative cell probabilities.  A trial thus draws two uniforms whatever
the party count.  Aggregation uses integer counters only, so results are
bit-identical regardless of how blocks are scheduled.
"""

from __future__ import annotations

__all__ = [
    "Engine",
    "SimStats",
    "simulate",
]

import dataclasses
import enum
import math
from collections.abc import Sequence

import numpy as np

from .locc import StepRecord, measurement_count_distribution, run_protocol
from .pair_disc import build_povm, neumark_model, optimal_strategy
from .states import NORM_TOL, InternalFaultError, ProductInstance, _checked_type
from .states import checked_integer

# Outcome probabilities below this are artifacts of float rounding on terms
# that vanish identically; zeroing them keeps impossible branches impossible.
_PROB_FLOOR = 1e-30

# Trials per block.  Block b of a run draws its (rows, 2) uniform matrix from
# np.random.default_rng((seed, b)), so the block, not the trial, is the unit
# of reproducibility.
BLOCK = 16_384


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
    """Sampled figures vs `analytic`.

    success_stderr is the binomial stderr sqrt(p (1 - p) / trials) at the
    analytic success probability p, as count_stderr is for the measurement
    count.  A z-score is None only if its stderr is 0, so the analytic value
    calls the outcome certain, yet the sampled figure differs.
    """

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
            f"Neumark evolution is not unitary: it changes a norm^2 by {float(gain.max())!r}"
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
    compile_steps = _born_probabilities if engine is Engine.POVM_SAMPLING else _branch_weights
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
        raise InternalFaultError(
            f"outcome table misidentifies with probability {float(cross.max())!r}"
        )
    table[:, [0, 1], [1, 0]] = 0.0
    return table


def _stop_cells(table: np.ndarray) -> np.ndarray:
    """Cumulative P(stop cell | truth), shape (2, 2 * steps + 1); row 0 is p.

    Cell 2k + o is "step k concludes o" (0 identifies p, 1 identifies q), with
    probability reach_k * table[k, truth, o], where reach_k is the product of
    the earlier steps' fail entries; the last cell is "every step failed".
    A cross entry is a cell of its own, so a nonzero one would still be
    sampled, as a misidentification.
    """
    by_truth = table.transpose(1, 0, 2)
    reach = np.ones((2, len(table) + 1))
    reach[:, 1:] = by_truth[:, :, _FAIL].cumprod(axis=1)
    concluded = reach[:, :-1, None] * by_truth[:, :, :_FAIL]
    return np.concatenate([concluded.reshape(2, -1), reach[:, -1:]], axis=1).cumsum(axis=1)


def _sample(cells: np.ndarray, prior_r: float, u: np.ndarray):
    """Truth (0 is p) and stop cell of one trial per row of u, shape (n, 2).

    Column 0 prepares p when below prior_r.  Column 1, scaled by the total of
    the truth's own cumulative row, picks the first cell whose upper end lies
    above it: a zero-width cell is never picked, and no pick passes the last
    cell.
    """
    truth = (u[:, 0] >= prior_r).astype(np.intp)
    p_cell, q_cell = (np.searchsorted(row, u[:, 1] * row[-1], side="right") for row in cells)
    return truth, np.where(truth, q_cell, p_cell)


def _tally(table: np.ndarray, prior_r: float, trials: int, seed: int) -> tuple[int, int, int]:
    """Successes, misidentifications and measurements used over `trials` trials."""
    cells = _stop_cells(table)
    width = cells.shape[1]
    counts = np.zeros(2 * width, dtype=np.int64)
    for block, start in enumerate(range(0, trials, BLOCK)):
        u = np.random.default_rng((seed, block)).random((min(BLOCK, trials - start), 2))
        truth, cell = _sample(cells, prior_r, u)
        counts += np.bincount(width * truth + cell, minlength=2 * width)
    counts = counts.reshape(2, width)
    # stopped[truth, k, conclusion] counts the trials that step k ended; they
    # used k + 1 measurements, and the trials in the last cell used them all.
    steps = len(table)
    stopped = counts[:, :-1].reshape(2, steps, 2)
    (p_p, p_q), (q_p, q_q) = stopped.sum(axis=1).tolist()
    used = stopped.sum(axis=(0, 2)) @ np.arange(1, steps + 1) + steps * counts[:, -1].sum()
    return p_p + q_q, p_q + q_p, int(used)


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

    Trials run in blocks of BLOCK; block b draws one (rows, 2) uniform
    matrix from the stream seeded (seed, b), one row per trial: the truth,
    then the stop cell.  So the statistics are reproducible and independent
    of how blocks would be scheduled, and a run of n trials is the first n
    trials of any longer run with the same seed.  Misidentifications are
    counted from the sampled (truth, stop cell) pairs.
    """
    trials = checked_integer(trials, "trials", 1)
    seed = checked_integer(seed, "seed", 0)
    _checked_type(engine, "engine", Engine)
    result = run_protocol(instance, order)
    table = _outcome_table(instance, result.transcript, engine)
    successes, misidentifications, measurements = _tally(table, instance.priors.r, trials, seed)
    rate = successes / trials
    success_stderr = math.sqrt(result.p_success * (1.0 - result.p_success) / trials)
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
