"""Optimal conclusive discrimination of one two-hypothesis pair.

Closed-form optimum and posterior update, an independent brute-force grid
oracle, and two physical realizations of the optimal measurement: a
three-element POVM on the system alone, and a unitary on system plus an
ancilla qubit followed by projective measurements.  Both act only on the
two-dimensional span of the pair's states, so they are built there, with
O(dim) work, and returned as read-only arrays: the POVM as its (3, 2, 2)
elements, the dilation as its 4 x 4 unitary.  Both are written in one basis
of the span, |b0> = |p> and |b1>, the unit part of |q> orthogonal to |p>; no
operator here has dim rows.
"""

from __future__ import annotations

__all__ = [
    "Regime",
    "Strategy",
    "DegeneratePairError",
    "InconsistentStrategyError",
    "optimal_strategy",
    "failure_posterior",
    "brute_force_strategy",
    "build_povm",
    "neumark_model",
]

import dataclasses
import enum
import math

import numpy as np

from .states import NORM_TOL, PROB_TOL, InternalFaultError, LocalPair, Priors, _checked_type
from .states import checked_number


class Regime(enum.Enum):
    """Which branch of the optimal failure-probability tradeoff is active.

    EQUAL_POSTERIOR: both hypotheses can fail with probability < 1; an
    inconclusive outcome leaves them equally likely.  Active when
    sqrt(min_prior / max_prior) >= overlap (boundary included).
    SATURATED: the less likely hypothesis is never identified (its failure
    probability is pinned at 1) and the other fails with probability c^2.
    """

    EQUAL_POSTERIOR = "equal_posterior"
    SATURATED = "saturated"


class DegeneratePairError(ValueError):
    """The two hypothesis states coincide; no measurement can separate them."""


class InconsistentStrategyError(ValueError):
    """Failure probabilities violate the constraint fail_p * fail_q = c^2."""


@dataclasses.dataclass(frozen=True)
class Strategy:
    """Optimal (or candidate) failure probabilities for one pair.

    fail_p and fail_q are the probabilities of the inconclusive outcome given
    each preparation.
    """

    regime: Regime
    fail_p: float
    fail_q: float
    p_success: float
    p_fail: float


def _relabeled(solve, r: float, s: float, *args) -> tuple[Regime, float, float, float, float]:
    # Relabel the hypotheses so big = max(r, s) and small = min(r, s), solve
    # for (regime, fail_big, fail_small) with solve(big, small, *args), and
    # map the failure probabilities back onto p and q: a Strategy's fields.
    swapped = s > r
    big, small = (s, r) if swapped else (r, s)
    regime, fail_big, fail_small = solve(big, small, *args)
    p_fail = big * fail_big + small * fail_small
    fail_p, fail_q = (fail_small, fail_big) if swapped else (fail_big, fail_small)
    return regime, fail_p, fail_q, 1.0 - p_fail, p_fail


def optimal_strategy(c: float, priors: Priors) -> Strategy:
    """Best conclusive-discrimination success probability for overlap c.

    Relabel the hypotheses so big = max(r, s), small = min(r, s).  If
    sqrt(small/big) >= c the optimum fails on the big-prior state with
    probability c*sqrt(small/big) and on the other with c*sqrt(big/small),
    succeeding with 1 - 2*sqrt(big*small)*c.  Otherwise the small-prior state
    is abandoned (failure probability 1), the big one fails with c^2, and the
    success probability is big*(1 - c^2).
    """
    c = checked_number(c, "c", 0.0, 1.0)
    _checked_type(priors, "priors", Priors)
    return Strategy(*_relabeled(_closed_form, priors.r, priors.s, c))


def _closed_form(big: float, small: float, c: float) -> tuple[Regime, float, float]:
    if c == 0.0:
        return Regime.EQUAL_POSTERIOR, 0.0, 0.0
    # ratio = sqrt(small/big); big >= 1/2 so this never over/underflows.
    ratio = math.sqrt(small) / math.sqrt(big)
    if ratio >= c:
        return Regime.EQUAL_POSTERIOR, c * ratio, c / ratio
    return Regime.SATURATED, c * c, 1.0


def _posterior(r: float, s: float, regime: Regime, fail_p: float, fail_q: float, p_fail: float):
    # The priors (r, s) conditioned on the inconclusive outcome of a strategy
    # whose p_fail > 0, as two floats; a pair that is no distribution is a fault.
    if regime is Regime.EQUAL_POSTERIOR:
        return 0.5, 0.5
    post_r, post_s = r * fail_p / p_fail, s * fail_q / p_fail
    in_range = 0.0 <= post_r <= 1.0 and 0.0 <= post_s <= 1.0
    if not (in_range and abs(post_r + post_s - 1.0) <= NORM_TOL):  # NaN fails both
        raise InternalFaultError(f"failure posterior ({post_r!r}, {post_s!r}) is no distribution")
    return post_r, post_s


def failure_posterior(strategy: Strategy, priors: Priors) -> Priors:
    """Updated priors conditional on the inconclusive outcome."""
    _checked_type(strategy, "strategy", Strategy)
    _checked_type(priors, "priors", Priors)
    if strategy.p_fail == 0.0:
        raise ValueError("the failure branch has probability 0; no posterior exists")
    fields = strategy.regime, strategy.fail_p, strategy.fail_q, strategy.p_fail
    return Priors(*_posterior(priors.r, priors.s, *fields))


def _decision(c: float, r: float, s: float) -> tuple[Regime, float, float, float, float]:
    """One party's optimal step in plain floats: (regime, p_success, p_fail, post_r, post_s).

    Bit for bit the fields of `optimal_strategy(c, Priors(r, s))` and of
    `failure_posterior` on them: the relabelled closed form (`_relabeled`)
    and the posterior (`_posterior`) each have one home, which the two
    public functions wrap too.  A step that is skipped (c = 1) or cannot
    fail keeps the priors (r, s) as its posterior.  No argument is checked:
    the protocol step calls this on values it made.
    """
    regime, fail_p, fail_q, p_success, p_fail = _relabeled(_closed_form, r, s, c)
    if c == 1.0 or p_fail == 0.0:
        return regime, p_success, p_fail, r, s
    return regime, p_success, p_fail, *_posterior(r, s, regime, fail_p, fail_q, p_fail)


def brute_force_strategy(c: float, priors: Priors) -> Strategy:
    """Grid-search oracle for the optimal strategy, independent of the
    closed form.

    Maximizes big*(1-b) + small*(1-d) over b in [c^2, 1] with d = c^2 / b
    (the failure probabilities of a valid conclusive measurement satisfy
    b*d >= c^2; the optimum saturates the constraint).  The grid, a fixed
    number of points per pass, is refined around the running maximizer until
    its spacing is at most 1e-8.
    """
    c = checked_number(c, "c", 0.0, 1.0)
    _checked_type(priors, "priors", Priors)
    return Strategy(*_relabeled(_grid_search, priors.r, priors.s, c))


# Points per pass of the grid search.  Not a parameter: the grid is refined
# until its spacing is at most 1e-8, so this only sets how many passes that
# takes (on 900 random (c, r), p_success moved by at most 5e-15 between 100
# and 10 000 points).
_GRID_POINTS = 300
_RAMP = np.arange(_GRID_POINTS, dtype=np.float64)


def _ramp(lo: float, hi: float) -> np.ndarray:
    # np.linspace(lo, hi, _GRID_POINTS) by linspace's own arithmetic, bit for
    # bit, without its per-call overhead (most of the grid search's time).
    bs = _RAMP * ((hi - lo) / (_GRID_POINTS - 1)) + lo
    bs[-1] = hi
    return bs


def _grid_search(big: float, small: float, c: float) -> tuple[Regime, float, float]:
    if c * c == 0.0:
        # includes subnormal c whose square underflows: the grid cannot
        # resolve failure probabilities that small and the optimum is 1
        # to machine precision anyway
        return Regime.EQUAL_POSTERIOR, 0.0, 0.0
    lo, hi = c * c, 1.0
    while True:
        bs = _ramp(lo, hi)
        ds = np.minimum(1.0, (c * c) / bs)
        scores = big * (1.0 - bs) + small * (1.0 - ds)
        k = int(np.argmax(scores))  # first maximum -> smallest b on ties
        step = (hi - lo) / (_GRID_POINTS - 1)
        if step <= 1e-8:
            break
        lo = max(c * c, bs[k] - step)
        hi = min(1.0, bs[k] + step)
    fail_big = float(bs[k])
    fail_small = float(ds[k])
    # Classify the regime from the maximizer itself: the saturated branch is
    # the one whose small-prior failure probability is pinned at 1.
    regime = Regime.SATURATED if fail_small >= 1.0 - 1e-6 else Regime.EQUAL_POSTERIOR
    return regime, fail_big, fail_small


def _realizable(pair: LocalPair, strategy: Strategy, realization: str):
    # The pair's overlap and the strategy's failure probabilities, once a
    # measurement on the pair can realize the strategy.  `realization` names
    # what a pair of identical states admits none of.
    _checked_type(pair, "pair", LocalPair)
    _checked_type(strategy, "strategy", Strategy)
    c = pair.overlap_c
    if c >= 1.0:
        raise DegeneratePairError(f"identical hypothesis states admit no {realization}")
    fail_p = checked_number(strategy.fail_p, "fail_p", 0.0, 1.0)
    fail_q = checked_number(strategy.fail_q, "fail_q", 0.0, 1.0)
    if fail_p * fail_q < c * c - PROB_TOL:
        raise InconsistentStrategyError(f"fail_p * fail_q = {fail_p * fail_q!r} < c^2 = {c * c!r}")
    return c, fail_p, fail_q


def _span_states(pairs) -> np.ndarray:
    """Each pair's two states in its span basis, shape (len(pairs), 2, 2).

    Row 0 is |p> = (1, 0) and row 1 is |q> = (c * phase, sqrt(1 - c^2)),
    where c is the pair's overlap and phase its `LocalPair.phase` (1 once c
    snapped to 0, so such a pair is exactly orthogonal here).
    """
    cs = [pair.overlap_c for pair in pairs]
    rows = [[[1.0, 0.0], [c * pair.phase, math.sqrt(1.0 - c * c)]] for c, pair in zip(cs, pairs)]
    return np.array(rows, dtype=np.complex128)


def build_povm(pair: LocalPair, strategy: Strategy) -> np.ndarray:
    """Three-element POVM realizing the given failure probabilities.

    Returns the read-only (3, 2, 2) array of e_p, e_q and e_fail (identify
    p, identify q, give up) in the span basis |b0> = |p>, |b1> = the unit
    part of |q> orthogonal to |p>; on the orthogonal complement of the span
    the measurement always gives up.  e_p is (1 - fail_p) / (1 - c^2) times
    the projector onto (sqrt(1 - c^2), -conj(c * phase)), the unit vector
    orthogonal to |q>, so <p|e_p|p> = 1 - fail_p; e_q is
    (1 - fail_q) / (1 - c^2) times the projector onto |b1>, orthogonal to
    |p>; e_fail is the completion to the identity.  phase is the pair's
    `LocalPair.phase`.  e_fail is positive semidefinite exactly when
    fail_p * fail_q >= c^2, so a strategy below that bound is rejected.  At
    c = 0 the elements are diagonal and, for the optimal strategy, e_fail is
    exactly 0.
    """
    c, fail_p, fail_q = _realizable(pair, strategy, "POVM")
    z = c * pair.phase
    s = math.sqrt(1.0 - c * c)
    a = (1.0 - fail_p) / (1.0 - c * c)
    b = (1.0 - fail_q) / (1.0 - c * c)
    e_p = [[a * s * s, -a * s * z], [-a * s * z.conjugate(), a * c * c]]
    e_q = [[0.0, 0.0], [0.0, b]]
    e_fail = [[1.0 - e_p[0][0], -e_p[0][1]], [-e_p[1][0], 1.0 - e_p[1][1] - b]]
    elements = np.array([e_p, e_q, e_fail], dtype=np.complex128)
    elements.setflags(write=False)
    return elements


def neumark_model(pair: LocalPair, strategy: Strategy) -> np.ndarray:
    """Unitary-plus-ancilla realization of the discrimination measurement.

    Returns the read-only 4 x 4 unitary on ancilla (x) span{|p>, |q>}, the
    ancilla first: entry 2a + k is ancilla state a times |bk>, in the span
    basis |b0> = |p>, |b1> = the unit part of |q> orthogonal to |p>.  On
    the orthogonal complement of the span it is the identity.  The ancilla
    starts in 0; after the unitary, a projective ancilla measurement tells 0
    (conclusive) from 1 (inconclusive), and on the conclusive branch |b0>
    identifies p and |b1> identifies q.

    The unitary maps |0> (x) |p> to
    y1 = sqrt(1-fail_p) |0>|b0> + sqrt(fail_p) |1>|b0> and |0> (x) |q> to
    y2 = sqrt(1-fail_q) |0>|b1> + sqrt(fail_q) phase |1>|b0>, with all four
    square roots real nonnegative and phase the pair's `LocalPair.phase`:
    the complex phase of <p|q> is carried entirely by the second
    hypothesis' failure state.  It needs sqrt(fail_p * fail_q) = c.
    """
    c, fail_p, fail_q = _realizable(pair, strategy, "dilation")
    alpha, beta = math.sqrt(1.0 - fail_p), math.sqrt(fail_p)
    gamma, delta = math.sqrt(1.0 - fail_q), math.sqrt(fail_q)
    if abs(beta * delta - c) > PROB_TOL:
        raise InconsistentStrategyError(
            f"sqrt(fail_p * fail_q) = {beta * delta!r} but the overlap is {c!r}"
        )
    phase = pair.phase
    # |0>|b0> is |p> and |0>|b1> the unit part of |q> orthogonal to |p>, so
    # the unitary's columns are y1, the unit part w2 of y2 orthogonal to y1,
    # and a completion.  y1 and y2 lie in the first three coordinates, where
    # conj(y1 x y2) is orthogonal to both; the fourth is left alone.
    g = beta * delta * phase  # <y1|y2>, which is <p|q> up to rounding
    w2 = (-g * alpha, gamma, delta * phase - g * beta)
    w2_norm = math.sqrt(sum(abs(x) ** 2 for x in w2))
    w3 = (-beta * gamma, -alpha * delta * phase.conjugate(), alpha * gamma)
    w3_norm = math.sqrt(sum(abs(x) ** 2 for x in w3))
    unitary = np.array(
        [
            [alpha, w2[0] / w2_norm, w3[0] / w3_norm, 0.0],
            [0.0, w2[1] / w2_norm, w3[1] / w3_norm, 0.0],
            [beta, w2[2] / w2_norm, w3[2] / w3_norm, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=np.complex128,
    )
    unitary.setflags(write=False)
    return unitary
