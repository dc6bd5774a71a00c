"""Optimal conclusive discrimination of one two-hypothesis pair.

Closed-form optimum and posterior update, an independent brute-force grid
oracle, and two physical realizations of the optimal measurement: a
three-element POVM on the system alone, and a unitary on system plus an
ancilla qubit followed by projective measurements.  Both act only on the
two-dimensional span of the pair's states, so they are built there, as
2 x 2 and 4 x 4 matrices, with O(dim) work; no operator here has dim rows.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .states import PROB_TOL, LocalPair, Priors, checked_integer, checked_number


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
    each preparation; swapped records whether the larger-prior role belonged
    to the second hypothesis when the branch formulas were applied.
    """

    regime: Regime
    fail_p: float
    fail_q: float
    p_success: float
    p_fail: float
    swapped: bool


@dataclasses.dataclass(frozen=True, eq=False)
class PairSpan:
    """One pair's two states in an orthonormal basis of span{|p>, |q>}.

    The basis is |b0> = |p> and |b1>, the unit part of |q> orthogonal to |p>.
    In it |p> = (1, 0) and |q> = (c * phase, sqrt(1 - c^2)), where c is the
    pair's cached overlap and phase = <p|q> / c (1 when c = 0), so a pair
    whose overlap snapped to 0 is exactly orthogonal here.  `states` holds
    these coordinates, one row per hypothesis.
    """

    phase: complex
    states: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class Povm:
    """Three-outcome measurement: identify p, identify q, or give up.

    `elements` stacks e_p, e_q and e_fail as 2 x 2 matrices in the basis of
    `span`; on the orthogonal complement of the span the measurement always
    gives up.
    """

    span: PairSpan
    elements: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class NeumarkModel:
    """Measurement realized as a unitary on ancilla (x) span{|p>, |q>}.

    `unitary` is 4 x 4 with the ancilla first: entry 2a + k is ancilla state
    a times basis vector |bk> of `span`.  The ancilla qubit starts in 0.
    After the unitary, a projective ancilla measurement distinguishes 0
    (conclusive) from 1 (inconclusive).  On the conclusive branch the system
    is measured in the span basis: |b0> identifies p and |b1> identifies q.
    On the inconclusive branch both hypotheses collapse onto |b0>, the second
    up to the phase factor span.phase.  On the orthogonal complement of the
    span the unitary is the identity.
    """

    span: PairSpan
    unitary: np.ndarray


def _relabeled(solve, priors: Priors, *args) -> Strategy:
    # Relabel the hypotheses so big = max(r, s) and small = min(r, s), solve
    # for (regime, fail_big, fail_small) with solve(big, small, *args), and
    # map the failure probabilities back onto p and q.
    swapped = priors.s > priors.r
    big, small = (priors.s, priors.r) if swapped else (priors.r, priors.s)
    regime, fail_big, fail_small = solve(big, small, *args)
    p_fail = big * fail_big + small * fail_small
    fail_p, fail_q = (fail_small, fail_big) if swapped else (fail_big, fail_small)
    return Strategy(regime, fail_p, fail_q, 1.0 - p_fail, p_fail, swapped)


def optimal_strategy(c: float, priors: Priors) -> Strategy:
    """Best conclusive-discrimination success probability for overlap c.

    Relabel the hypotheses so big = max(r, s), small = min(r, s).  If
    sqrt(small/big) >= c the optimum fails on the big-prior state with
    probability c*sqrt(small/big) and on the other with c*sqrt(big/small),
    succeeding with 1 - 2*sqrt(big*small)*c.  Otherwise the small-prior state
    is abandoned (failure probability 1), the big one fails with c^2, and the
    success probability is big*(1 - c^2).
    """
    return _relabeled(_closed_form, priors, checked_number(c, "c", 0.0, 1.0))


def _closed_form(big: float, small: float, c: float) -> tuple[Regime, float, float]:
    if c == 0.0:
        return Regime.EQUAL_POSTERIOR, 0.0, 0.0
    # ratio = sqrt(small/big); big >= 1/2 so this never over/underflows.
    ratio = math.sqrt(small) / math.sqrt(big)
    if ratio >= c:
        return Regime.EQUAL_POSTERIOR, c * ratio, c / ratio
    return Regime.SATURATED, c * c, 1.0


def failure_posterior(strategy: Strategy, priors: Priors) -> Priors:
    """Updated priors conditional on the inconclusive outcome."""
    if strategy.p_fail == 0.0:
        raise ValueError("the failure branch has probability 0; no posterior exists")
    if strategy.regime is Regime.EQUAL_POSTERIOR:
        return Priors(0.5, 0.5)
    return Priors(
        priors.r * strategy.fail_p / strategy.p_fail,
        priors.s * strategy.fail_q / strategy.p_fail,
    )


def brute_force_strategy(c: float, priors: Priors, grid_points: int) -> Strategy:
    """Grid-search oracle for the optimal strategy, independent of the
    closed form.

    Maximizes big*(1-b) + small*(1-d) over b in [c^2, 1] with d = c^2 / b
    (the failure probabilities of a valid conclusive measurement satisfy
    b*d >= c^2; the optimum saturates the constraint).  The grid is refined
    around the running maximizer until its spacing is at most 1e-8.
    """
    c = checked_number(c, "c", 0.0, 1.0)
    grid_points = checked_integer(grid_points, "grid_points", 100)
    return _relabeled(_grid_search, priors, c, grid_points)


def _grid_search(big: float, small: float, c: float, points: int) -> tuple[Regime, float, float]:
    if c * c == 0.0:
        # includes subnormal c whose square underflows: the grid cannot
        # resolve failure probabilities that small and the optimum is 1
        # to machine precision anyway
        return Regime.EQUAL_POSTERIOR, 0.0, 0.0
    lo, hi = c * c, 1.0
    while True:
        bs = np.linspace(lo, hi, points)
        ds = np.minimum(1.0, (c * c) / bs)
        scores = big * (1.0 - bs) + small * (1.0 - ds)
        k = int(np.argmax(scores))  # first maximum -> smallest b on ties
        step = (hi - lo) / (points - 1)
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
    # The pair's overlap, the strategy's failure probabilities and the pair's
    # span, once a measurement on the pair can realize the strategy.
    # `realization` names what a pair of identical states admits none of.
    c = pair.overlap_c
    if c >= 1.0:
        raise DegeneratePairError(f"identical hypothesis states admit no {realization}")
    fail_p = checked_number(strategy.fail_p, "fail_p", 0.0, 1.0)
    fail_q = checked_number(strategy.fail_q, "fail_q", 0.0, 1.0)
    if fail_p * fail_q < c * c - PROB_TOL:
        raise InconsistentStrategyError(f"fail_p * fail_q = {fail_p * fail_q!r} < c^2 = {c * c!r}")
    phase = (
        complex(np.vdot(pair.p.amplitudes, pair.q.amplitudes)) / c if c > 0.0 else 1.0 + 0.0j
    )
    states = np.array([[1.0, 0.0], [c * phase, math.sqrt(1.0 - c * c)]], dtype=np.complex128)
    states.setflags(write=False)
    return c, fail_p, fail_q, PairSpan(phase, states)


def build_povm(pair: LocalPair, strategy: Strategy) -> Povm:
    """Three-element POVM realizing the given failure probabilities.

    In the span basis, e_p is (1 - fail_p) / (1 - c^2) times the projector
    onto (sqrt(1 - c^2), -conj(c * phase)), the unit vector orthogonal to
    |q>, so <p|e_p|p> = 1 - fail_p; e_q is (1 - fail_q) / (1 - c^2) times the
    projector onto |b1>, orthogonal to |p>; e_fail is the completion to the
    identity.  e_fail is positive semidefinite exactly when
    fail_p * fail_q >= c^2, so a strategy below that bound is rejected.  At
    c = 0 the elements are diagonal and, for the optimal strategy, e_fail is
    exactly 0.
    """
    c, fail_p, fail_q, span = _realizable(pair, strategy, "POVM")
    z = c * span.phase
    s = math.sqrt(1.0 - c * c)
    a = (1.0 - fail_p) / (1.0 - c * c)
    b = (1.0 - fail_q) / (1.0 - c * c)
    e_p = [[a * s * s, -a * s * z], [-a * s * z.conjugate(), a * c * c]]
    e_q = [[0.0, 0.0], [0.0, b]]
    e_fail = [[1.0 - e_p[0][0], -e_p[0][1]], [-e_p[1][0], 1.0 - e_p[1][1] - b]]
    elements = np.array([e_p, e_q, e_fail], dtype=np.complex128)
    elements.setflags(write=False)
    return Povm(span=span, elements=elements)


def neumark_model(pair: LocalPair, strategy: Strategy) -> NeumarkModel:
    """Unitary-plus-ancilla realization of the discrimination measurement.

    The unitary maps |0> (x) |p> (ancilla first) to
    y1 = sqrt(1-fail_p) |0>|b0> + sqrt(fail_p) |1>|b0> and |0> (x) |q> to
    y2 = sqrt(1-fail_q) |0>|b1> + sqrt(fail_q) phase |1>|b0>, with all four
    square roots real nonnegative; the complex phase of <p|q> is carried
    entirely by the second hypothesis' failure state.  It needs
    sqrt(fail_p * fail_q) = c.
    """
    c, fail_p, fail_q, span = _realizable(pair, strategy, "dilation")
    alpha, beta = math.sqrt(1.0 - fail_p), math.sqrt(fail_p)
    gamma, delta = math.sqrt(1.0 - fail_q), math.sqrt(fail_q)
    if abs(beta * delta - c) > PROB_TOL:
        raise InconsistentStrategyError(
            f"sqrt(fail_p * fail_q) = {beta * delta!r} but the overlap is {c!r}"
        )
    phase = span.phase
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
    return NeumarkModel(span=span, unitary=unitary)

