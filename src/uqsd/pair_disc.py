"""Optimal conclusive discrimination of one two-hypothesis pair.

Closed-form optimum and posterior update, an independent brute-force grid
oracle, and two physical realizations of the optimal measurement: a
three-element POVM on the system alone, and a unitary on system plus an
ancilla qubit followed by projective measurements.  Both act only on the
two-dimensional span of the pair's states, so they are built there, as
2 x 2 and 4 x 4 matrices, with O(dim) work; the dim-sized operators are
formed only on request, by embedding.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math

import numpy as np

from .states import PROB_TOL, LocalPair, Priors, PureState, checked_integer, checked_number


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
    these coordinates, one row per hypothesis.  Only `basis`, built on first
    use, has dim entries.
    """

    pair: LocalPair
    phase: complex
    states: np.ndarray

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """The (dim, 2) array whose columns are |b0> and |b1>."""
        p, q = self.pair.p.amplitudes, self.pair.q.amplitudes
        b1 = PureState.normalized(q - p * np.vdot(p, q)).amplitudes
        basis = np.column_stack([p, b1])
        basis.setflags(write=False)
        return basis

    def embed(self, op: np.ndarray, complement: float) -> np.ndarray:
        """The dim x dim operator that acts as the 2 x 2 `op` on the span and
        as `complement` times the identity on its orthogonal complement."""
        b = self.basis
        b_dag = b.conj().T
        return b @ op @ b_dag + complement * (np.eye(len(b)) - b @ b_dag)


@dataclasses.dataclass(frozen=True, eq=False)
class Povm:
    """Three-outcome measurement: identify p, identify q, or give up.

    `elements` stacks e_p, e_q and e_fail as 2 x 2 matrices in the basis of
    `span`; on the orthogonal complement of the span the measurement always
    gives up.  `embedded` returns the dim x dim elements.
    """

    span: PairSpan
    elements: np.ndarray

    def embedded(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """e_p, e_q and e_fail as dim x dim matrices on the whole system."""
        e_p, e_q, e_fail = self.elements
        return self.span.embed(e_p, 0.0), self.span.embed(e_q, 0.0), self.span.embed(e_fail, 1.0)


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
    span the unitary is the identity; `embedded_unitary` returns it on
    ancilla (x) the whole system.
    """

    span: PairSpan
    unitary: np.ndarray

    def embedded_unitary(self) -> np.ndarray:
        """The (2 dim) x (2 dim) unitary, ancilla first."""
        blocks = self.unitary.reshape(2, 2, 2, 2)  # out ancilla, out k, in ancilla, in k
        return np.block(
            [[self.span.embed(blocks[a, :, b, :], float(a == b)) for b in (0, 1)] for a in (0, 1)]
        )


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
    swapped = priors.s > priors.r
    big, small = (priors.s, priors.r) if swapped else (priors.r, priors.s)
    if c == 0.0:
        regime = Regime.EQUAL_POSTERIOR
        fail_big = 0.0
        fail_small = 0.0
    else:
        # ratio = sqrt(small/big); big >= 1/2 so this never over/underflows.
        ratio = math.sqrt(small) / math.sqrt(big)
        if ratio >= c:
            regime = Regime.EQUAL_POSTERIOR
            fail_big = c * ratio
            fail_small = c / ratio
        else:
            regime = Regime.SATURATED
            fail_big = c * c
            fail_small = 1.0
    p_fail = big * fail_big + small * fail_small
    fail_p, fail_q = (fail_small, fail_big) if swapped else (fail_big, fail_small)
    return Strategy(regime, fail_p, fail_q, 1.0 - p_fail, p_fail, swapped)


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
    swapped = priors.s > priors.r
    big, small = (priors.s, priors.r) if swapped else (priors.r, priors.s)
    if c * c == 0.0:
        # includes subnormal c whose square underflows: the grid cannot
        # resolve failure probabilities that small and the optimum is 1
        # to machine precision anyway
        return Strategy(Regime.EQUAL_POSTERIOR, 0.0, 0.0, 1.0, 0.0, swapped)
    lo, hi = c * c, 1.0
    while True:
        bs = np.linspace(lo, hi, grid_points)
        ds = np.minimum(1.0, (c * c) / bs)
        scores = big * (1.0 - bs) + small * (1.0 - ds)
        k = int(np.argmax(scores))  # first maximum -> smallest b on ties
        step = (hi - lo) / (grid_points - 1)
        if step <= 1e-8:
            break
        lo = max(c * c, bs[k] - step)
        hi = min(1.0, bs[k] + step)
    fail_big = float(bs[k])
    fail_small = float(ds[k])
    # Classify the regime from the maximizer itself: the saturated branch is
    # the one whose small-prior failure probability is pinned at 1.
    regime = Regime.SATURATED if fail_small >= 1.0 - 1e-6 else Regime.EQUAL_POSTERIOR
    p_fail = big * fail_big + small * fail_small
    fail_p, fail_q = (fail_small, fail_big) if swapped else (fail_big, fail_small)
    return Strategy(regime, fail_p, fail_q, 1.0 - p_fail, p_fail, swapped)


def _span(pair: LocalPair) -> PairSpan:
    c = pair.overlap_c
    phase = (
        complex(np.vdot(pair.p.amplitudes, pair.q.amplitudes)) / c if c > 0.0 else 1.0 + 0.0j
    )
    states = np.array([[1.0, 0.0], [c * phase, math.sqrt(1.0 - c * c)]], dtype=np.complex128)
    states.setflags(write=False)
    return PairSpan(pair, phase, states)


def build_povm(pair: LocalPair, strategy: Strategy) -> Povm:
    """Three-element POVM realizing the given failure probabilities.

    In the span basis, e_p is (1 - fail_p) / (1 - c^2) times the projector
    onto (sqrt(1 - c^2), -conj(c * phase)), the unit vector orthogonal to
    |q>, so <p|e_p|p> = 1 - fail_p; e_q is (1 - fail_q) / (1 - c^2) times the
    projector onto |b1>, orthogonal to |p>; e_fail is the completion to the
    identity.  e_fail is positive semidefinite exactly when
    fail_p * fail_q >= c^2.  At c = 0 the elements are diagonal and, for the
    optimal strategy, e_fail is exactly 0.
    """
    c = pair.overlap_c
    if c >= 1.0:
        raise DegeneratePairError("identical hypothesis states admit no POVM")
    span = _span(pair)
    z = c * span.phase
    s = math.sqrt(1.0 - c * c)
    a = (1.0 - strategy.fail_p) / (1.0 - c * c)
    b = (1.0 - strategy.fail_q) / (1.0 - c * c)
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
    entirely by the second hypothesis' failure state.
    """
    c = pair.overlap_c
    if c >= 1.0:
        raise DegeneratePairError("identical hypothesis states admit no dilation")
    alpha = math.sqrt(max(0.0, 1.0 - strategy.fail_p))
    beta = math.sqrt(strategy.fail_p)
    gamma = math.sqrt(max(0.0, 1.0 - strategy.fail_q))
    delta = math.sqrt(strategy.fail_q)
    if abs(beta * delta - c) > PROB_TOL:
        raise InconsistentStrategyError(
            f"sqrt(fail_p * fail_q) = {beta * delta!r} but the overlap is {c!r}"
        )
    span = _span(pair)
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


def evolve_with_ancilla(model: NeumarkModel, state: PureState) -> np.ndarray:
    """Apply the dilation unitary to (ancilla 0) (x) |state> on the whole
    system; the first dim entries are the conclusive branch."""
    return model.embedded_unitary()[:, : state.dim] @ state.amplitudes
