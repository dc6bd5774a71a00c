"""Optimal conclusive discrimination of one two-hypothesis pair.

Closed-form optimum and posterior update, an independent brute-force grid
oracle, and two physical realizations of the optimal measurement: a
three-element POVM on the system alone, and a unitary on system plus an
ancilla qubit followed by projective measurements.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .states import NORM_TOL, PROB_TOL, LocalPair, Priors, PureState


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
class Povm:
    """Three-outcome measurement: identify p, identify q, or give up."""

    e_p: np.ndarray
    e_q: np.ndarray
    e_fail: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class NeumarkModel:
    """Measurement realized as a unitary on ancilla (x) system.

    The ancilla qubit starts in basis state 0.  After the unitary, a
    projective ancilla measurement distinguishes 0 (conclusive) from 1
    (inconclusive), so an evolved vector's first dim entries are the
    conclusive branch and the rest the inconclusive one.  On the conclusive
    branch the system is measured in a basis whose first two vectors are
    conclusive_basis.  On the inconclusive branch both hypotheses collapse
    onto fail_state_p2 up to the phase factor fail_phase carried by the
    second hypothesis.
    """

    unitary: np.ndarray
    conclusive_basis: tuple[PureState, PureState]
    fail_state_p2: PureState
    fail_phase: complex


def optimal_strategy(c: float, priors: Priors) -> Strategy:
    """Best conclusive-discrimination success probability for overlap c.

    Relabel the hypotheses so big = max(r, s), small = min(r, s).  If
    sqrt(small/big) >= c the optimum fails on the big-prior state with
    probability c*sqrt(small/big) and on the other with c*sqrt(big/small),
    succeeding with 1 - 2*sqrt(big*small)*c.  Otherwise the small-prior state
    is abandoned (failure probability 1), the big one fails with c^2, and the
    success probability is big*(1 - c^2).
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {c}")
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
    return Strategy(
        regime=regime,
        fail_p=fail_p,
        fail_q=fail_q,
        p_success=1.0 - p_fail,
        p_fail=p_fail,
        swapped=swapped,
    )


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
    if grid_points < 100:
        raise ValueError(f"grid_points must be at least 100, got {grid_points}")
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {c}")
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


def _orthogonal_unit(keep: np.ndarray, drop: np.ndarray) -> np.ndarray:
    # Unit vector in span{keep, drop} orthogonal to drop.
    resid = keep - drop * np.vdot(drop, keep)
    return resid / np.linalg.norm(resid)


def build_povm(pair: LocalPair, strategy: Strategy) -> Povm:
    """Three-element POVM realizing the given failure probabilities.

    e_p is proportional to the projector onto the vector orthogonal to |q>
    inside span{p, q}, scaled so <p|e_p|p> = 1 - fail_p; e_q symmetrically;
    e_fail is the completion to the identity.  e_fail is positive
    semidefinite exactly when fail_p * fail_q >= c^2.
    """
    c = pair.overlap_c
    if c >= 1.0:
        raise DegeneratePairError("identical hypothesis states admit no POVM")
    p = pair.p.amplitudes
    q = pair.q.amplitudes
    dim = pair.p.dim
    if c == 0.0:
        e_p = (1.0 - strategy.fail_p) * np.outer(p, p.conj())
        e_q = (1.0 - strategy.fail_q) * np.outer(q, q.conj())
    else:
        not_q = _orthogonal_unit(p, q)
        not_p = _orthogonal_unit(q, p)
        e_p = ((1.0 - strategy.fail_p) / (1.0 - c * c)) * np.outer(not_q, not_q.conj())
        e_q = ((1.0 - strategy.fail_q) / (1.0 - c * c)) * np.outer(not_p, not_p.conj())
    e_fail = np.eye(dim, dtype=np.complex128) - e_p - e_q
    for m in (e_p, e_q, e_fail):
        m.setflags(write=False)
    return Povm(e_p=e_p, e_q=e_q, e_fail=e_fail)


def _complete_orthonormal(*columns: np.ndarray) -> np.ndarray:
    # Extend the given orthonormal columns to a full basis.  The complete QR
    # factor of the columns is unitary, and its trailing columns span their
    # orthogonal complement; the given columns are kept exactly.
    given = np.column_stack(columns)
    q, _ = np.linalg.qr(given, mode="complete")
    return np.column_stack([given, q[:, given.shape[1] :]])


def neumark_model(pair: LocalPair, strategy: Strategy) -> NeumarkModel:
    """Unitary-plus-ancilla realization of the discrimination measurement.

    The unitary maps |0> (x) |p> (ancilla first) to
    sqrt(1-fail_p) |0>|p1> + sqrt(fail_p) |1>|p2> and analogously for |q>,
    with all four amplitudes real nonnegative; the complex phase of <p|q> is
    carried entirely by fail_phase on the second hypothesis' failure state.
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
    dim = pair.p.dim
    overlap = complex(np.vdot(pair.p.amplitudes, pair.q.amplitudes))
    fail_phase = overlap / c if c > 0.0 else 1.0 + 0.0j

    # Vectors on ancilla (x) system: ancilla state k owns entries
    # k*dim .. (k+1)*dim - 1.  The input and the conclusive branch use
    # ancilla state 0, the inconclusive branch state 1; p1 = p2 = e_0 and
    # q1 = e_1 on the system.
    total = 2 * dim
    x1 = np.zeros(total, dtype=np.complex128)
    x1[:dim] = pair.p.amplitudes
    x2 = np.zeros(total, dtype=np.complex128)
    x2[:dim] = pair.q.amplitudes
    y1 = np.zeros(total, dtype=np.complex128)
    y1[0] = alpha
    y1[dim] = beta
    y2 = np.zeros(total, dtype=np.complex128)
    y2[1] = gamma
    y2[dim] = delta * fail_phase

    v2 = _orthogonal_unit(x2, x1)  # c < 1 keeps this well defined
    w2 = _orthogonal_unit(y2, y1)
    v_basis = _complete_orthonormal(x1, v2)
    w_basis = _complete_orthonormal(y1, w2)
    unitary = w_basis @ v_basis.conj().T
    unitary.setflags(write=False)
    system_basis = np.eye(dim, dtype=np.complex128)
    p1 = PureState(dim, system_basis[0])
    q1 = PureState(dim, system_basis[1])
    return NeumarkModel(
        unitary=unitary,
        conclusive_basis=(p1, q1),
        fail_state_p2=p1,
        fail_phase=fail_phase,
    )


def evolve_with_ancilla(model: NeumarkModel, state: PureState) -> np.ndarray:
    """Apply the dilation unitary to (ancilla 0) (x) |state>."""
    return model.unitary[:, : state.dim] @ state.amplitudes
