import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import uqsd.pair_disc as pair_disc
from uqsd import (
    DegeneratePairError,
    InconsistentStrategyError,
    InternalFaultError,
    LocalPair,
    Priors,
    PureState,
    Regime,
    Strategy,
    brute_force_strategy,
    build_povm,
    failure_posterior,
    inner_product,
    neumark_model,
    optimal_strategy,
    state_pair_with_overlap,
)

from _oracles import embedded_povm, embedded_unitary, evolve_with_ancilla, span_basis
from _oracles import zero_error_optimum


@pytest.mark.parametrize(
    "c,r,regime,fail_p,fail_q,p_success",
    [
        (0.5, 0.5, Regime.EQUAL_POSTERIOR, 0.5, 0.5, 0.5),
        (0.0, 0.7, Regime.EQUAL_POSTERIOR, 0.0, 0.0, 1.0),
        (0.5, 0.9, Regime.SATURATED, 0.25, 1.0, 0.675),
        (1.0, 0.3, Regime.SATURATED, 1.0, 1.0, 0.0),
    ],
)
def test_optimal_strategy_known_values(c, r, regime, fail_p, fail_q, p_success):
    strat = optimal_strategy(c, Priors(r, 1.0 - r))
    assert strat.regime is regime
    np.testing.assert_allclose(
        [strat.fail_p, strat.fail_q, strat.p_success],
        [fail_p, fail_q, p_success],
        atol=1e-15,
    )


def test_optimal_strategy_identical_states_never_distinguished():
    for r in (0.0, 0.3, 0.5, 1.0):
        assert optimal_strategy(1.0, Priors(r, 1.0 - r)).p_success == 0.0


def test_optimal_strategy_certain_preparation():
    # Only one state can occur: fail just often enough to never guess wrong.
    strat = optimal_strategy(0.4, Priors(1.0, 0.0))
    assert strat.regime is Regime.SATURATED
    np.testing.assert_allclose(strat.p_success, 1 - 0.16, atol=1e-15)


def test_optimal_strategy_rejects_bad_overlap():
    with pytest.raises(ValueError):
        optimal_strategy(1.2, Priors(0.5, 0.5))
    with pytest.raises(ValueError):
        optimal_strategy(-0.2, Priors(0.5, 0.5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    c=st.floats(min_value=0.0, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=1.0),
)
def test_optimal_strategy_invariants(c, r):
    priors = Priors(r, 1.0 - r)
    strat = optimal_strategy(c, priors)
    assert abs(strat.p_success + strat.p_fail - 1.0) < 1e-12
    assert 0.0 <= strat.p_success <= 1.0
    assert strat.fail_p * strat.fail_q >= c * c - 1e-12
    small, big = min(r, 1.0 - r), max(r, 1.0 - r)
    in_equal_regime = c == 0.0 or math.sqrt(small) / math.sqrt(big) >= c
    assert (strat.regime is Regime.EQUAL_POSTERIOR) == in_equal_regime


def test_optimal_strategy_prior_symmetry_is_exact():
    for c in (0.1, 0.37, 0.8):
        for r in (0.2, 0.5, 0.77):
            a = optimal_strategy(c, Priors(r, 1.0 - r))
            b = optimal_strategy(c, Priors(1.0 - r, r))
            assert a.p_success == b.p_success
            assert a.fail_p == b.fail_q and a.fail_q == b.fail_p


def test_optimal_strategy_monotone_in_overlap():
    # On a full grid the success probability never increases with overlap.
    for r in np.linspace(0.0, 1.0, 100):
        priors = Priors(float(r), float(1.0 - r))
        last = 1.1
        for c in np.linspace(0.0, 1.0, 100):
            p = optimal_strategy(float(c), priors).p_success
            assert 0.0 <= p <= 1.0
            assert p <= last + 1e-12
            last = p


def test_regime_boundary_formulas_coincide():
    for c in np.linspace(0.05, 0.95, 20):
        c = float(c)
        r = 1.0 / (1.0 + c * c)  # the boundary sqrt(s/r) = c
        s = 1.0 - r
        equal_branch = 1.0 - 2.0 * math.sqrt(r * s) * c
        saturated_branch = r * (1.0 - c * c)
        assert abs(equal_branch - saturated_branch) < 1e-12
        implemented = optimal_strategy(c, Priors(r, s)).p_success
        assert abs(implemented - equal_branch) < 1e-12


def test_failure_posterior_equal_regime_is_half_half():
    for c, r in [(0.3, 0.5), (0.5, 0.6), (0.2, 0.45)]:
        strat = optimal_strategy(c, Priors(r, 1.0 - r))
        assert strat.regime is Regime.EQUAL_POSTERIOR
        post = failure_posterior(strat, Priors(r, 1.0 - r))
        assert post.r == 0.5 and post.s == 0.5


def test_failure_posterior_saturated_example():
    priors = Priors(0.9, 0.1)
    strat = optimal_strategy(0.5, priors)
    post = failure_posterior(strat, priors)
    np.testing.assert_allclose([post.r, post.s], [9 / 13, 4 / 13], atol=1e-15)


def test_failure_posterior_uninformative_measurement_keeps_priors():
    priors = Priors(0.6, 0.4)
    strat = optimal_strategy(1.0, priors)
    post = failure_posterior(strat, priors)
    assert (post.r, post.s) == (0.6, 0.4)


def test_failure_posterior_rejects_certain_success():
    strat = optimal_strategy(0.0, Priors(0.5, 0.5))
    with pytest.raises(ValueError):
        failure_posterior(strat, Priors(0.5, 0.5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    c=st.floats(min_value=1e-6, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=1.0),
)
def test_failure_posterior_normalized(c, r):
    priors = Priors(r, 1.0 - r)
    strat = optimal_strategy(c, priors)
    post = failure_posterior(strat, priors)
    assert abs(post.r + post.s - 1.0) < 1e-12


def _step_by_objects(c: float, r: float) -> tuple:
    # One protocol step through the public objects: the strategy, and the
    # failure posterior unless the step is skipped (c = 1) or cannot fail.
    priors = Priors(r, 1.0 - r)
    strat = optimal_strategy(c, priors)
    post = priors if c == 1.0 or strat.p_fail == 0.0 else failure_posterior(strat, priors)
    return strat.regime, strat.p_success, strat.p_fail, post.r, post.s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c=st.floats(min_value=0.0, max_value=1.0), r=st.floats(min_value=0.0, max_value=1.0))
def test_float_step_equals_strategy_and_posterior_bit_for_bit(c, r):
    assert pair_disc._decision(c, r, 1.0 - r) == _step_by_objects(c, r)


@pytest.mark.parametrize(
    "c, r",
    [(c, r) for c in (0.0, 1.0) for r in (0.0, 0.5, 1.0)]
    + [(c, 1.0 / (1.0 + c * c)) for c in (0.05, 0.3, 0.5, 0.8, 0.95)],  # the regime boundary
)
def test_float_step_edge_cases_equal_strategy_and_posterior(c, r):
    assert pair_disc._decision(c, r, 1.0 - r) == _step_by_objects(c, r)


def test_a_posterior_that_is_no_distribution_is_an_internal_fault():
    # Only a strategy no closed form returns can get here: fail_p = 0.5 with
    # p_fail = 0.1 puts 2.5 on p.
    bad = Strategy(Regime.SATURATED, 0.5, 0.5, 0.9, 0.1)
    message = r"^failure posterior \(2\.5, 2\.5\) is no distribution$"
    with pytest.raises(InternalFaultError, match=message):
        failure_posterior(bad, Priors(0.5, 0.5))


@pytest.mark.parametrize(
    "c,r,expected",
    [(0.5, 0.5, 0.5), (0.5, 0.9, 0.675), (0.0, 0.3, 1.0)],
)
def test_brute_force_known_values(c, r, expected):
    oracle = brute_force_strategy(c, Priors(r, 1.0 - r))
    assert abs(oracle.p_success - expected) < 1e-6


# Every field of the oracle's result, pinned from the grid search when it
# still called np.linspace on every pass.
@pytest.mark.parametrize(
    "c, r, pinned",
    [
        (0.3, 0.5, (Regime.EQUAL_POSTERIOR, 0.29999999806444483, 0.30000000193555515, 0.7, 0.3)),
        (0.7, 0.2, (Regime.SATURATED, 1.0, 0.48999999999999994, 0.40800000000000003, 0.592)),
        (0.95, 0.9, (Regime.SATURATED, 0.9025, 1.0, 0.08775, 0.91225)),
        (
            0.05,
            0.6,
            (
                Regime.EQUAL_POSTERIOR, 0.04082482653092347, 0.061237247342773936,
                0.9510102051443363, 0.048989794855663654,
            ),
        ),
        (0.5, 0.99, (Regime.SATURATED, 0.25, 1.0, 0.7424999999999999, 0.2575)),
    ],
)
def test_brute_force_values_are_pinned(c, r, pinned):
    assert brute_force_strategy(c, Priors(r, 1.0 - r)) == Strategy(*pinned)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lo=st.floats(min_value=0.0, max_value=1.0), hi=st.floats(min_value=0.0, max_value=1.0))
def test_grid_ramp_is_linspace_bit_for_bit(lo, hi):
    lo, hi = sorted((lo, hi))
    # Where the spacing underflows to 0, as over [0, 5e-324], linspace scales
    # its ramp another way.  The grid search never gets there: each of its
    # intervals is one point or wider than 1e-8.
    assume(lo == hi or (hi - lo) / (pair_disc._GRID_POINTS - 1) > 0.0)
    expected = np.linspace(lo, hi, pair_disc._GRID_POINTS)
    assert pair_disc._ramp(lo, hi).tobytes() == expected.tobytes()


def test_brute_force_finds_saturated_maximizer():
    oracle = brute_force_strategy(0.5, Priors(0.9, 0.1))
    assert abs(oracle.fail_p - 0.25) < 1e-4
    assert oracle.regime is Regime.SATURATED


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    c=st.floats(min_value=0.0, max_value=1.0),
    r=st.floats(min_value=0.0, max_value=1.0),
)
def test_brute_force_agrees_with_closed_form(c, r):
    priors = Priors(r, 1.0 - r)
    assert (
        abs(
            brute_force_strategy(c, priors).p_success
            - optimal_strategy(c, priors).p_success
        )
        < 1e-6
    )


@pytest.mark.parametrize("c", [0.0, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_brute_force_relabels_like_closed_form(c, r):
    # Off the regime boundary sqrt(min(r, s) / max(r, s)) = c, with r < s,
    # r > s and r = s: the oracle must map its big/small-prior failure
    # probabilities back onto p and q exactly as the closed form does.
    priors = Priors(r, 1.0 - r)
    exact = optimal_strategy(c, priors)
    oracle = brute_force_strategy(c, priors)
    assert oracle.regime == exact.regime
    assert abs(oracle.fail_p - exact.fail_p) < 1e-6
    assert abs(oracle.fail_q - exact.fail_q) < 1e-6
    if r != 0.5:
        mirrored = Priors(1.0 - r, r)
        for a, b in [
            (exact, optimal_strategy(c, mirrored)),
            (oracle, brute_force_strategy(c, mirrored)),
        ]:
            assert (b.fail_p, b.fail_q) == (a.fail_q, a.fail_p)


def test_brute_force_maximizer_saturates_constraint():
    for c, r in [(0.3, 0.5), (0.6, 0.8), (0.9, 0.2), (0.45, 0.95)]:
        oracle = brute_force_strategy(c, Priors(r, 1.0 - r))
        assert abs(oracle.fail_p * oracle.fail_q - c * c) < 1e-7


def test_relaxed_constraint_scan_confirms_boundary_optimum():
    # Allow fail_p * fail_q > c^2 (a valid but wasteful measurement family):
    # scanning the full 2-D feasible region never beats the constrained
    # optimum, so restricting the search to the boundary curve loses nothing.
    for c, r in [(0.4, 0.5), (0.5, 0.9), (0.7, 0.35)]:
        priors = Priors(r, 1.0 - r)
        best = optimal_strategy(c, priors).p_success
        big, small = max(r, 1.0 - r), min(r, 1.0 - r)
        bs = np.linspace(c * c, 1.0, 400)
        top = -1.0
        for b in bs:
            ds = np.linspace(c * c / b, 1.0, 400)
            top = max(top, float(np.max(big * (1.0 - b) + small * (1.0 - ds))))
        assert top <= best + 1e-12
        assert top >= best - 1e-2  # the grid reaches the boundary curve


# The oracle came within 1.9e-15 of the closed form on 6 000 cases (3 000 of
# this test's draws, 3 000 with overlaps and priors near 0 and 1): a factor 5.
ZERO_ERROR_TOL = 1e-14


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    c=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    r=st.floats(min_value=0.0, max_value=1.0),
    boundary_offset=st.one_of(st.none(), st.floats(min_value=-1e-2, max_value=1e-2)),
    dim=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_closed_form_is_the_best_zero_error_povm(c, r, boundary_offset, dim, seed):
    # The oracle searches the POVM operators on the pair's own state vectors,
    # so it is compared at their overlap before LocalPair snaps it.
    pair = state_pair_with_overlap(c, dim, seed)
    assume(pair.overlap_c < 1.0)
    overlap = min(1.0, float(abs(np.vdot(pair.p.amplitudes, pair.q.amplitudes))))
    if boundary_offset is not None:
        # sqrt(s / r) = overlap (1 + offset): near the regime boundary, where a moved one shows.
        r = 1.0 / (1.0 + (overlap * (1.0 + boundary_offset)) ** 2)
    priors = Priors(r, 1.0 - r)
    best = zero_error_optimum(pair, priors.r, priors.s)
    assert abs(best - optimal_strategy(overlap, priors).p_success) <= ZERO_ERROR_TOL


def _pair_and_strategy(c, r, seed=0, dim=2):
    pair = state_pair_with_overlap(c, dim, seed)
    return pair, optimal_strategy(pair.overlap_c, Priors(r, 1.0 - r))


@pytest.mark.parametrize("c,r,dim", [(0.5, 0.5, 2), (0.5, 0.9, 2), (0.3, 0.7, 3), (0.85, 0.4, 4)])
def test_povm_invariants(c, r, dim):
    pair, strat = _pair_and_strategy(c, r, seed=13, dim=dim)
    e_p, e_q, e_fail = embedded_povm(pair, build_povm(pair, strat))
    identity = np.eye(dim)
    np.testing.assert_allclose(e_p + e_q + e_fail, identity, atol=1e-12)
    for element in (e_p, e_q, e_fail):
        assert np.min(np.linalg.eigvalsh(element)) >= -1e-12
    p, q = pair.p.amplitudes, pair.q.amplitudes
    assert abs(np.vdot(q, e_p @ q)) < 1e-12
    assert abs(np.vdot(p, e_q @ p)) < 1e-12
    # Born probabilities reproduce the strategy
    assert abs(np.real(np.vdot(p, e_p @ p)) - (1 - strat.fail_p)) < 1e-12
    assert abs(np.real(np.vdot(p, e_fail @ p)) - strat.fail_p) < 1e-12
    assert abs(np.real(np.vdot(q, e_fail @ q)) - strat.fail_q) < 1e-12


def test_povm_orthogonal_pair_is_projective():
    pair, strat = _pair_and_strategy(0.0, 0.5, seed=2)
    e_p, e_q, _ = embedded_povm(pair, build_povm(pair, strat))
    np.testing.assert_allclose(
        e_p, np.outer(pair.p.amplitudes, pair.p.amplitudes.conj()), atol=1e-12
    )
    np.testing.assert_allclose(
        e_q, np.outer(pair.q.amplitudes, pair.q.amplitudes.conj()), atol=1e-12
    )


def test_povm_saturated_regime_never_identifies_unlikely_state():
    pair, strat = _pair_and_strategy(0.5, 0.9, seed=4)
    _, e_q, _ = embedded_povm(pair, build_povm(pair, strat))
    assert strat.fail_q == 1.0
    np.testing.assert_allclose(e_q, np.zeros((2, 2)), atol=1e-12)


def test_povm_rejects_identical_pair():
    pair = state_pair_with_overlap(1.0, 2, 0)
    with pytest.raises(DegeneratePairError, match="POVM"):
        build_povm(pair, optimal_strategy(1.0, Priors(0.5, 0.5)))


@pytest.mark.parametrize("c,r,dim", [(0.5, 0.5, 2), (0.5, 0.9, 2), (0.3, 0.7, 3), (0.0, 0.5, 2)])
def test_neumark_unitarity_and_branches(c, r, dim):
    pair, strat = _pair_and_strategy(c, r, seed=21, dim=dim)
    model = neumark_model(pair, strat)
    for unitary in (model, embedded_unitary(pair, model)):
        np.testing.assert_allclose(
            unitary.conj().T @ unitary, np.eye(len(unitary)), atol=1e-12
        )
    for state, fail_prob in ((pair.p, strat.fail_p), (pair.q, strat.fail_q)):
        evolved = evolve_with_ancilla(pair, model, state)
        block = evolved[dim:]
        assert abs(np.sum(np.abs(block) ** 2) - fail_prob) < 1e-12
    # isometries preserve inner products
    ev_p = evolve_with_ancilla(pair, model, pair.p)
    ev_q = evolve_with_ancilla(pair, model, pair.q)
    assert abs(np.vdot(ev_p, ev_q) - np.vdot(pair.p.amplitudes, pair.q.amplitudes)) < 1e-12


def test_neumark_failure_states_differ_by_the_overlap_phase():
    pair, strat = _pair_and_strategy(0.6, 0.5, seed=8)
    model = neumark_model(pair, strat)
    assert abs(abs(pair.phase) - 1.0) < 1e-12
    dim = pair.p.dim
    block_p = evolve_with_ancilla(pair, model, pair.p)[dim:]
    block_q = evolve_with_ancilla(pair, model, pair.q)[dim:]
    beta = math.sqrt(strat.fail_p)
    delta = math.sqrt(strat.fail_q)
    target = span_basis(pair)[:, 0]
    np.testing.assert_allclose(block_p, beta * target, atol=1e-12)
    np.testing.assert_allclose(block_q, delta * pair.phase * target, atol=1e-12)


def test_neumark_conclusive_basis_is_orthonormal():
    pair, strat = _pair_and_strategy(0.4, 0.6, seed=3, dim=3)
    model = neumark_model(pair, strat)
    p1, q1 = span_basis(pair).T
    assert abs(np.vdot(p1, q1)) < 1e-12


def test_neumark_rejects_inconsistent_strategy():
    pair = state_pair_with_overlap(0.5, 2, 1)
    bad = Strategy(
        regime=Regime.EQUAL_POSTERIOR,
        fail_p=0.9,
        fail_q=0.9,  # product 0.81 != 0.25
        p_success=0.1,
        p_fail=0.9,
    )
    with pytest.raises(InconsistentStrategyError):
        neumark_model(pair, bad)


def test_neumark_rejects_identical_pair():
    pair = state_pair_with_overlap(1.0, 2, 0)
    with pytest.raises(DegeneratePairError, match="dilation"):
        neumark_model(pair, optimal_strategy(1.0, Priors(0.5, 0.5)))


@pytest.mark.parametrize("c,r", [(0.5, 0.5), (0.5, 0.9), (0.25, 0.65), (0.8, 0.5)])
def test_povm_and_neumark_give_identical_born_probabilities(c, r):
    pair, strat = _pair_and_strategy(c, r, seed=17, dim=3)
    elements = embedded_povm(pair, build_povm(pair, strat))
    model = neumark_model(pair, strat)
    dim = pair.p.dim
    p1, q1 = span_basis(pair).T
    for state in (pair.p, pair.q):
        vec = state.amplitudes
        evolved = evolve_with_ancilla(pair, model, state)
        conclusive = evolved[:dim]
        fail_block = evolved[dim:]
        born_povm = [float(np.real(np.vdot(vec, e @ vec))) for e in elements]
        born_model = [
            abs(np.vdot(p1, conclusive)) ** 2,
            abs(np.vdot(q1, conclusive)) ** 2,
            float(np.sum(np.abs(fail_block) ** 2)),
        ]
        np.testing.assert_allclose(born_povm, born_model, atol=1e-12)


@pytest.mark.parametrize("realize", [build_povm, neumark_model], ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "fail_p,fail_q,error,message",
    [
        (0.1, 0.1, InconsistentStrategyError, r"^fail_p \* fail_q = "),  # e_fail not PSD
        # 5e-10 below c^2 = 0.25, past NORM_TOL: e_fail has a negative eigenvalue.
        (0.5, (0.25 - 5e-10) / 0.5, InconsistentStrategyError, r"^fail_p \* fail_q = "),
        (1.5, 0.5, ValueError, r"^fail_p: expected "),  # e_p negative
        (math.nan, 0.5, ValueError, r"^fail_p: expected "),
        (0.5, -0.2, ValueError, r"^fail_q: expected "),
    ],
)
def test_realizations_reject_strategies_they_cannot_realize(
    realize, fail_p, fail_q, error, message
):
    pair = state_pair_with_overlap(0.5, 2, 1)
    bad = Strategy(Regime.EQUAL_POSTERIOR, fail_p, fail_q, 0.5, 0.5)
    with pytest.raises(error, match=message):
        realize(pair, bad)


def _span_branches(realize, pair):
    """The realization's outcome amplitudes for |p> and |q>, computed on the
    pair's span coordinates: for the POVM the square roots of its elements
    applied to each state, for the dilation the unitary applied to ancilla 0
    (x) the state, each as [identify p, identify q, fail block]."""
    states = pair_disc._span_states([pair])[0]
    matrix = realize(pair, optimal_strategy(pair.overlap_c, Priors(0.5, 0.5)))
    if realize is neumark_model:
        evolved = [matrix @ np.concatenate([x, [0.0, 0.0]]) for x in states]
        return [[y[:1], y[1:2], y[2:]] for y in evolved]
    roots = []
    for element in matrix:
        w, v = np.linalg.eigh(element)
        roots.append(v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)
    return [[root @ x for root in roots] for x in states]


@pytest.mark.parametrize("realize", [build_povm, neumark_model], ids=lambda f: f.__name__)
def test_span_states_are_the_pair_coordinates(realize):
    # span_basis(pair) @ states[k] rebuilds the pair's amplitudes: the one
    # direct link between the 2 x 2 construction and the system.  Each
    # realization, read on those coordinates, gives the strategy's outcome
    # probabilities.
    rng = np.random.default_rng(707)
    cs = [0.0, 1.0 - 1e-6, *rng.uniform(0.0, 1.0 - 1e-6, 40)]
    pairs = [
        state_pair_with_overlap(float(c), (2, 3, 5, 8, 16, 33, 64)[i % 7], (707, i))
        for i, c in enumerate(cs)
    ]
    for pair, states in zip(pairs, pair_disc._span_states(pairs), strict=True):
        basis = span_basis(pair)
        for state, coords in zip((pair.p, pair.q), states):
            np.testing.assert_allclose(basis @ coords, state.amplitudes, rtol=0, atol=1e-12)
        strat = optimal_strategy(pair.overlap_c, Priors(0.5, 0.5))
        born = [
            [float(np.sum(np.abs(branch) ** 2)) for branch in branches]
            for branches in _span_branches(realize, pair)
        ]
        expected = [
            [1.0 - strat.fail_p, 0.0, strat.fail_p],
            [0.0, 1.0 - strat.fail_q, strat.fail_q],
        ]
        np.testing.assert_allclose(born, expected, rtol=0, atol=1e-12)


def test_span_states_are_the_per_pair_coordinates_bit_for_bit():
    # One stacked table holds, bit for bit, the coordinates each pair would
    # get alone: |p> = (1, 0) and |q> = (c * phase, sqrt(1 - c^2)).
    e0 = PureState([1.0, 0.0])
    pairs = [
        LocalPair(e0, PureState.normalized([1e-13j, 1.0])),  # |<p|q>| = 1e-13 snaps to 0
        state_pair_with_overlap(1.0 - 5e-7, 3, 0),  # c within 1e-6 of 1
    ]
    rng = np.random.default_rng(909)
    pairs += [
        state_pair_with_overlap(float(rng.uniform()), int(rng.integers(2, 65)), (909, i))
        for i in range(200)
    ]
    assert pairs[0].overlap_c == 0.0 and 1.0 - 1e-6 < pairs[1].overlap_c < 1.0
    table = pair_disc._span_states(pairs)
    assert table.shape == (len(pairs), 2, 2) and table.dtype == np.complex128
    for pair, states in zip(pairs, table, strict=True):
        c, phase = pair.overlap_c, pair.phase
        alone = np.array([[1, 0], [c * phase, math.sqrt(1 - c * c)]], dtype=np.complex128)
        assert states.tobytes() == alone.tobytes()


@pytest.mark.parametrize("realize", [build_povm, neumark_model], ids=lambda f: f.__name__)
def test_span_phase_is_the_pairs_one_phase(realize):
    # A pair takes <p|q> once: its phase is <p|q> / c bit for bit, or exactly
    # 1 once c snapped to 0, and each realization carries that phase: the
    # failure branches of |p> and |q> overlap by c * phase.
    e0 = PureState([1.0, 0.0])
    pairs = [
        LocalPair(e0, PureState.normalized([1e-13j, 1.0])),  # |<p|q>| = 1e-13 snaps to 0
        LocalPair(e0, PureState([0.0, 1.0j])),
    ]
    rng = np.random.default_rng(808)
    cs = rng.uniform(0.0, 1.0 - 1e-6, 40)
    pairs += [state_pair_with_overlap(float(c), 3, (808, i)) for i, c in enumerate(cs)]
    for pair in pairs:
        if pair.overlap_c == 0.0:
            assert repr(pair.phase) == repr(1 + 0j)
        else:
            assert repr(pair.phase) == repr(inner_product(pair.p, pair.q) / pair.overlap_c)
        fail_p, fail_q = (branches[2] for branches in _span_branches(realize, pair))
        overlap = complex(np.vdot(fail_p, fail_q))
        assert abs(overlap - pair.overlap_c * pair.phase) < 1e-12


@pytest.mark.parametrize(
    "realize, shape", [(build_povm, (3, 2, 2)), (neumark_model, (4, 4))], ids=["povm", "neumark"]
)
def test_realizations_return_read_only_arrays(realize, shape):
    pair, strat = _pair_and_strategy(0.5, 0.7, seed=5, dim=3)
    matrix = realize(pair, strat)
    assert (matrix.shape, matrix.dtype) == (shape, np.complex128)
    with pytest.raises(ValueError, match="read-only"):
        matrix[0, 0] = 0.0
