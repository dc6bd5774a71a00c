import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsd import (
    OrderMode,
    Priors,
    ProductInstance,
    Regime,
    best_order,
    global_optimum,
    global_overlap,
    group,
    measurement_count_distribution,
    random_instance,
    run_protocol,
    state_pair_with_overlap,
)


def _abstract_instance(overlaps, r, seed=0, dim=2):
    pairs = tuple(
        state_pair_with_overlap(c, dim, (seed, i)) for i, c in enumerate(overlaps)
    )
    return ProductInstance(pairs, Priors(r, 1.0 - r))


def test_global_overlap_is_the_product():
    inst = _abstract_instance([0.5, 0.5], 0.5)
    assert abs(global_overlap(inst) - 0.25) < 1e-12
    single = _abstract_instance([0.3], 0.5)
    assert abs(global_overlap(single) - 0.3) < 1e-12
    with_zero = _abstract_instance([0.7, 0.0, 0.4], 0.5)
    assert global_overlap(with_zero) == 0.0


def test_global_optimum_known_values():
    assert abs(global_optimum(_abstract_instance([0.5, 0.5], 0.5)) - 0.75) < 1e-12
    tri = _abstract_instance([0.9, 0.5, 0.2], 0.6)
    assert abs(global_optimum(tri) - (1 - 2 * math.sqrt(0.24) * 0.09)) < 1e-12
    assert global_optimum(_abstract_instance([1.0], 0.4)) == 0.0


def test_run_protocol_bipartite_chain():
    inst = _abstract_instance([0.5, 0.5], 0.5)
    for order in ((0, 1), (1, 0)):
        result = run_protocol(inst, order)
        # first step succeeds with 1/2; the failure branch is a fresh
        # equal-prior problem with overlap 1/2 again
        assert abs(result.p_success - 0.75) < 1e-12
        assert abs(result.expected_measurements - 1.5) < 1e-12
        assert abs(result.p_success + result.p_inconclusive - 1.0) < 1e-12


def test_run_protocol_single_orthogonal_party():
    result = run_protocol(_abstract_instance([0.0], 0.5), (0,))
    assert result.p_success == 1.0
    assert result.expected_measurements == 1.0
    assert result.transcript[0].regime is Regime.EQUAL_POSTERIOR


def test_run_protocol_skips_degenerate_party():
    with_degenerate = _abstract_instance([1.0, 0.4], 0.5)
    alone = _abstract_instance([0.4], 0.5, seed=(0, 1))
    for order in ((0, 1), (1, 0)):
        result = run_protocol(with_degenerate, order)
        baseline = run_protocol(alone, (0,))
        assert abs(result.p_success - baseline.p_success) < 1e-12
        assert result.expected_measurements == 1.0
        skipped = [rec for rec in result.transcript if rec.skipped]
        assert [rec.party_index for rec in skipped] == [0]
        assert skipped[0].posterior_after_fail == skipped[0].priors_before


def test_run_protocol_orthogonal_party_ends_the_chain():
    inst = _abstract_instance([0.0, 0.6], 0.5)
    result = run_protocol(inst, (0, 1))
    assert result.p_success == 1.0
    assert result.p_inconclusive == 0.0
    # the second step is recorded but can never be reached
    assert result.expected_measurements == 1.0
    assert len(result.transcript) == 2


def test_run_protocol_rejects_bad_order():
    inst = _abstract_instance([0.5, 0.5], 0.5)
    # Nothing is coerced: (0.9, 1.2) would truncate to the valid (0, 1).
    for order in [(0, 0), (0,), (0, 1, 2), (0.9, 1.2), (True, False), ("0", "1"), 1, None]:
        with pytest.raises(ValueError, match="permutation"):
            run_protocol(inst, order)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=4),
    dim=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_every_order_attains_the_global_optimum(n, dim, seed):
    inst = random_instance(n, dim, seed)
    target = global_optimum(inst)
    for order in itertools.permutations(range(n)):
        assert abs(run_protocol(inst, order).p_success - target) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_transcript_is_self_consistent(seed):
    inst = random_instance(3, 2, seed)
    result = run_protocol(inst, (0, 1, 2))
    reach = 1.0
    total = 0.0
    for rec in result.transcript:
        if rec.skipped:
            continue
        total += reach * rec.p_conclusive_given_reached
        reach *= 1.0 - rec.p_conclusive_given_reached
        assert abs(rec.posterior_after_fail.r + rec.posterior_after_fail.s - 1.0) < 1e-12
    assert abs(total + reach - 1.0) < 1e-12
    assert abs(total - result.p_success) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_saturated_step_keeps_the_favorite_in_front(seed):
    # When a step abandons the unlikely state, failing that step must leave
    # the previously favored state at least as favored.
    inst = random_instance(4, 2, seed)
    result = run_protocol(inst, (0, 1, 2, 3))
    for rec in result.transcript:
        if rec.skipped or rec.regime is not Regime.SATURATED:
            continue
        before = rec.priors_before
        after = rec.posterior_after_fail
        if before.r >= before.s:
            assert after.r >= after.s - 1e-15
        else:
            assert after.s >= after.r - 1e-15


def test_best_order_prefers_small_overlap_first():
    inst = _abstract_instance([0.8, 0.2], 0.5)
    order, cost = best_order(inst, OrderMode.ASCENDING_OVERLAP)
    assert order == (1, 0)
    assert abs(cost - 1.2) < 1e-12
    assert abs(run_protocol(inst, (0, 1)).expected_measurements - 1.8) < 1e-12
    exh_order, exh_cost = best_order(inst, OrderMode.EXHAUSTIVE)
    assert exh_order == (1, 0)
    assert abs(exh_cost - 1.2) < 1e-12


def test_best_order_single_party():
    order, cost = best_order(_abstract_instance([0.3], 0.5), OrderMode.ASCENDING_OVERLAP)
    assert order == (0,)
    assert cost == 1.0
    order, cost = best_order(_abstract_instance([1.0], 0.5), OrderMode.EXHAUSTIVE)
    assert order == (0,)
    assert cost == 0.0


def test_best_order_exhaustive_caps_party_count():
    inst = _abstract_instance([0.1 * k for k in range(1, 10)], 0.5)
    assert inst.n_parties == 9
    with pytest.raises(ValueError):
        best_order(inst, OrderMode.EXHAUSTIVE)


def test_ascending_order_is_optimal_for_equal_priors():
    rng = np.random.default_rng(123)
    for trial in range(30):
        n = int(rng.integers(2, 6))
        overlaps = rng.random(n)
        inst = _abstract_instance(list(overlaps), 0.5, seed=(7, trial))
        _, asc_cost = best_order(inst, OrderMode.ASCENDING_OVERLAP)
        _, exh_cost = best_order(inst, OrderMode.EXHAUSTIVE)
        assert abs(asc_cost - exh_cost) < 1e-12


def test_ascending_order_breaks_ties_by_party_index():
    # reuse one pair so two parties have bitwise-equal overlaps
    tied = state_pair_with_overlap(0.4, 2, 0)
    low = state_pair_with_overlap(0.1, 2, 1)
    inst = ProductInstance((tied, tied, low), Priors(0.5, 0.5))
    order, _ = best_order(inst, OrderMode.ASCENDING_OVERLAP)
    assert order == (2, 0, 1)


def test_group_merges_overlaps_multiplicatively():
    inst = _abstract_instance([0.9, 0.5, 0.2], 0.6)
    merged = group(inst, [[0, 1], [2]])
    assert merged.n_parties == 2
    assert abs(merged.parties[0].overlap_c - 0.45) < 1e-12
    assert abs(merged.parties[1].overlap_c - 0.2) < 1e-12
    assert merged.priors == inst.priors


def test_group_invariance_of_success_probability():
    for seed in range(25):
        inst = random_instance(3, 2, seed)
        base = run_protocol(inst, (0, 1, 2)).p_success
        for partition in ([[0, 1], [2]], [[0], [1, 2]], [[0, 1, 2]], [[2], [0], [1]]):
            merged = group(inst, partition)
            got = run_protocol(merged, tuple(range(merged.n_parties))).p_success
            assert abs(got - base) < 1e-12


def test_full_grouping_reduces_to_the_joint_measurement():
    inst = random_instance(3, 2, 77)
    merged = group(inst, [[0, 1, 2]])
    assert merged.n_parties == 1
    result = run_protocol(merged, (0,))
    assert abs(result.p_success - global_optimum(inst)) < 1e-12
    assert result.expected_measurements == 1.0


def test_group_rejects_bad_partitions():
    inst = random_instance(3, 2, 5)
    with pytest.raises(ValueError):
        group(inst, [[0, 1]])  # missing index
    with pytest.raises(ValueError):
        group(inst, [[0, 1], [1, 2]])  # duplicate
    with pytest.raises(ValueError):
        group(inst, [[0, 1, 2], []])  # empty part


@pytest.mark.parametrize(
    "partition",
    [[[0.9, 1], [2]], [[True, False], [2]], [["0", "1"], ["2"]], [[], [0, 1, 2]]],
)
def test_group_rejects_non_integer_or_empty_parts(partition):
    # Entries are indices: a float, bool or str is rejected, not coerced.
    with pytest.raises(ValueError):
        group(random_instance(3, 2, 5), partition)


def test_measurement_count_distribution_bipartite():
    inst = _abstract_instance([0.5, 0.5], 0.5)
    result = run_protocol(inst, (0, 1))
    dist = dict(measurement_count_distribution(result))
    assert set(dist) == {1, 2}
    assert abs(dist[1] - 0.5) < 1e-12
    assert abs(dist[2] - 0.5) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_measurement_count_distribution_matches_expectation(seed):
    inst = random_instance(3, 3, seed)
    result = run_protocol(inst, (2, 0, 1))
    dist = measurement_count_distribution(result)
    assert abs(sum(p for _, p in dist) - 1.0) < 1e-12
    mean = sum(k * p for k, p in dist)
    assert abs(mean - result.expected_measurements) < 1e-12


def test_measurement_count_distribution_all_skipped():
    inst = _abstract_instance([1.0, 1.0], 0.5)
    result = run_protocol(inst, (0, 1))
    assert measurement_count_distribution(result) == ((0, 1.0),)
    assert result.expected_measurements == 0.0
    assert result.p_success == 0.0


def test_best_order_exhaustive_table_lists_every_order_once():
    tied = state_pair_with_overlap(0.4, 2, 0)
    low = state_pair_with_overlap(0.1, 2, 1)
    inst = ProductInstance((tied, tied, low, tied), Priors(0.3, 0.7))
    table = []
    best, cost = best_order(inst, OrderMode.EXHAUSTIVE, table=table)
    perms = list(itertools.permutations(range(4)))
    assert [row[0] for row in table] == perms
    for perm, e_count, p_success in table:
        result = run_protocol(inst, perm)
        assert (e_count, p_success) == (result.expected_measurements, result.p_success)
    # The first order, in permutation order, that reaches the minimum.
    first = next(row for row in table if row[1] == min(r[1] for r in table))
    assert (best, cost) == first[:2]
    assert best == (2, 0, 1, 3)


_EDGE_OVERLAPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
_EDGE_PRIORS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9, 0.97]),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(overlaps=st.lists(_EDGE_OVERLAPS, min_size=1, max_size=6), r=_EDGE_PRIORS)
def test_exhaustive_walk_rows_equal_run_protocol(overlaps, r):
    # The shared-prefix walk runs the same float operations in the same
    # sequence as run_protocol, so every row is bit-identical, not close.
    inst = _abstract_instance(overlaps, r)
    table = []
    best_order(inst, OrderMode.EXHAUSTIVE, table=table)
    assert [row[0] for row in table] == list(itertools.permutations(range(len(overlaps))))
    for perm, e_count, p_success in table:
        result = run_protocol(inst, perm)
        assert e_count == result.expected_measurements
        assert p_success == result.p_success


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    overlaps=st.lists(
        st.one_of(st.floats(min_value=1e-11, max_value=1e-4), st.floats(0.0, 1.0)),
        min_size=2,
        max_size=50,
    ),
    r=_EDGE_PRIORS,
)
@example(overlaps=[1e-7] * 50, r=0.3)
def test_protocol_stays_finite_when_the_global_overlap_underflows(overlaps, r):
    inst = _abstract_instance(overlaps, r)
    result = run_protocol(inst, tuple(range(inst.n_parties)))
    assert math.isfinite(result.p_success)
    assert abs(result.p_success - global_optimum(inst)) <= 1e-12


def test_underflow_example_really_underflows():
    inst = _abstract_instance([1e-7] * 50, 0.3)
    assert all(pair.overlap_c > 0.0 for pair in inst.parties)
    assert global_overlap(inst) == 0.0
