import collections.abc
import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqsd import (
    Engine,
    OrderMode,
    Priors,
    ProductInstance,
    Regime,
    best_order,
    checked_order,
    global_optimum,
    global_overlap,
    group,
    measurement_count_distribution,
    optimal_strategy,
    random_instance,
    run_protocol,
    simulate,
    state_pair_with_overlap,
)

from _oracles import decimal_protocol


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


class _PlainSequence(collections.abc.Sequence):
    """The entries of an order in a Sequence type that is no tuple, list or range."""

    def __init__(self, order):
        self.order, self.entries = order, list(order)

    def __getitem__(self, k):
        return self.entries[k]

    def __len__(self):
        return len(self.entries)

    def __repr__(self):  # so that both error texts quote the same order
        return repr(self.order)


@pytest.mark.parametrize(
    "order, n, want",
    [
        ((0, True), 2, None),
        ((1, 1), 2, None),
        ((0, 2), 2, None),
        ((0, 1, 2), 2, None),
        ([1.0, 0], 2, None),
        (range(3), 3, (0, 1, 2)),
        ([2, 0, 1], 3, (2, 0, 1)),
        ((np.int64(1), np.int64(0)), 2, (1, 0)),
        ([np.int64(2), 0, np.int64(1)], 3, (2, 0, 1)),
    ],
    ids=["bool", "repeat", "out-of-range", "wrong-length", "float", "range", "list", "int64",
         "mixed-int64"],
)
def test_checked_order_does_not_depend_on_the_sequence_type(order, n, want):
    def outcome(value):
        try:
            return checked_order(value, n)
        except ValueError as exc:
            return str(exc)

    plain, general = outcome(order), outcome(_PlainSequence(order))
    assert plain == general
    if want is None:
        assert plain == f"{order!r} is not a permutation of 0..{n - 1}"
    else:
        assert plain == want and all(type(i) is int for i in plain)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.intp])
def test_integer_arrays_are_orders(dtype):
    inst = _abstract_instance([0.5, 0.7, 0.3], 0.4)
    order = np.array([2, 0, 1], dtype=dtype)
    assert checked_order(order, 3) == (2, 0, 1)
    assert run_protocol(inst, order) == run_protocol(inst, (2, 0, 1))
    for engine in Engine:
        assert simulate(inst, order, 500, 3, engine) == simulate(inst, (2, 0, 1), 500, 3, engine)


@pytest.mark.parametrize(
    "order",
    [
        np.array([2.0, 0.0, 1.0]),
        np.array([True, False, True]),
        np.array([[2, 0, 1]]),
        np.array([0, 1, 1]),
        np.array([0, 1]),
        np.array(["2", "0", "1"]),
        np.array(0),
    ],
    ids=["float", "bool", "2-d", "repeat", "short", "str", "0-d"],
)
def test_other_arrays_are_not_orders(order):
    inst = _abstract_instance([0.5, 0.7, 0.3], 0.4)
    message = f"{order!r} is not a permutation of 0..2"
    for call in (
        lambda: checked_order(order, 3),
        lambda: run_protocol(inst, order),
        lambda: simulate(inst, order, 500, 3, Engine.POVM_SAMPLING),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


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
    assert [row["order"] for row in table] == perms
    for row in table:
        result = run_protocol(inst, row["order"])
        assert (row["expected_measurements"], row["p_success"]) == (
            result.expected_measurements,
            result.p_success,
        )
    # The first order, in permutation order, that reaches the minimum.
    least = min(row["expected_measurements"] for row in table)
    first = next(row for row in table if row["expected_measurements"] == least)
    assert (best, cost) == (first["order"], first["expected_measurements"])
    assert best == (2, 0, 1, 3)


def test_best_order_ascending_refuses_a_table():
    # Only the exhaustive search fills a table; an ascending search given one
    # would leave it silently empty.
    inst = _abstract_instance([0.4, 0.1], 0.5)
    with pytest.raises(ValueError, match="EXHAUSTIVE"):
        best_order(inst, OrderMode.ASCENDING_OVERLAP, table=[])


_EDGE_OVERLAPS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
_EDGE_PRIORS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9, 0.97]),
    st.floats(min_value=0.0, max_value=1.0),
)


# Parties drawn from a pool of three pairs repeat their overlaps exactly, so
# the walk meets a (priors, overlap) again at another prefix and reach.
_POOLED_PARTIES = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6),
)


def _drawn_instance(overlaps, r):
    # The instance of a list of overlaps or of a _POOLED_PARTIES draw.
    if isinstance(overlaps, tuple):
        c, picks = overlaps
        pool = _abstract_instance([0.0, 1.0, c], r).parties
        return ProductInstance(tuple(pool[k] for k in picks), Priors(r, 1.0 - r))
    return _abstract_instance(overlaps, r)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    overlaps=st.one_of(st.lists(_EDGE_OVERLAPS, min_size=1, max_size=6), _POOLED_PARTIES),
    r=_EDGE_PRIORS,
)
def test_exhaustive_walk_rows_equal_run_protocol(overlaps, r):
    # The shared-prefix walk runs the same float operations in the same
    # sequence as run_protocol, and reuses a step's strategy only where its
    # priors and overlap are equal, so every row is bit-identical, not close.
    inst = _drawn_instance(overlaps, r)
    table = []
    best_order(inst, OrderMode.EXHAUSTIVE, table=table)
    assert [row["order"] for row in table] == list(itertools.permutations(range(inst.n_parties)))
    for row in table:
        result = run_protocol(inst, row["order"])
        assert row["expected_measurements"] == result.expected_measurements
        assert row["p_success"] == result.p_success


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    overlaps=st.one_of(st.lists(_EDGE_OVERLAPS, min_size=1, max_size=8), _POOLED_PARTIES),
    r=_EDGE_PRIORS,
)
def test_success_and_inconclusive_add_to_exactly_one(overlaps, r):
    # p_success is 1 - p_inconclusive, and fl(1 - x) + x rounds to 1 for
    # every x in [0, 1], so the sum is 1 with no tolerance.
    inst = _drawn_instance(overlaps, r)
    result = run_protocol(inst, tuple(range(inst.n_parties)))
    assert 0.0 <= result.p_inconclusive <= 1.0
    assert result.p_success + result.p_inconclusive == 1.0


def test_protocol_figures_match_a_50_digit_reference():
    # p_inconclusive, a product of p_fail, is within one ulp of 1 of the
    # reference; p_success = 1 - p_inconclusive adds only the rounding of
    # that subtraction, half an ulp of 1/2.  One in three instances ends in
    # an orthogonal party, where p_success is 1 up to rounding.
    ulp_of_one, half_ulp_of_half = decimal.Decimal(2) ** -52, decimal.Decimal(2) ** -54
    for i in range(2000):
        inst = random_instance(1 + i % 6, 2 + i % 3, (1010, i))
        if i % 3 == 2:
            orthogonal = state_pair_with_overlap(0.0, 2, (1011, i))
            inst = ProductInstance(inst.parties + (orthogonal,), inst.priors)
        result = run_protocol(inst, tuple(range(inst.n_parties)))
        overlaps = [pair.overlap_c for pair in inst.parties]
        ref_success, ref_inconclusive = decimal_protocol(overlaps, inst.priors.r, inst.priors.s)
        with decimal.localcontext(decimal.Context(prec=50)):
            inconclusive_error = abs(decimal.Decimal(result.p_inconclusive) - ref_inconclusive)
            success_error = abs(decimal.Decimal(result.p_success) - ref_success)
            assert inconclusive_error <= ulp_of_one, (i, inconclusive_error)
            assert success_error <= inconclusive_error + half_ulp_of_half + decimal.Decimal("1e-40"), i
        assert result.p_success <= 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(overlaps=st.lists(_EDGE_OVERLAPS, min_size=1, max_size=8), r=_EDGE_PRIORS, data=st.data())
def test_expected_measurements_sums_prefix_failure_probabilities(overlaps, r, data):
    # A step is reached when every earlier party failed, which happens with
    # the joint failure probability f of their product overlap (local equals
    # global, applied to the prefix); skipped parties are not counted.
    inst = _abstract_instance(overlaps, r)
    order = tuple(data.draw(st.permutations(range(inst.n_parties))))
    expected = 0.0
    prefix = 1.0
    for idx in order:
        c = inst.parties[idx].overlap_c
        if c != 1.0:
            expected += optimal_strategy(prefix, inst.priors).p_fail
        prefix *= c
    assert abs(run_protocol(inst, order).expected_measurements - expected) <= 1e-12


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
