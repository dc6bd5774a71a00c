import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import uqsd.montecarlo as mc
from uqsd import (
    Engine,
    InternalFaultError,
    Priors,
    ProductInstance,
    measurement_count_distribution,
    optimal_strategy,
    random_instance,
    run_protocol,
    simulate,
    state_pair_with_overlap,
)

from _oracles import full_neumark_probs, full_povm_probs, sample_trial


def _abstract_instance(overlaps, r, seed=0):
    pairs = tuple(
        state_pair_with_overlap(c, 2, (seed, i)) for i, c in enumerate(overlaps)
    )
    return ProductInstance(pairs, Priors(r, 1.0 - r))


def _table(inst, order, engine):
    return mc._outcome_table(inst, run_protocol(inst, order).transcript, engine)


def test_orthogonal_states_conclude_immediately():
    # Every trial is settled, correctly, by the first party.
    inst = _abstract_instance([0.0, 0.0], 0.5)
    for engine in Engine:
        stats = simulate(inst, (0, 1), 200, 0, engine)
        assert stats.success_rate == 1.0
        assert stats.misidentifications == 0
        assert stats.mean_measurements == 1.0


def test_identical_states_never_conclude():
    inst = _abstract_instance([1.0, 1.0], 0.5)
    for engine in Engine:
        stats = simulate(inst, (0, 1), 200, 0, engine)
        assert stats.success_rate == 0.0
        assert stats.misidentifications == 0
        assert stats.mean_measurements == 0.0


def test_simulate_is_deterministic():
    inst = _abstract_instance([0.5, 0.5], 0.5)
    a = simulate(inst, (0, 1), 5000, 11, Engine.POVM_SAMPLING)
    b = simulate(inst, (0, 1), 5000, 11, Engine.POVM_SAMPLING)
    assert a == b


def test_simulate_rejects_nonpositive_trials():
    inst = _abstract_instance([0.5], 0.5)
    with pytest.raises(ValueError):
        simulate(inst, (0,), 0, 1, Engine.POVM_SAMPLING)


def test_simulate_stderr_formula():
    inst = _abstract_instance([0.5, 0.5], 0.5)
    stats = simulate(inst, (0, 1), 4000, 2, Engine.POVM_SAMPLING)
    expected = math.sqrt(stats.success_rate * (1 - stats.success_rate) / stats.trials)
    assert stats.success_stderr == expected
    assert stats.misidentifications == 0


def _count_stderr(result, trials):
    dist = measurement_count_distribution(result)
    var = sum(k * k * p for k, p in dist) - result.expected_measurements**2
    return math.sqrt(max(0.0, var) / trials)


def test_simulation_tracks_analytic_values():
    # 20 random instances, 1e5 trials each: empirical success rate and mean
    # measurement count stay within 5 standard errors of the analytic values.
    trials = 100_000
    for k in range(20):
        engine = Engine.NEUMARK_EVOLUTION if k % 5 == 0 else Engine.POVM_SAMPLING
        inst = random_instance(2 + k % 3, 2, (900, k))
        order = tuple(range(inst.n_parties))
        analytic = run_protocol(inst, order)
        stats = simulate(inst, order, trials, k, engine)
        band = 5 * max(stats.success_stderr, 1e-9)
        assert abs(stats.success_rate - analytic.p_success) <= band
        count_band = 5 * max(_count_stderr(analytic, trials), 1e-9)
        assert abs(stats.mean_measurements - analytic.expected_measurements) <= count_band
        assert stats.misidentifications == 0


def test_engines_are_statistically_indistinguishable():
    inst = _abstract_instance([0.6, 0.4], 0.45)
    trials = 100_000
    povm = simulate(inst, (0, 1), trials, 5, Engine.POVM_SAMPLING)
    neumark = simulate(inst, (0, 1), trials, 6, Engine.NEUMARK_EVOLUTION)
    combined = math.hypot(povm.success_stderr, neumark.success_stderr)
    assert abs(povm.success_rate - neumark.success_rate) <= 5 * combined


def test_degenerate_parties_cost_no_measurements():
    inst = _abstract_instance([1.0, 0.5], 0.5)
    stats = simulate(inst, (0, 1), 2000, 9, Engine.POVM_SAMPLING)
    assert stats.mean_measurements == 1.0  # only the informative party measures


# --- The outcome table and the block sampler -------------------------------


def _counts(stats):
    # Integer tallies behind the rates: correct conclusions, measurements.
    return (
        round(stats.success_rate * stats.trials),
        round(stats.mean_measurements * stats.trials),
    )


def test_misidentifications_are_counted_from_the_sampler(monkeypatch):
    # A table whose only step identifies p whatever the truth: every trial
    # that prepared q is misidentified, and simulate must say so.
    wrong = np.array([[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]])
    monkeypatch.setattr(mc, "_outcome_table", lambda *args: wrong)
    inst = _abstract_instance([0.5], 0.7)
    stats = simulate(inst, (0,), 5000, 4, Engine.POVM_SAMPLING)
    correct, measurements = _counts(stats)
    assert stats.misidentifications > 0
    assert correct + stats.misidentifications == stats.trials
    assert measurements == stats.trials
    # About 30 % of the preparations are q.
    assert abs(stats.misidentifications / stats.trials - 0.3) < 0.05


@pytest.mark.parametrize("engine", list(Engine))
def test_block_is_the_unit_of_reproducibility(engine):
    inst = _abstract_instance([0.5, 0.7, 0.3], 0.4)
    order, seed = (0, 1, 2), 13
    full = simulate(inst, order, mc.BLOCK + 7, seed, engine)
    assert full == simulate(inst, order, mc.BLOCK + 7, seed, engine)
    head = simulate(inst, order, mc.BLOCK, seed, engine)
    # The 7 trials past the first block are the first 7 rows of stream
    # (seed, 1).
    table = _table(inst, order, engine)
    u = np.random.default_rng((seed, 1)).random((7, 1 + len(table)))
    truth, conclusion, used = mc._sample(table, inst.priors.r, u)
    head_correct, head_measurements = _counts(head)
    full_correct, full_measurements = _counts(full)
    assert full_correct == head_correct + int(np.sum(conclusion == truth))
    assert full_measurements == head_measurements + int(used.sum())


def test_row_chunked_draws_match_one_draw(monkeypatch):
    inst = _abstract_instance([0.5, 0.7, 0.3, 0.8], 0.6)
    order = (3, 1, 0, 2)
    whole = simulate(inst, order, mc.BLOCK + 100, 21, Engine.POVM_SAMPLING)
    # Rows of 5 uniforms drawn 3 rows at a time, across a block boundary.
    monkeypatch.setattr(mc, "_DRAW_CAP", 15)
    chunked = simulate(inst, order, mc.BLOCK + 100, 21, Engine.POVM_SAMPLING)
    assert chunked == whole


# (successes, misidentifications, measurements) over BLOCK + 7 trials.  Any
# change to the block streams, the tables or the stop rule shows here.
_PINNED_TALLIES = {
    "tripartite": ([0.5, 0.7, 0.3], 0.4, (2, 0, 1), 13, (14722, 0, 23573)),
    "deep": ([0.9, 0.8, 0.95, 0.7, 0.85, 0.9, 0.75, 0.6], 0.45, tuple(range(8)), 5,
             (13616, 0, 79317)),
    "skipped": ([1.0, 1.0, 1.0], 0.6, (0, 1, 2), 3, (0, 0, 0)),
    "orthogonal": ([0.6, 0.0, 0.8], 0.35, (0, 1, 2), 8, (16391, 0, 25803)),
}


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
@pytest.mark.parametrize("case, draw_cap", [
    *((case, None) for case in _PINNED_TALLIES),
    # Rows of 9 uniforms drawn 2 rows at a time, across a block boundary.
    ("deep", 20),
])
def test_simulate_tallies_are_pinned(monkeypatch, engine, case, draw_cap):
    overlaps, r, order, seed, tallies = _PINNED_TALLIES[case]
    if draw_cap is not None:
        monkeypatch.setattr(mc, "_DRAW_CAP", draw_cap)
    stats = simulate(_abstract_instance(overlaps, r), order, mc.BLOCK + 7, seed, engine)
    correct, measurements = _counts(stats)
    assert (correct, stats.misidentifications, measurements) == tallies


def _assert_sample_is_the_oracle(table, prior_r, u):
    got = mc._sample(table, prior_r, u)
    assert all(a.dtype == np.intp and a.shape == (len(u),) for a in got)
    want = [sample_trial(table, prior_r, row) for row in u.tolist()]
    assert list(zip(*(a.tolist() for a in got))) == want


def _random_table(rng, steps):
    # Any outcome may be impossible, a cross entry included.
    table = rng.random((steps, 2, 3))
    table[rng.random(table.shape) < 0.25] = 0.0
    table[table.sum(axis=2) == 0.0, mc._FAIL] = 1.0
    return table / table.sum(axis=2, keepdims=True)


def test_sample_matches_the_scalar_oracle_on_random_tables():
    rng = np.random.default_rng(585)
    for i in range(60):
        steps = i % 7
        table = _random_table(rng, steps)
        _assert_sample_is_the_oracle(table, rng.random(), rng.random((50, 1 + steps)))


def test_sample_matches_the_scalar_oracle_on_thresholds():
    # Each step uniform is 0, a threshold of the row's truth, or one ulp
    # below one: an interval's lower end is inside it, its upper end not.
    rng = np.random.default_rng(595)
    for i in range(40):
        steps, r = 1 + i % 5, rng.random()
        table = _random_table(rng, steps)
        u = np.empty((64, 1 + steps))
        u[:, 0] = rng.choice([0.0, np.nextafter(r, 0.0), r, np.nextafter(1.0, 0.0)], size=64)
        truth = (u[:, 0] >= r).astype(int)
        for k in range(steps):
            lower = table[k, truth, 0]
            upper = lower + table[k, truth, 1]
            picks = np.stack([
                np.zeros(64), lower, upper,
                np.nextafter(lower, 0.0), np.nextafter(upper, 0.0),
            ])
            u[:, 1 + k] = picks[rng.integers(0, 5, size=64), np.arange(64)]
        _assert_sample_is_the_oracle(table, r, u)


@pytest.mark.parametrize(
    "table",
    [
        [[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]],
        [[[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]],
        [[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]],
        [[[0.3, 0.0, 0.7], [0.0, 0.0, 1.0]], [[0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]],
        # The table of test_misidentifications_are_counted_from_the_sampler.
        [[[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]],
        # No step: every trial fails with no measurement.
        np.zeros((0, 2, 3)),
    ],
    ids=["certain-p", "never-then-q", "always-wrong", "partial", "misidentifying", "no-step"],
)
def test_sample_matches_the_scalar_oracle_on_zero_probabilities(table):
    table = np.array(table, dtype=float).reshape(-1, 2, 3)
    rng = np.random.default_rng(605)
    u = rng.random((200, 1 + len(table)))
    u[::7] = 0.0
    u[1::7, 1:] = np.nextafter(1.0, 0.0)
    _assert_sample_is_the_oracle(table, 0.6, u)


def test_povm_and_neumark_tables_agree():
    for i in range(50):
        inst = random_instance(1 + i % 4, 2 + i % 3, (515, i))
        order = tuple(range(inst.n_parties))
        povm = _table(inst, order, Engine.POVM_SAMPLING)
        neumark = _table(inst, order, Engine.NEUMARK_EVOLUTION)
        assert povm.shape == neumark.shape == (inst.n_parties, 2, 3)
        np.testing.assert_allclose(povm, neumark, rtol=0, atol=1e-12)
        np.testing.assert_allclose(povm.sum(axis=2), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("engine", list(Engine))
def test_table_fail_entries_match_the_protocol(engine):
    for i in range(30):
        base = random_instance(2 + i % 3, 2 + i % 2, (525, i))
        # A coinciding pair is skipped and gets no table row.
        pairs = base.parties + (state_pair_with_overlap(1.0, 2, (525, i)),)
        inst = ProductInstance(pairs, base.priors)
        order = tuple(reversed(range(inst.n_parties)))
        table = _table(inst, order, engine)
        steps = [rec for rec in run_protocol(inst, order).transcript if not rec.skipped]
        assert len(table) == len(steps)
        for row, rec in zip(table, steps):
            p_fail = rec.priors_before.r * row[0, 2] + rec.priors_before.s * row[1, 2]
            assert abs(p_fail - (1.0 - rec.p_conclusive_given_reached)) <= 1e-12
            # Contradicting the preparation is impossible.
            assert row[0, 1] == 0.0 and row[1, 0] == 0.0


@pytest.mark.parametrize("engine", list(Engine))
def test_zero_step_uniform_never_misidentifies(engine):
    # A step uniform of 0.0 falls below every positive threshold: with a
    # rounding residue in a cross entry it would name the wrong state.
    for i in range(30):
        inst = random_instance(2 + i % 3, 2 + i % 2, (535, i))
        table = _table(inst, tuple(range(inst.n_parties)), engine)
        u = np.zeros((2, 1 + len(table)))
        u[1, 0] = np.nextafter(1.0, 0.0)  # prepares q; row 0 prepares p
        truth, conclusion, _ = mc._sample(table, inst.priors.r, u)
        assert truth.tolist() == [0, 1]
        assert conclusion[0] in (0, mc._FAIL) and conclusion[1] in (1, mc._FAIL)


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
def test_orthogonal_party_never_fails(engine):
    # A party whose overlap snapped to 0 concludes with certainty: its fail
    # entries are exactly 0, not a rounding residue a uniform could hit.
    for i in range(50):
        orthogonal = state_pair_with_overlap(0.0, 2 + i % 3, (545, i))
        assert orthogonal.overlap_c == 0.0
        other = state_pair_with_overlap(0.4, 2, (546, i))
        inst = ProductInstance((other, orthogonal), Priors(0.3, 0.7))
        table = _table(inst, (0, 1), engine)
        assert table[1, :, mc._FAIL].tolist() == [0.0, 0.0]


_EDGE_CASES = [
    pytest.param(5e-324, 0.5, id="subnormal-5e-324"),
    pytest.param(1e-310, 0.3, id="subnormal-1e-310"),
    pytest.param(1.0 - 1e-11, 0.5, id="one-minus-1e-11"),
    pytest.param(1.0 - 2e-12, 0.85, id="one-minus-2e-12"),
] + [
    pytest.param(c, 1.0 / (1.0 + c * c), id=f"regime-boundary-{c}") for c in (0.1, 0.5, 0.9)
]


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
@pytest.mark.parametrize("c,r", _EDGE_CASES)
def test_edge_overlap_rows_are_analytic(engine, c, r):
    for dim in (2, 3, 8):
        pair = state_pair_with_overlap(c, dim, (565, dim))
        inst = ProductInstance((pair,), Priors(r, 1.0 - r))
        strat = optimal_strategy(pair.overlap_c, inst.priors)
        want = [
            [1.0 - strat.fail_p, 0.0, strat.fail_p],
            [0.0, 1.0 - strat.fail_q, strat.fail_q],
        ]
        table = _table(inst, (0,), engine)
        np.testing.assert_allclose(table, [want], rtol=0, atol=1e-12)


# --- The full-dimensional construction, kept as an oracle ------------------
#
# The span construction must give the same tables as the measurement built
# on the whole system (`_oracles.full_povm_probs`, `full_neumark_probs`).


def _oracle_table(instance, order, engine):
    full_probs = full_povm_probs if engine is Engine.POVM_SAMPLING else full_neumark_probs
    probs = np.array(
        [
            full_probs(
                instance.parties[rec.party_index],
                optimal_strategy(rec.local_overlap, rec.priors_before),
            )
            for rec in run_protocol(instance, order).transcript
            if not rec.skipped
        ]
    ).reshape(-1, 2, 3)
    probs[probs < 1e-30] = 0.0
    table = probs / probs.sum(axis=2, keepdims=True)
    table[:, [0, 1], [1, 0]] = 0.0
    return table


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
def test_tables_match_the_full_dimensional_construction(engine):
    for i in range(60):
        dim = (2, 3, 5, 8, 16, 33, 64)[i % 7]
        base = random_instance(1 + i % 4, dim, (575, i))
        # Overlaps 0 and 1 too: an orthogonal party and a skipped one.
        extra = tuple(state_pair_with_overlap(c, dim, (576, i)) for c in (0.0, 1.0))
        inst = ProductInstance(base.parties + extra, base.priors)
        order = tuple(reversed(range(inst.n_parties)))
        table = _table(inst, order, engine)
        np.testing.assert_allclose(table, _oracle_table(inst, order, engine), rtol=0, atol=1e-12)


_LEAK_SCRIPT = r"""
import dataclasses
import sys

import uqsd.montecarlo as mc
from uqsd import InternalFaultError, Priors, ProductInstance, state_pair_with_overlap

real = mc.neumark_model


def leaky(pair, strategy):
    # A dilation that is not unitary: it leaks 0.2 % of each state's norm^2.
    model = real(pair, strategy)
    return dataclasses.replace(model, unitary=0.999 * model.unitary)


mc.neumark_model = leaky
inst = ProductInstance((state_pair_with_overlap(0.5, 3, 0),), Priors(0.5, 0.5))
try:
    mc.simulate(inst, (0,), 10, 0, mc.Engine.NEUMARK_EVOLUTION)
except InternalFaultError as exc:
    print(exc)
    sys.exit(0 if sys.flags.optimize else 3)
sys.exit(4)
"""


def test_neumark_span_check_survives_python_optimize():
    assert not issubclass(InternalFaultError, ValueError)
    src = pathlib.Path(mc.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _LEAK_SCRIPT], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "not unitary" in proc.stdout
