import collections
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import uqsd.cli as cli
import uqsd.montecarlo as mc
from uqsd import (
    Engine,
    InternalFaultError,
    LocalPair,
    Priors,
    ProductInstance,
    PureState,
    measurement_count_distribution,
    optimal_strategy,
    random_instance,
    run_protocol,
    simulate,
    state_pair_with_overlap,
    state_pairs_with_overlaps,
)

from _oracles import full_neumark_probs, full_povm_probs, sample_trial, stop_cell_trial


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


def test_simulate_checks_its_engine_before_running_the_protocol(monkeypatch):
    runs = []
    monkeypatch.setattr(mc, "run_protocol", lambda *args: runs.append(args))
    with pytest.raises(TypeError, match=r"^engine: expected Engine, got str$"):
        simulate(_abstract_instance([0.5], 0.5), (0,), 10, 0, "povm")
    assert runs == []


def test_a_misidentifying_outcome_table_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    # A POVM with e_p and e_q swapped names the wrong state every time it
    # concludes; on orthogonal states it always concludes.
    real = mc.build_povm
    monkeypatch.setattr(
        mc,
        "build_povm",
        lambda pair, strat: dataclasses.replace(
            real(pair, strat), elements=real(pair, strat).elements[[1, 0, 2]]
        ),
    )
    message = "outcome table misidentifies with probability 1.0"
    pair = LocalPair(PureState(2, [1, 0]), PureState(2, [0, 1]))
    with pytest.raises(InternalFaultError, match=rf"^{message}$"):
        simulate(ProductInstance((pair,), Priors(0.5, 0.5)), (0,), 10, 0, Engine.POVM_SAMPLING)

    path = tmp_path / "orthogonal.json"
    party = {"u": [[1, 0], [0, 0]], "v": [[0, 0], [1, 0]]}
    path.write_text(json.dumps({"priors": {"r": 0.5}, "explicit": {"parties": [party]}}))
    code = cli.main(["simulate", "--scenario", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.endswith(f"InternalFaultError: {message}\n")


def test_simulate_stderr_formula():
    # The binomial stderr at the analytic success probability, not at the
    # sampled rate.
    inst = _abstract_instance([0.5, 0.5], 0.5)
    stats = simulate(inst, (0, 1), 4000, 2, Engine.POVM_SAMPLING)
    p = stats.analytic.p_success
    assert stats.success_stderr == math.sqrt(p * (1 - p) / stats.trials)
    assert stats.success_stderr != math.sqrt(
        stats.success_rate * (1 - stats.success_rate) / stats.trials
    )
    assert stats.misidentifications == 0


def test_one_trial_has_a_success_z_score(monkeypatch):
    # One trial's rate is 0 or 1; the stderr of an analytic 0.76 is not 0, so
    # the z-score is a number, not None.
    inst = random_instance(3, 2, 5)
    stats = simulate(inst, (0, 1, 2), 1, 0, Engine.POVM_SAMPLING)
    p = stats.analytic.p_success
    assert 0.7 < p < 0.8 and stats.success_rate in (0.0, 1.0)
    assert stats.z_success == (stats.success_rate - p) / math.sqrt(p * (1 - p))
    # None is left for an outcome the analytic value calls impossible: here
    # no party can conclude, yet the patched table identifies p every time.
    monkeypatch.setattr(mc, "_outcome_table", lambda *args: np.array([[[1.0, 0.0, 0.0]] * 2]))
    stats = simulate(_abstract_instance([1.0], 0.5), (0,), 10, 0, Engine.POVM_SAMPLING)
    assert stats.analytic.p_success == 0.0 and stats.success_rate > 0.0
    assert stats.z_success is None


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
        band = 5 * stats.success_stderr
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


# --- The outcome table and the stop-cell sampler ---------------------------


def _counts(stats):
    # Integer tallies behind the rates: correct conclusions, measurements.
    return (
        round(stats.success_rate * stats.trials),
        round(stats.mean_measurements * stats.trials),
    )


def _outcome(cell, steps):
    # (conclusion, measurements used) of a stop cell: cell 2k + o is "step k
    # concludes o", the last cell "every step failed".
    return (cell % 2, cell // 2 + 1) if cell < 2 * steps else (mc._FAIL, steps)


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
    u = np.random.default_rng((seed, 1)).random((7, 2))
    truth, cell = mc._sample(mc._stop_cells(table), inst.priors.r, u)
    tail = [(t, *_outcome(c, len(table))) for t, c in zip(truth.tolist(), cell.tolist())]
    head_correct, head_measurements = _counts(head)
    full_correct, full_measurements = _counts(full)
    assert full_correct == head_correct + sum(t == conclusion for t, conclusion, _ in tail)
    assert full_measurements == head_measurements + sum(used for _, _, used in tail)


def test_each_block_draws_two_uniforms_per_trial(monkeypatch):
    # Whatever the party count, block b draws one (rows, 2) matrix.
    rng = np.random.default_rng(615)
    instances = [
        ProductInstance(state_pairs_with_overlaps(rng.uniform(0.2, 0.95, n), 2, 615),
                        Priors(0.4, 0.6))
        for n in (3, 2048)
    ]
    shapes = []
    real = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self._rng = real(seed)

        def random(self, size):
            shapes.append(size)
            return self._rng.random(size)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    for inst in instances:
        shapes.clear()
        simulate(inst, tuple(range(inst.n_parties)), mc.BLOCK + 7, 1, Engine.POVM_SAMPLING)
        assert shapes == [(mc.BLOCK, 2), (7, 2)]


def test_tally_memory_does_not_grow_with_the_step_count():
    # A block's peak memory is its two uniforms per row and the row's picks,
    # whatever the number of steps.
    rng = np.random.default_rng(625)
    peaks = []
    for steps in (8, 2048):
        table = _random_table(rng, steps)
        tracemalloc.start()
        try:
            mc._tally(table, 0.5, mc.BLOCK, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


# (successes, misidentifications, measurements) over BLOCK + 7 trials.  Any
# change to the block streams, the tables or the stop cells shows here.
_PINNED_TALLIES = {
    "tripartite": ([0.5, 0.7, 0.3], 0.4, (2, 0, 1), 13, (14720, 0, 23532)),
    "deep": ([0.9, 0.8, 0.95, 0.7, 0.85, 0.9, 0.75, 0.6], 0.45, tuple(range(8)), 5,
             (13691, 0, 78694)),
    "skipped": ([1.0, 1.0, 1.0], 0.6, (0, 1, 2), 3, (0, 0, 0)),
    "orthogonal": ([0.6, 0.0, 0.8], 0.35, (0, 1, 2), 8, (16391, 0, 25738)),
}


@pytest.mark.parametrize("engine", list(Engine), ids=lambda e: e.value)
# The ids end in "-None", the names these cases are listed under, so recorded
# test lists still match them.
@pytest.mark.parametrize("case", list(_PINNED_TALLIES), ids=lambda case: f"{case}-None")
def test_simulate_tallies_are_pinned(engine, case):
    overlaps, r, order, seed, tallies = _PINNED_TALLIES[case]
    stats = simulate(_abstract_instance(overlaps, r), order, mc.BLOCK + 7, seed, engine)
    correct, measurements = _counts(stats)
    assert (correct, stats.misidentifications, measurements) == tallies


def _assert_sample_is_the_oracle(table, prior_r, u):
    cells = mc._stop_cells(table)
    got = mc._sample(cells, prior_r, u)
    assert all(a.dtype == np.intp and a.shape == (len(u),) for a in got)
    want = [stop_cell_trial(table, prior_r, row) for row in u.tolist()]
    assert list(zip(*(a.tolist() for a in got))) == want
    # Every pick lies in a cell of positive width, within the row.
    truth, cell = got
    widths = np.diff(cells, axis=1, prepend=0.0)
    assert (widths[truth, cell] > 0.0).all()


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
        _assert_sample_is_the_oracle(table, rng.random(), rng.random((50, 2)))


def test_sample_matches_the_scalar_oracle_on_thresholds():
    # Each uniform is 0, one ulp below one, or a cell boundary of the row's
    # truth (scaled by the row's total) or one ulp either side of it: a
    # cell's lower end is inside it, its upper end not.
    rng = np.random.default_rng(595)
    for i in range(40):
        steps, r = 1 + i % 5, rng.random()
        table = _random_table(rng, steps)
        cells = mc._stop_cells(table)
        u = np.empty((64, 2))
        u[:, 0] = rng.choice([0.0, np.nextafter(r, 0.0), r, np.nextafter(1.0, 0.0)], size=64)
        truth = (u[:, 0] >= r).astype(int)
        bounds = cells[truth, rng.integers(0, cells.shape[1], size=64)] / cells[truth, -1]
        picks = np.stack([
            np.zeros(64), np.full(64, np.nextafter(1.0, 0.0)), bounds,
            np.nextafter(bounds, 0.0), np.nextafter(bounds, 1.0),
        ])
        # A uniform is below 1, so the last boundary's upper neighbour is not.
        picked = picks[rng.integers(0, 5, size=64), np.arange(64)]
        u[:, 1] = np.minimum(picked, np.nextafter(1.0, 0.0))
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
    u = rng.random((200, 2))
    u[::7] = 0.0
    u[1::7, 1] = np.nextafter(1.0, 0.0)
    _assert_sample_is_the_oracle(table, 0.6, u)


# Upper 1e-3 point of the standard normal: the chi-square tests below reject
# at significance 1e-3.
_Z_1E3 = 3.090232306167813


def _chi2_critical(df):
    # Upper 1e-3 point of chi-square with df degrees of freedom, by the
    # Wilson-Hilferty cube-root normal approximation.
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + _Z_1E3 * math.sqrt(h)) ** 3


@pytest.mark.parametrize(
    "overlaps, r",
    [
        # A skipped party, then an overlap-0 party that ends every trial.
        ([0.6, 1.0, 0.8, 0.0], 0.4),
        # Overlaps near 1: most trials fail at every step.
        ([0.999, 0.9995, 0.99, 0.9999, 0.998], 0.55),
        ([0.3, 0.9, 0.5, 0.7, 0.95, 0.2], 0.7),
    ],
    ids=["skipped-and-orthogonal", "near-one", "mixed"],
)
def test_stop_cell_sampler_has_the_law_of_the_per_step_sampler(overlaps, r):
    # Two-sample chi-square over (truth, step, outcome) against the per-step
    # oracle, equal sample sizes, cells with fewer than 10 trials pooled.
    inst = _abstract_instance(overlaps, r)
    table = _table(inst, tuple(range(len(overlaps))), Engine.POVM_SAMPLING)
    rng, n = np.random.default_rng(635), 20_000
    truth, cell = mc._sample(mc._stop_cells(table), r, rng.random((n, 2)))
    ours = collections.Counter(
        (t, *_outcome(c, len(table))) for t, c in zip(truth.tolist(), cell.tolist())
    )
    theirs = collections.Counter(
        sample_trial(table, r, row) for row in rng.random((n, 1 + len(table))).tolist()
    )
    pairs = [(ours[key], theirs[key]) for key in ours.keys() | theirs.keys()]
    bins = [pair for pair in pairs if sum(pair) >= 10]
    rare = [pair for pair in pairs if sum(pair) < 10]
    if rare:
        bins.append((sum(a for a, _ in rare), sum(b for _, b in rare)))
    stat = sum((a - b) ** 2 / (a + b) for a, b in bins)
    assert len(bins) > 2
    assert stat <= _chi2_critical(len(bins) - 1)


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
    # A cell uniform of 0.0 picks the first cell of positive width: with a
    # rounding residue in a cross entry that cell would name the wrong state.
    for i in range(30):
        inst = random_instance(2 + i % 3, 2 + i % 2, (535, i))
        table = _table(inst, tuple(range(inst.n_parties)), engine)
        u = np.zeros((2, 2))
        u[1, 0] = np.nextafter(1.0, 0.0)  # prepares q; row 0 prepares p
        truth, cell = mc._sample(mc._stop_cells(table), inst.priors.r, u)
        assert truth.tolist() == [0, 1]
        conclusion = [_outcome(c, len(table))[0] for c in cell.tolist()]
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
