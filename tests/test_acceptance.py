"""Ten end-to-end acceptance checks for the library and CLI.

Each test prints one `ACCEPTANCE nn PASS` / `ACCEPTANCE nn FAIL` line on its
way out (run with `pytest tests/test_acceptance.py -s` to see them all), and
fails loudly with the worst observed deviation when a bound is missed.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np

from uqsd import (
    Engine,
    OrderMode,
    Priors,
    ProductInstance,
    Regime,
    best_order,
    brute_force_strategy,
    build_povm,
    failure_posterior,
    global_optimum,
    group,
    neumark_model,
    optimal_strategy,
    random_instance,
    run_protocol,
    simulate,
    state_pair_with_overlap,
)

from _oracles import embedded_povm, embedded_unitary, evolve_with_ancilla, span_basis


def _verdict(num: int, ok: bool):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}")


def test_acceptance_01_closed_form_matches_oracle():
    # 1000 random (c, r): the two-regime formula against the constrained grid
    # search, within 1e-6, in under 10 seconds.
    ok = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            c = float(rng.random())
            r = float(rng.random())
            priors = Priors(r, 1.0 - r)
            dev = abs(
                optimal_strategy(c, priors).p_success
                - brute_force_strategy(c, priors).p_success
            )
            worst = max(worst, dev)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 10.0
        assert ok, f"worst deviation {worst:.3e}, elapsed {elapsed:.2f}s"
    finally:
        _verdict(1, ok)


def test_acceptance_02_sequential_equals_joint_for_every_order():
    # 500 random product instances (2..6 parties, local dims 2..4): every
    # tested visiting order reproduces the joint optimum to 1e-12, covering
    # all n! orders up to n = 4 and 20 random orders for n = 5, 6.
    ok = False
    try:
        rng = np.random.default_rng(202)
        worst = 0.0
        for i in range(500):
            n = 2 + i % 5
            dim = 2 + i % 3
            inst = random_instance(n, dim, (202, i))
            target = global_optimum(inst)
            if n <= 4:
                orders = itertools.permutations(range(n))
            else:
                orders = (
                    tuple(int(x) for x in rng.permutation(n)) for _ in range(20)
                )
            for order in orders:
                worst = max(worst, abs(run_protocol(inst, order).p_success - target))
        ok = worst <= 1e-12
        assert ok, f"worst |p_local - p_global| = {worst:.3e}"
    finally:
        _verdict(2, ok)


def test_acceptance_03_tripartite_worked_value():
    # Overlaps (0.9, 0.5, 0.2) with priors (0.6, 0.4): success probability
    # 1 - 2*sqrt(0.24)*0.09 from the joint formula and from all 6 orders.
    ok = False
    try:
        pairs = tuple(
            state_pair_with_overlap(c, 2, (303, i))
            for i, c in enumerate((0.9, 0.5, 0.2))
        )
        inst = ProductInstance(pairs, Priors(0.6, 0.4))
        expected = 1.0 - 2.0 * math.sqrt(0.24) * 0.09
        worst = abs(global_optimum(inst) - expected)
        for perm in itertools.permutations(range(3)):
            worst = max(worst, abs(run_protocol(inst, perm).p_success - expected))
        ok = worst <= 1e-12
        assert ok, f"worst deviation from {expected!r}: {worst:.3e}"
    finally:
        _verdict(3, ok)


def test_acceptance_04_regime_boundary_is_seamless():
    # On the curve sqrt(s/r) = c (20 points) both branch formulas and the
    # implementation coincide to 1e-12, and nudging the priors by 1e-9
    # across the boundary moves the output by less than 1e-7.
    ok = False
    try:
        rng = np.random.default_rng(404)
        worst_meet = 0.0
        worst_jump = 0.0
        delta = 1e-9
        for _ in range(20):
            c = 0.05 + 0.9 * float(rng.random())
            r = 1.0 / (1.0 + c * c)
            s = 1.0 - r
            equal_branch = 1.0 - 2.0 * math.sqrt(r * s) * c
            saturated_branch = r * (1.0 - c * c)
            p = optimal_strategy(c, Priors(r, s)).p_success
            worst_meet = max(
                worst_meet,
                abs(equal_branch - saturated_branch),
                abs(p - equal_branch),
                abs(p - saturated_branch),
            )
            above = optimal_strategy(c, Priors(r + delta, s - delta)).p_success
            below = optimal_strategy(c, Priors(r - delta, s + delta)).p_success
            worst_jump = max(worst_jump, abs(above - below))
        ok = worst_meet <= 1e-12 and worst_jump <= 1e-7
        assert ok, f"branch mismatch {worst_meet:.3e}, boundary jump {worst_jump:.3e}"
    finally:
        _verdict(4, ok)


def test_acceptance_05_failure_posteriors():
    # Equal-posterior regime: the failure outcome always leaves flat (1/2,
    # 1/2) posteriors.  Saturated regime: posteriors match the independently
    # written closed form on 100 random instances.  Both to 1e-12.
    ok = False
    try:
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(100):
            c = 0.05 + 0.9 * float(rng.random())
            ratio_sq = c * c + (1.0 - c * c) * float(rng.random())  # >= c^2
            big = 1.0 / (1.0 + ratio_sq)
            small = 1.0 - big
            r, s = (big, small) if rng.random() < 0.5 else (small, big)
            strat = optimal_strategy(c, Priors(r, s))
            assert strat.regime is Regime.EQUAL_POSTERIOR
            post = failure_posterior(strat, Priors(r, s))
            worst = max(worst, abs(post.r - 0.5), abs(post.s - 0.5))
        for _ in range(100):
            c = 0.3 + 0.65 * float(rng.random())
            ratio_sq = c * c * float(rng.random()) * 0.999  # < c^2
            big = 1.0 / (1.0 + ratio_sq)
            small = 1.0 - big
            swap = rng.random() < 0.5
            r, s = (small, big) if swap else (big, small)
            strat = optimal_strategy(c, Priors(r, s))
            assert strat.regime is Regime.SATURATED
            denom = big * c * c + small
            post_big = big * c * c / denom
            post_small = small / denom
            want_r, want_s = (post_small, post_big) if swap else (post_big, post_small)
            post = failure_posterior(strat, Priors(r, s))
            worst = max(worst, abs(post.r - want_r), abs(post.s - want_s))
        ok = worst <= 1e-12
        assert ok, f"worst posterior deviation {worst:.3e}"
    finally:
        _verdict(5, ok)


def test_acceptance_06_measurement_layer_soundness():
    # 200 random pairs: POVM elements positive semidefinite, complete, and
    # silent on the wrong hypothesis; dilation unitaries unitary to 1e-12
    # with branch probabilities matching the strategy.  Both are checked as
    # dim-sized operators, embedded from the pair's span into the system by
    # `_oracles`.
    ok = False
    try:
        rng = np.random.default_rng(606)
        min_eig = 0.0
        worst_complete = 0.0
        worst_cross = 0.0
        worst_born = 0.0
        worst_unitary = 0.0
        worst_branch = 0.0
        for i in range(200):
            dim = 2 + i % 3
            pair = state_pair_with_overlap(float(rng.random()), dim, (606, i))
            r = float(rng.random())
            strat = optimal_strategy(pair.overlap_c, Priors(r, 1.0 - r))
            elements = embedded_povm(pair, build_povm(pair, strat))
            e_p, e_q, e_fail = elements
            worst_complete = max(
                worst_complete, float(np.abs(sum(elements) - np.eye(dim)).max())
            )
            min_eig = min(
                min_eig, min(float(np.linalg.eigvalsh(e).min()) for e in elements)
            )

            def born(element, state):
                return float(np.real(np.vdot(state.amplitudes, element @ state.amplitudes)))

            worst_cross = max(worst_cross, born(e_p, pair.q), born(e_q, pair.p))
            worst_born = max(
                worst_born,
                abs(born(e_p, pair.p) - (1.0 - strat.fail_p)),
                abs(born(e_q, pair.q) - (1.0 - strat.fail_q)),
                abs(born(e_fail, pair.p) - strat.fail_p),
                abs(born(e_fail, pair.q) - strat.fail_q),
            )

            model = neumark_model(pair, strat)
            u = embedded_unitary(pair, model)
            conclusive_basis = span_basis(pair).T
            worst_unitary = max(
                worst_unitary, float(np.abs(u.conj().T @ u - np.eye(2 * dim)).max())
            )
            for truth, fail_prob, conclusive_slot in (
                (pair.p, strat.fail_p, 0),
                (pair.q, strat.fail_q, 1),
            ):
                evolved = evolve_with_ancilla(pair, model, truth)
                conclusive = evolved[:dim]
                fail = evolved[dim:]
                got = [
                    abs(np.vdot(conclusive_basis[0], conclusive)) ** 2,
                    abs(np.vdot(conclusive_basis[1], conclusive)) ** 2,
                    float(np.real(np.vdot(fail, fail))),
                ]
                want = [0.0, 0.0, fail_prob]
                want[conclusive_slot] = 1.0 - fail_prob
                worst_branch = max(
                    worst_branch, max(abs(g - w) for g, w in zip(got, want))
                )
        ok = (
            min_eig >= -1e-12
            and worst_complete <= 1e-12
            and worst_cross <= 1e-12
            and worst_born <= 1e-12
            and worst_unitary <= 1e-12
            and worst_branch <= 1e-12
        )
        assert ok, (
            f"min eigenvalue {min_eig:.3e}, completeness {worst_complete:.3e}, "
            f"cross talk {worst_cross:.3e}, born {worst_born:.3e}, "
            f"unitarity {worst_unitary:.3e}, branch {worst_branch:.3e}"
        )
    finally:
        _verdict(6, ok)


def test_acceptance_07_simulation_matches_analytics():
    # One million trials of the symmetric bipartite instance (local overlaps
    # 0.5, flat priors) per engine: success rate within 5 standard errors of
    # 3/4, mean measurement count within 5 standard errors of 3/2, zero
    # misidentifications, and the engines agree with each other.
    ok = False
    try:
        pairs = tuple(state_pair_with_overlap(0.5, 2, (707, k)) for k in range(2))
        inst = ProductInstance(pairs, Priors(0.5, 0.5))
        trials = 1_000_000
        stats = {
            engine: simulate(inst, (0, 1), trials, seed, engine)
            for seed, engine in ((77, Engine.POVM_SAMPLING), (78, Engine.NEUMARK_EVOLUTION))
        }
        success_se = math.sqrt(0.75 * 0.25 / trials)
        count_se = math.sqrt(0.25 / trials)  # counts are 1 or 2, half and half
        checks = []
        for st in stats.values():
            checks.append(st.misidentifications == 0)
            checks.append(abs(st.success_rate - 0.75) <= 5.0 * success_se)
            checks.append(abs(st.mean_measurements - 1.5) <= 5.0 * count_se)
        povm_stats = stats[Engine.POVM_SAMPLING]
        neumark_stats = stats[Engine.NEUMARK_EVOLUTION]
        combined = math.hypot(povm_stats.success_stderr, neumark_stats.success_stderr)
        checks.append(
            abs(povm_stats.success_rate - neumark_stats.success_rate) <= 5.0 * combined
        )
        ok = all(checks)
        assert ok, f"checks {checks}; povm {povm_stats}; neumark {neumark_stats}"
    finally:
        _verdict(7, ok)


def test_acceptance_08_ascending_order_minimizes_measurements():
    # 200 random flat-prior instances and 100 with random unequal priors (n
    # up to 6): visiting parties in ascending overlap order achieves the
    # exhaustive minimum expected measurement count to 1e-12.  The expected
    # count is a sum over steps of the joint failure probability of the
    # parties before it, which increases with their product overlap, so the
    # ascending order minimizes every term at once, whatever the priors.
    ok = False
    try:
        worst = 0.0
        for i in range(200):
            base = random_instance(2 + i % 5, 2 + i % 3, (808, i))
            inst = ProductInstance(base.parties, Priors(0.5, 0.5))
            _, asc_cost = best_order(inst, OrderMode.ASCENDING_OVERLAP)
            _, best_cost = best_order(inst, OrderMode.EXHAUSTIVE)
            worst = max(worst, asc_cost - best_cost)
        worst_unequal = 0.0
        for i in range(100):
            inst = random_instance(2 + i % 5, 2, (818, i))
            _, asc_cost = best_order(inst, OrderMode.ASCENDING_OVERLAP)
            _, best_cost = best_order(inst, OrderMode.EXHAUSTIVE)
            worst_unequal = max(worst_unequal, asc_cost - best_cost)
        ok = worst <= 1e-12 and worst_unequal <= 1e-12
        assert ok, (
            f"worst excess expected count {worst:.3e} (flat priors),"
            f" {worst_unequal:.3e} (unequal priors)"
        )
    finally:
        _verdict(8, ok)


def test_acceptance_09_grouping_invariance():
    # 100 random tripartite instances: merging parties into effective
    # parties ({01|2}, {0|12}, {012}) never changes the success probability.
    ok = False
    try:
        partitions = ([(0, 1), (2,)], [(0,), (1, 2)], [(0, 1, 2)])
        worst = 0.0
        for i in range(100):
            inst = random_instance(3, 2 + i % 3, (909, i))
            base = run_protocol(inst, (0, 1, 2)).p_success
            for partition in partitions:
                grouped = group(inst, partition)
                p = run_protocol(grouped, tuple(range(grouped.n_parties))).p_success
                worst = max(worst, abs(p - base))
        ok = worst <= 1e-12
        assert ok, f"worst grouping deviation {worst:.3e}"
    finally:
        _verdict(9, ok)


def test_acceptance_10_reports_are_byte_deterministic(tmp_path):
    # Fixed seeds: running `verify` twice and `simulate` twice, in fresh
    # interpreter processes, emits byte-identical reports.
    ok = False
    try:
        verify_cmd = [
            sys.executable, "-m", "uqsd.cli",
            "verify", "--seed", "1", "--trials", "30",
        ]
        v1 = subprocess.run(verify_cmd, capture_output=True)
        v2 = subprocess.run(verify_cmd, capture_output=True)

        doc = {
            "priors": {"r": 0.5},
            "abstract": {"overlaps": [0.5, 0.5]},
            "trials": 20_000,
            "seed": 5,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        sim_cmd = [sys.executable, "-m", "uqsd.cli", "simulate", "--scenario", str(path)]
        s1 = subprocess.run(sim_cmd, capture_output=True)
        s2 = subprocess.run(sim_cmd, capture_output=True)

        ok = bool(
            v1.returncode == 0 and v2.returncode == 0
            and v1.stdout and v1.stdout == v2.stdout
            and s1.returncode == 0 and s2.returncode == 0
            and s1.stdout and s1.stdout == s2.stdout
        )
        assert ok, (
            f"verify rc {v1.returncode}/{v2.returncode} identical"
            f" {v1.stdout == v2.stdout}; simulate rc {s1.returncode}/{s2.returncode}"
            f" identical {s1.stdout == s2.stdout};"
            f" stderr {v1.stderr!r} {s1.stderr!r}"
        )
    finally:
        _verdict(10, ok)
