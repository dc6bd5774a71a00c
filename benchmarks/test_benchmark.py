"""Tests of the benchmark's own reference, inputs and command.

Run from the repository root:  python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_flat_priors_half_overlap_gives_one_half():
    assert reference.global_optimum(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_saturated_regime_hand_value():
    # sqrt(0.1 / 0.9) = 1/3 < 0.5, so the optimum is r (1 - c^2) = 0.9 * 0.75.
    assert reference.global_optimum(0.5, 0.9, 0.1) == pytest.approx(0.675, abs=1e-15)
    assert reference.global_optimum(0.5, 0.1, 0.9) == pytest.approx(0.675, abs=1e-15)


@pytest.mark.parametrize("c", [0.05, 0.3, 0.5, 0.8, 0.95])
def test_branches_agree_at_the_regime_boundary(c):
    r = 1.0 / (1.0 + c * c)  # sqrt(s / r) = c
    s = 1.0 - r
    equal_posterior = 1.0 - 2.0 * math.sqrt(r * s) * c
    saturated = r * (1.0 - c * c)
    assert equal_posterior == pytest.approx(saturated, abs=1e-15)
    assert reference.global_optimum(c, r, s) == pytest.approx(saturated, abs=1e-15)
    above = reference.global_optimum(c, r + 1e-9, s - 1e-9)
    below = reference.global_optimum(c, r - 1e-9, s + 1e-9)
    assert abs(above - below) < 1e-8


def test_endpoints():
    assert reference.global_optimum(0.0, 0.3, 0.7) == 1.0
    assert reference.global_optimum(1.0, 0.5, 0.5) == 0.0
    assert reference.global_optimum(1.0, 1.0, 0.0) == 0.0


def test_expected_count_hand_values():
    # Flat priors: the second party is reached with probability f(0.5) = 0.5.
    assert reference.expected_count([0.5, 0.5], 0.5, 0.5) == pytest.approx(1.5)
    assert reference.expected_count([0.5, 0.5, 0.5], 0.5, 0.5) == pytest.approx(1.75)
    # Saturated: f(0.5) = 0.9 * 0.25 + 0.1.
    assert reference.expected_count([0.5, 0.5], 0.9, 0.1) == pytest.approx(1.325)
    # A party with identical states is skipped and costs nothing.
    assert reference.expected_count([1.0, 0.5, 1.0, 0.5], 0.5, 0.5) == pytest.approx(1.5)
    assert reference.expected_count([1.0, 1.0], 0.5, 0.5) == 0.0
    # An orthogonal first party always concludes.
    assert reference.expected_count([0.0, 0.5], 0.5, 0.5) == 1.0


def test_count_variance_hand_value():
    # N is 1 or 2 with probability 1/2 each.
    assert reference.count_variance([0.5, 0.5], 0.5, 0.5) == pytest.approx(0.25)
    assert reference.count_variance([0.0, 0.5], 0.5, 0.5) == 0.0


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_inputs_depend_only_on_the_seed(name):
    make = inputs.GENERATORS[name]
    assert json.dumps(make(3)) == json.dumps(make(3))
    assert json.dumps(make(3)) != json.dumps(make(4))


def test_explicit_inputs_are_unit_vectors_with_the_drawn_overlaps():
    doc = inputs.explicit_scenario(5)
    assert len(doc["explicit"]["parties"]) == 50
    for party in doc["explicit"]["parties"]:
        for key in ("u", "v"):
            norm = math.sqrt(sum(re * re + im * im for re, im in party[key]))
            assert norm == pytest.approx(1.0, abs=1e-12)
    assert all(0.6 - 1e-12 <= c <= 0.99 + 1e-12 for c in inputs.overlaps_of(doc))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("workload", ["mc", "exact", "cli"])
def test_smoke_run_of_each_workload(workload):
    proc = run_bench("--workload", workload, "--seed", "2", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("--workload", "cli", "--seed", "2", "--seconds", "0.01", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert set(metrics) == declared("per_layer")
    assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
