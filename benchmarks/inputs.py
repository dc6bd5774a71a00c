"""Seeded scenario generation for the benchmark workloads.

Every generated scenario is written afresh on each run from the workload
seed; uqsd only ever sees the files.  Generation uses the standard library's
``random`` so that it neither imports numpy nor depends on uqsd's own
constructions.  `overlaps_of` and `priors_of` read back, without uqsd, what
the checks need from a scenario document.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

# Sizes of the timed calls.  Each is kept to tens of milliseconds: the host's
# speed swings by up to 2x in spells from milliseconds to minutes, and only the
# fastest of many short calls reads the same from run to run (see README.md).
MC_TRIALS = 1000  # trials per `simulate` call
ORDER_PARTIES = 5  # `order` prints all ORDER_PARTIES! visiting orders
SWEEP_C_POINTS = 6  # overlap values of the sweep grid, by 11 prior values
VERIFY_COUNT = 10  # `verify --trials`

# The scenarios that ship with the repository; read, never written.
SHIPPED = ("bipartite.json", "tripartite.json", "sweep.json")


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def deep_scenario(seed: int) -> dict:
    """8 parties, dim 4, overlaps falling from 0.95 to 0.70 in visiting order.

    The overlaps are a fixed ladder with a seeded jitter of at most 0.005, so
    the mean measurement count (about 5.4) and hence the cost per trial hardly
    depend on the seed; the state vectors come from the seeded abstract block.
    """
    rng = _rng(seed, "deep")
    overlaps = [0.95 - 0.25 * i / 7 + rng.uniform(-0.005, 0.005) for i in range(8)]
    return {
        "priors": {"r": 0.5},
        "abstract": {"overlaps": overlaps, "dim": 4, "seed": seed},
        "trials": MC_TRIALS,
        "seed": seed,
        "engine": "povm",
    }


def order_scenario(seed: int, n: int = ORDER_PARTIES) -> dict:
    """n parties, dim 3, one of them with identical states (overlap 1)."""
    rng = _rng(seed, "order")
    overlaps = [rng.uniform(0.1, 0.95) for _ in range(n - 1)]
    overlaps.insert(rng.randrange(n), 1.0)
    r = rng.uniform(0.2, 0.8)
    return {
        "priors": {"r": r},
        "abstract": {"overlaps": overlaps, "dim": 3, "seed": seed},
        "seed": seed,
    }


def _unit(vec: list[complex]) -> list[complex]:
    norm = math.sqrt(sum(abs(a) ** 2 for a in vec))
    return [a / norm for a in vec]


def _gaussian_vector(rng: random.Random, dim: int) -> list[complex]:
    return [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]


def _pair_with_overlap(rng: random.Random, c: float, dim: int):
    p = _unit(_gaussian_vector(rng, dim))
    raw = _gaussian_vector(rng, dim)
    proj = sum(a.conjugate() * b for a, b in zip(p, raw))
    t = _unit([b - a * proj for a, b in zip(p, raw)])
    phase = cmath.exp(2j * math.pi * rng.random())
    q = [phase * (c * a + math.sqrt(1.0 - c * c) * b) for a, b in zip(p, t)]
    return p, _unit(q)


def _as_json_vector(vec: list[complex]) -> list[list[float]]:
    return [[a.real, a.imag] for a in vec]


def explicit_scenario(seed: int, n: int = 50, dim: int = 4) -> dict:
    """n parties with explicit dim-4 amplitudes and overlaps in [0.6, 0.99]."""
    rng = _rng(seed, "explicit")
    parties = []
    for _ in range(n):
        p, q = _pair_with_overlap(rng, rng.uniform(0.6, 0.99), dim)
        parties.append({"u": _as_json_vector(p), "v": _as_json_vector(q)})
    return {"priors": {"r": rng.uniform(0.2, 0.8)}, "explicit": {"parties": parties}}


def sweep_scenario(seed: int) -> dict:
    """A (c, r) grid: c spans [0, 1] with both ends, 11 values of r inside."""
    rng = _rng(seed, "sweep")
    cs = [0.0] + sorted(rng.uniform(0.0, 1.0) for _ in range(SWEEP_C_POINTS - 2)) + [1.0]
    rs = sorted(rng.uniform(0.02, 0.98) for _ in range(11))
    return {
        "priors": {"r": 0.5},
        "abstract": {"overlaps": [0.5], "dim": 2, "seed": seed},
        "seed": seed,
        "sweep": {"c": cs, "r": rs},
    }


GENERATORS = {
    "deep": deep_scenario,
    "order": order_scenario,
    "order7": lambda seed: order_scenario(seed, 7),
    "explicit": explicit_scenario,
    "sweep": sweep_scenario,
}


def write_scenarios(directory: Path, seed: int, names) -> dict[str, Path]:
    """Generate and write the named scenarios; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(GENERATORS[name](seed)), encoding="utf-8")
        paths[name] = path
    return paths


def overlaps_of(doc: dict) -> list[float]:
    """The per-party overlaps a scenario asks for, computed without uqsd."""
    if "abstract" in doc:
        return [float(c) for c in doc["abstract"]["overlaps"]]
    out = []
    for party in doc["explicit"]["parties"]:
        u = [complex(re, im) for re, im in party["u"]]
        v = [complex(re, im) for re, im in party["v"]]
        out.append(abs(sum(a.conjugate() * b for a, b in zip(u, v))))
    return out


def priors_of(doc: dict) -> tuple[float, float]:
    r = float(doc["priors"]["r"])
    return r, float(doc["priors"].get("s", 1.0 - r))
