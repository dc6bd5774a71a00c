import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsd import (
    LocalPair,
    Priors,
    ProductInstance,
    PureState,
    inner_product,
    random_instance,
    random_pure_state,
    state_pair_with_overlap,
)
import uqsd.cli
import uqsd.states
from uqsd.states import _norm


def test_inner_product_basis_vectors():
    e0 = PureState(2, np.array([1.0, 0.0]))
    e1 = PureState(2, np.array([0.0, 1.0]))
    plus = PureState.normalized([1.0, 1.0])
    assert inner_product(e0, e0) == 1.0 + 0.0j
    assert inner_product(e0, e1) == 0.0
    np.testing.assert_allclose(inner_product(e0, plus), 1 / np.sqrt(2), atol=1e-15)


def test_inner_product_rejects_dimension_mismatch():
    a = random_pure_state(2, 0)
    b = random_pure_state(3, 0)
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_inner_product_conjugate_symmetry_and_bound():
    for seed in range(50):
        a = random_pure_state(4, (seed, 0))
        b = random_pure_state(4, (seed, 1))
        ab = inner_product(a, b)
        ba = inner_product(b, a)
        assert abs(ab - np.conj(ba)) < 1e-15
        assert abs(ab) <= 1 + 1e-12


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(2, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureState(3, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        PureState.normalized([0.0, 0.0])


def test_pure_state_amplitudes_are_immutable():
    psi = random_pure_state(3, 5)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_priors_validation():
    Priors(0.25, 0.75)
    with pytest.raises(ValueError):
        Priors(0.6, 0.6)
    with pytest.raises(ValueError):
        Priors(-0.1, 1.1)


def test_random_pure_state_deterministic():
    a = random_pure_state(2, 7)
    b = random_pure_state(2, 7)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


def test_random_pure_state_normalized():
    for seed in range(20):
        psi = random_pure_state(4, seed)
        assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) < 1e-12


def test_random_pure_state_rejects_dim_one():
    with pytest.raises(ValueError):
        random_pure_state(1, 0)


def test_random_pure_state_haar_moment():
    # For Haar-random qubit states E[|<e0|psi>|^2] = 1/2.
    acc = 0.0
    for seed in range(10_000):
        acc += abs(random_pure_state(2, seed).amplitudes[0]) ** 2
    assert abs(acc / 10_000 - 0.5) < 0.02


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    c=st.floats(min_value=0.0, max_value=1.0),
    dim=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_state_pair_overlap_round_trip(c, dim, seed):
    pair = state_pair_with_overlap(c, dim, seed)
    recomputed = abs(inner_product(pair.p, pair.q))
    # <= because a requested overlap sitting right on the snap threshold may
    # legitimately come back as the exact endpoint
    assert abs(pair.overlap_c - c) <= 1e-12
    assert abs(pair.overlap_c - recomputed) <= 1e-12


def test_state_pair_endpoints():
    orth = state_pair_with_overlap(0.0, 2, 3)
    assert orth.overlap_c == 0.0
    same = state_pair_with_overlap(1.0, 2, 3)
    assert same.overlap_c == 1.0
    # overlap 1 means equality up to a global phase
    phase = inner_product(same.p, same.q)
    np.testing.assert_allclose(
        same.q.amplitudes, phase * same.p.amplitudes, atol=1e-12
    )


def test_state_pair_rejects_bad_overlap():
    with pytest.raises(ValueError):
        state_pair_with_overlap(1.5, 2, 0)
    with pytest.raises(ValueError):
        state_pair_with_overlap(-0.1, 2, 0)


def test_overlap_is_derived_once_per_pair(monkeypatch, tmp_path):
    a = random_pure_state(2, 1)
    b = random_pure_state(2, 2)
    with pytest.raises(TypeError):
        LocalPair(p=a, q=b, overlap_c=0.5)
    calls = []
    original = uqsd.states._snapped_overlap

    def counted(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(uqsd.states, "_snapped_overlap", counted)
    pair = LocalPair(a, b)
    assert len(calls) == 1
    assert pair.overlap_c == abs(inner_product(a, b))
    state_pair_with_overlap(0.3, 3, 4)
    assert len(calls) == 2

    n = 5
    inst = random_instance(n, 3, 8)

    def as_json(state):
        return [[z.real, z.imag] for z in state.amplitudes.tolist()]

    doc = {
        "priors": {"r": inst.priors.r},
        "explicit": {"parties": [{"u": as_json(pr.p), "v": as_json(pr.q)} for pr in inst.parties]},
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    del calls[:]
    parsed = uqsd.cli.parse_scenario(str(path))
    assert len(calls) == n
    assert [pr.overlap_c for pr in parsed.instance.parties] == [
        pr.overlap_c for pr in inst.parties
    ]


def test_local_pair_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        LocalPair(random_pure_state(2, 0), random_pure_state(3, 0))


def test_random_instance_deterministic():
    x = random_instance(3, 2, 5)
    y = random_instance(3, 2, 5)
    assert x.priors == y.priors
    for px, py in zip(x.parties, y.parties):
        np.testing.assert_array_equal(px.p.amplitudes, py.p.amplitudes)
        np.testing.assert_array_equal(px.q.amplitudes, py.q.amplitudes)


def test_random_instance_shapes_and_priors():
    inst = random_instance(4, 3, 9)
    assert inst.n_parties == 4
    assert all(pair.p.dim == 3 for pair in inst.parties)
    assert abs(inst.priors.r + inst.priors.s - 1.0) < 1e-12
    single = random_instance(1, 2, 0)
    assert single.n_parties == 1


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(0, 2, 0)
    with pytest.raises(ValueError):
        random_instance(2, 1, 0)


def test_product_instance_rejects_empty():
    with pytest.raises(ValueError):
        ProductInstance(parties=(), priors=Priors(0.5, 0.5))


def test_pure_state_rejects_non_finite_amplitudes():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="finite"):
            PureState(2, np.array(bad, dtype=np.complex128))
        with pytest.raises(ValueError):
            PureState.normalized(bad)


def test_normalized_rescues_norms_that_underflow_or_overflow():
    for tiny in (1e-200, 1e-160):
        assert PureState.normalized([tiny, 0.0]).amplitudes.tolist() == [1.0, 0.0]
    assert PureState.normalized([1e200, 0.0]).amplitudes.tolist() == [1.0, 0.0]
    with pytest.raises(ValueError, match="zero vector"):
        PureState.normalized([0.0, 0.0])
    for bad in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            PureState.normalized(bad)


def _digest(*states, extra=()) -> str:
    h = hashlib.sha256()
    for state in states:
        h.update(state.amplitudes.tobytes())
    for value in extra:
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


def test_seeded_constructions_are_pinned():
    # Fixed seeds must give bit-identical states across versions: reports
    # embed these amplitudes.  A deliberate change to a random stream must
    # update these digests and say why.
    states = {
        (2, 0): "1f49b9e575b91470",
        (3, 7): "c6af9a16319355f7",
        (8, (1, 2)): "e443b62a7c87ee4b",
    }
    for (dim, seed), digest in states.items():
        assert _digest(random_pure_state(dim, seed)) == digest
    pairs = {
        (0.0, 2, 3): "8cb3e4f0771bb27a",
        (1.0, 2, 3): "8bd8c98013d05183",
        (0.37, 4, 11): "021df5100d00269c",
        (0.9, 3, (5, 1)): "0019ec4b0a2521b0",
    }
    for (c, dim, seed), digest in pairs.items():
        pair = state_pair_with_overlap(c, dim, seed)
        assert _digest(pair.p, pair.q, extra=(pair.overlap_c,)) == digest
    instances = {
        (1, 2, 0): "9a9cc85738deb6ca",
        (3, 2, 5): "b2114be7c35fada4",
        (4, 3, 9): "c38c98bc93ec27bf",
    }
    for (n, dim, seed), digest in instances.items():
        inst = random_instance(n, dim, seed)
        members = [s for pair in inst.parties for s in (pair.p, pair.q)]
        assert _digest(*members, extra=(inst.priors.r, inst.priors.s)) == digest


def test_fast_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(2024)
    for dim in range(1, 65):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for _ in range(4):
                vec = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                assert _norm(vec) == np.linalg.norm(vec)


def _nonzero_vectors(max_dim):
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda dim: st.lists(
            st.tuples(parts, parts), min_size=dim, max_size=dim
        ).map(lambda pairs: np.array([complex(a, b) for a, b in pairs]))
    ).filter(lambda vec: np.linalg.norm(vec) >= 1e-3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    vec=_nonzero_vectors(64),
    where=st.integers(min_value=0),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    imag=st.booleans(),
)
def test_pure_state_rejects_every_non_finite_amplitude(vec, where, bad, imag):
    vec = vec / np.linalg.norm(vec)
    i = where % vec.size
    vec[i] = complex(vec[i].real, bad) if imag else complex(bad, vec[i].imag)
    with pytest.raises(ValueError, match="finite"):
        PureState(vec.size, vec)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    vec=_nonzero_vectors(64),
    where=st.integers(min_value=0),
    big=st.floats(min_value=1.4e154, max_value=1e308),
)
def test_pure_state_rejects_finite_amplitudes_whose_norm_overflows(vec, where, big):
    vec = vec / np.linalg.norm(vec)
    vec[where % vec.size] = big
    with pytest.raises(ValueError, match="not normalized"):
        PureState(vec.size, vec)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vec=_nonzero_vectors(64))
def test_states_round_trip_through_normalized_bit_identically(vec):
    state = PureState.normalized(vec)
    again = PureState.normalized(state.amplitudes)
    assert again.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert PureState(state.dim, again.amplitudes).amplitudes.tobytes() == state.amplitudes.tobytes()
