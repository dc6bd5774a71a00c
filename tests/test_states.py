import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsd import (
    NORM_TOL,
    LocalPair,
    Priors,
    ProductInstance,
    PureState,
    inner_product,
    random_instance,
    random_pure_state,
    state_pair_with_overlap,
    state_pairs_with_overlaps,
)
import uqsd.checks
import uqsd.cli
import uqsd.states
from uqsd.states import _norm, _normalized, _norms

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_inner_product_basis_vectors():
    e0 = PureState(np.array([1.0, 0.0]))
    e1 = PureState(np.array([0.0, 1.0]))
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
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        PureState.normalized([0.0, 0.0])


def test_pure_state_derives_dim_from_its_amplitudes():
    assert PureState([0.6, 0.8j, 0.0]).dim == 3
    with pytest.raises(TypeError):
        PureState(3, [0.6, 0.8, 0.0])  # dim is no argument
    for bad in (1.0, [[1.0, 0.0]], [[1.0], [0.0]], []):
        with pytest.raises(ValueError, match=r"^expected a non-empty vector of amplitudes, got shape"):
            PureState(bad)


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


def test_priors_store_the_checked_floats():
    # A numpy or int prior is kept as the float the check returns, so the
    # protocol computes in float64 and a report can serialize the priors.
    f32 = Priors(np.float32(0.9), 1 - np.float32(0.9))
    assert (type(f32.r), type(f32.s)) == (float, float)
    assert (f32.r, f32.s) == (float(np.float32(0.9)), float(1 - np.float32(0.9)))
    ints = Priors(1, 0)
    assert (type(ints.r), type(ints.s)) == (float, float)
    assert json.dumps(uqsd.cli._json_default(ints)) == '{"r": 1.0, "s": 0.0}'
    inst = random_instance(3, 2, 4)
    result = uqsd.run_protocol(ProductInstance(inst.parties, f32), (0, 1, 2))
    assert type(result.p_success) is float
    json.dumps(result, default=uqsd.cli._json_default)


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


def test_state_pair_redraws_a_candidate_parallel_to_p(monkeypatch):
    # The first draw's candidate for |t> is a multiple of its |p>: nothing of
    # it is orthogonal to |p>, so the construction must draw a new candidate.
    draws = []
    original = uqsd.states._complex_normals

    def parallel_first(rng, dim, shape=()):
        vecs = original(rng, dim, shape)
        if not draws:
            vecs[1] = (0.5 - 2j) * vecs[0]
        draws.append((rng, shape))
        return vecs

    monkeypatch.setattr(uqsd.states, "_complex_normals", parallel_first)
    pair = state_pair_with_overlap(0.3, 3, 11)
    assert abs(pair.overlap_c - 0.3) <= NORM_TOL
    assert abs(abs(inner_product(pair.p, pair.q)) - 0.3) <= NORM_TOL
    # |p> and its candidate in one draw, then exactly one redraw from the same stream.
    assert [shape for _, shape in draws] == [(2,), ()]
    assert draws[1][0] is draws[0][0]


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


def test_product_instance_rejects_what_it_cannot_use():
    # Each would otherwise fail later, inside run_protocol, as an AttributeError.
    pair = state_pair_with_overlap(0.5, 2, 0)
    with pytest.raises(TypeError, match=r"^priors: expected Priors, got NoneType$"):
        ProductInstance((pair,), None)
    with pytest.raises(TypeError, match=r"^party 1: expected LocalPair, got tuple$"):
        ProductInstance((pair, (pair.p, pair.q)), Priors(0.5, 0.5))


def test_pure_state_rejects_non_finite_amplitudes():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="finite"):
            PureState(np.array(bad, dtype=np.complex128))
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


def _count_norm_sq(monkeypatch) -> list:
    # Every uqsd module that binds states._norm_sq calls the counter instead.
    calls = []
    real = uqsd.states._norm_sq

    def counted(vec):
        calls.append(vec.size)
        return real(vec)

    for name, module in list(sys.modules.items()):
        in_package = name == "uqsd" or name.startswith("uqsd.")
        if in_package and getattr(module, "_norm_sq", None) is real:
            monkeypatch.setattr(module, "_norm_sq", counted)
    return calls


def test_one_squared_norm_per_parsed_state(monkeypatch, tmp_path):
    n = 50
    inst = random_instance(n, 4, 12)

    def as_json(state, scale):
        return [[scale * z.real, scale * z.imag] for z in state.amplitudes.tolist()]

    # Every third party is written off by 1e-8, so its states are divided
    # by their norm; the others are already unit and are not.
    doc = {
        "priors": {"r": inst.priors.r},
        "explicit": {
            "parties": [
                {"u": as_json(pr.p, 1.0 + 1e-8 * (k % 3 == 0)), "v": as_json(pr.q, 1.0)}
                for k, pr in enumerate(inst.parties)
            ]
        },
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    calls = _count_norm_sq(monkeypatch)
    stacks = []
    real_norms = uqsd.cli._norms

    def counted(stack):
        stacks.append(stack.shape)
        return real_norms(stack)

    monkeypatch.setattr(uqsd.cli, "_norms", counted)
    parsed = uqsd.cli.parse_scenario(str(path))
    # All 2n lists have 4 amplitudes: their squared norms are one stacked product.
    assert (calls, stacks) == ([], [(2 * n, 4)])
    for got, want in zip(parsed.instance.parties, inst.parties):
        assert got.q.amplitudes.tobytes() == want.q.amplitudes.tobytes()
        np.testing.assert_allclose(got.p.amplitudes, want.p.amplitudes, rtol=0, atol=1e-15)


def test_random_instance_states_are_each_draw_normalized_alone():
    # The one stacked norm of all 2n draws is each draw's own _norm, bit for
    # bit, in the layout of one standard_normal((n, 2, 2, dim)) draw.
    for n in range(1, 7):
        for dim in range(2, 9):
            for seed in range(50):
                draws = np.random.default_rng(seed).standard_normal((n, 2, 2, dim))
                vecs = draws[:, :, 0] + 1j * draws[:, :, 1]
                inst = random_instance(n, dim, seed)
                for pair, (p, q) in zip(inst.parties, vecs):
                    for state, vec in ((pair.p, p), (pair.q, q)):
                        want = _normalized(vec, _norm(vec)).amplitudes
                        assert state.amplitudes.tobytes() == want.tobytes()


def test_one_squared_norm_per_constructed_state(monkeypatch):
    calls = _count_norm_sq(monkeypatch)
    random_pure_state(5, 3)
    assert calls == [5]
    del calls[:]
    state_pair_with_overlap(0.4, 3, 4)  # |p>, the residual |t> and |q>
    assert calls == [3, 3, 3]
    del calls[:]
    stacks = []
    real_norms = uqsd.states._norms

    def counted(stack):
        stacks.append(stack.shape)
        return real_norms(stack)

    monkeypatch.setattr(uqsd.states, "_norms", counted)
    random_instance(3, 2, 5)  # all 2n squared norms: one stacked product
    assert (calls, stacks) == ([], [(6, 2)])
    PureState.normalized([3.0, 4.0])
    PureState([0.6, 0.8])
    assert calls == [2, 2]


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
    # random_instance draws a whole instance from one default_rng(seed).
    instances = {
        (1, 2, 0): "ac563482c991dba7",
        (3, 2, 5): "69eeb05f527117a5",
        (4, 3, 9): "e2462bfde631eabc",
    }
    for (n, dim, seed), digest in instances.items():
        inst = random_instance(n, dim, seed)
        members = [s for pair in inst.parties for s in (pair.p, pair.q)]
        assert _digest(*members, extra=(inst.priors.r, inst.priors.s)) == digest
    many = {
        ((0.0, 1.0, 0.37), 2, 3): "4c235cc0208a358a",
        ((0.9, 0.5, 0.2, 0.9), 4, (5, 1)): "e4f6f75ab472496a",
    }
    for (cs, dim, seed), digest in many.items():
        pairs = state_pairs_with_overlaps(cs, dim, seed)
        members = [s for pair in pairs for s in (pair.p, pair.q)]
        assert _digest(*members, extra=[pair.overlap_c for pair in pairs]) == digest
        first = state_pair_with_overlap(cs[0], dim, seed)
        assert _digest(first.p, first.q) == _digest(pairs[0].p, pairs[0].q)
    # An abstract scenario's parties are the pairs of its one stream.
    parsed = uqsd.cli.parse_scenario(str(SCENARIOS / "tripartite.json")).instance
    members = [s for pair in parsed.parties for s in (pair.p, pair.q)]
    extra = [pair.overlap_c for pair in parsed.parties]
    assert _digest(*members, extra=extra) == "717dc0204c0332c9"


def test_generator_seeds_draw_the_seeded_stream():
    # A Generator seed is drawn from and advanced: default_rng(s) gives the
    # digest of the seed s itself, and a second call on the same Generator
    # gives the next instance of that stream, which a replay reproduces.
    def instance_digest(inst):
        members = [s for pair in inst.parties for s in (pair.p, pair.q)]
        return _digest(*members, extra=(inst.priors.r, inst.priors.s))

    for n, dim, seed in ((1, 2, 0), (3, 2, 5), (4, 3, 9), (2, 3, (1, 2))):
        rng = np.random.default_rng(seed)
        first = instance_digest(random_instance(n, dim, rng))
        assert first == instance_digest(random_instance(n, dim, seed))
        second = instance_digest(random_instance(n, dim, rng))
        assert second != first
        replay = np.random.default_rng(seed)
        random_instance(n, dim, replay)
        assert instance_digest(random_instance(n, dim, replay)) == second
    for dim, seed in ((2, 0), (3, 7), (8, (1, 2))):
        rng = np.random.default_rng(seed)
        first = _digest(random_pure_state(dim, rng))
        assert first == _digest(random_pure_state(dim, seed))
        second = _digest(random_pure_state(dim, rng))
        assert second != first
        replay = np.random.default_rng(seed)
        random_pure_state(dim, replay)
        assert _digest(random_pure_state(dim, replay)) == second


def test_nested_tuple_seeds_are_pinned():
    # A tuple seed's entries may be tuples and numpy integers; checking them
    # must leave the stream numpy reads unchanged.
    seed = ((np.int64(0), 1), 2)
    assert _digest(random_pure_state(3, seed)) == "b59cd4a5afbf8907"
    pair = state_pair_with_overlap(0.6, 3, seed)
    assert _digest(pair.p, pair.q) == "36437d8e2f11715e"
    pairs = state_pairs_with_overlaps([0.6, 0.3], 3, seed)
    assert _digest(*[s for p in pairs for s in (p.p, p.q)]) == "7f9b1270b8893f24"
    inst = random_instance(2, 3, seed)
    members = [s for p in inst.parties for s in (p.p, p.q)]
    assert _digest(*members, extra=(inst.priors.r,)) == "c161dfdb4e9f5ef7"


def test_nested_tuple_seeds_are_flattened():
    # numpy flattens a nested tuple seed, so ((0, 1), 2) seeds the same
    # stream as (0, 1, 2): nesting names no sub-stream of its own.
    for dim in (2, 3, 8):
        nested = random_pure_state(dim, ((0, 1), 2)).amplitudes
        flat = random_pure_state(dim, (0, 1, 2)).amplitudes
        assert nested.tobytes() == flat.tobytes()
    nested = state_pair_with_overlap(0.6, 3, ((np.int64(0), 1), 2))
    flat = state_pair_with_overlap(0.6, 3, (0, 1, 2))
    assert _digest(nested.p, nested.q) == _digest(flat.p, flat.q)


def test_one_random_stream_per_seeded_construction(monkeypatch):
    streams = []
    real = np.random.default_rng

    def counted(seed):
        streams.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    random_instance(4, 3, 9)
    assert streams == [9]
    del streams[:]
    uqsd.cli.parse_scenario(str(SCENARIOS / "tripartite.json"))
    assert streams == [0]
    del streams[:]
    uqsd.checks.sweep([0.0, 0.25, 0.5, 1.0], [0.5, 0.9])  # no states: no stream
    assert streams == []
    # verify opens one stream per property group, whatever its count: the
    # (c, r) points, the order instances, the grouping instances and the
    # boundary points, in that order.
    for count in (1, 10):
        del streams[:]
        uqsd.checks.verify(1, count)
        assert streams == [(1, 0), (1, 1), (1, 2), (1, 3)]


def test_fast_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(2024)
    for dim in range(1, 65):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for _ in range(4):
                vec = scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
                assert _norm(vec) == np.linalg.norm(vec)


def test_stacked_norms_match_norm_bit_for_bit():
    rng = np.random.default_rng(2026)
    for dim in range(1, 65):
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            stack = scale * (rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim)))
            assert _norms(stack) == [_norm(vec) for vec in stack]
    # A squared norm past the float range is inf, with no overflow warning.
    big, nan = _norms(np.array([[1e200, 1e200j], [np.nan, 0.0]]))
    assert big == math.inf and math.isnan(nan)


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
        PureState(vec)


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
        PureState(vec)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vec=_nonzero_vectors(64))
def test_states_round_trip_through_normalized_bit_identically(vec):
    state = PureState.normalized(vec)
    again = PureState.normalized(state.amplitudes)
    assert again.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert PureState(again.amplitudes).amplitudes.tobytes() == state.amplitudes.tobytes()
