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


def test_local_pair_cached_overlap_checked():
    a = random_pure_state(2, 1)
    b = random_pure_state(2, 2)
    with pytest.raises(ValueError):
        LocalPair(p=a, q=b, overlap_c=0.123456)


def test_local_pair_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        LocalPair.from_states(random_pure_state(2, 0), random_pure_state(3, 0))


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


def test_local_pair_rejects_nan_overlap():
    a = random_pure_state(2, 1)
    b = random_pure_state(2, 2)
    with pytest.raises(ValueError):
        LocalPair(p=a, q=b, overlap_c=float("nan"))
