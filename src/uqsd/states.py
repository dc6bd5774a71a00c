"""State vectors, priors, and random instance generation."""

from __future__ import annotations

import dataclasses

import numpy as np

# Centralized numerical tolerances.  NORM_TOL guards structural identities
# (normalization, cached overlaps, probability sums); PROB_TOL guards looser
# consistency checks between independently computed probabilities.
NORM_TOL = 1e-12
PROB_TOL = 1e-9


class InternalFaultError(RuntimeError):
    """A computed quantity broke an invariant the library guarantees.

    This is a fault in uqsd, not in its input, so it is deliberately not a
    ValueError.
    """


def _as_unit_vector(amplitudes) -> np.ndarray:
    """Coerce to a read-only complex vector, renormalizing only if needed.

    The renormalization is skipped when the norm is already 1 up to a few ulp,
    so the operation is idempotent: normalizing twice is bit-identical to
    normalizing once.
    """
    vec = np.array(amplitudes, dtype=np.complex128)
    if vec.ndim != 1 or vec.size == 0:
        raise ValueError("amplitudes must be a non-empty 1-D sequence")
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not np.isfinite(norm):
        raise ValueError("amplitudes must be finite")
    if abs(norm - 1.0) > 1e-13:
        vec = vec / norm
    vec.setflags(write=False)
    return vec


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector of complex amplitudes on a d-dimensional system."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        vec = np.array(self.amplitudes, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} amplitudes, got shape {vec.shape}"
            )
        if not np.isfinite(vec).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(vec) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a PureState from any nonzero amplitude sequence."""
        vec = _as_unit_vector(amplitudes)
        return cls(dim=vec.size, amplitudes=vec)


@dataclasses.dataclass(frozen=True)
class Priors:
    """Preparation probabilities (r, s) of the two hypotheses, r + s = 1."""

    r: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0 and 0.0 <= self.s <= 1.0):
            raise ValueError(f"priors must lie in [0, 1], got ({self.r}, {self.s})")
        if abs(self.r + self.s - 1.0) > NORM_TOL:
            raise ValueError(f"priors must sum to 1, got {self.r + self.s!r}")


def inner_product(a: PureState, b: PureState) -> complex:
    """Return <a|b> (conjugate-linear in the first argument)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _snapped_overlap(p: PureState, q: PureState) -> float:
    # Snap to the exact endpoints so that orthogonal / identical pairs are
    # recognized exactly by downstream branch logic.
    c = abs(inner_product(p, q))
    if c <= NORM_TOL:
        return 0.0
    if abs(c - 1.0) <= NORM_TOL:
        return 1.0
    return c


@dataclasses.dataclass(frozen=True, eq=False)
class LocalPair:
    """One party's two hypothesis states and their cached overlap |<p|q>|."""

    p: PureState
    q: PureState
    overlap_c: float

    def __post_init__(self):
        if self.p.dim != self.q.dim:
            raise ValueError(
                f"pair states must share a dimension: {self.p.dim} vs {self.q.dim}"
            )
        # Written so that a NaN overlap fails the check.
        if not abs(self.overlap_c - _snapped_overlap(self.p, self.q)) <= NORM_TOL:
            raise ValueError(
                f"cached overlap {self.overlap_c!r} disagrees with recomputation"
            )

    @classmethod
    def from_states(cls, p: PureState, q: PureState) -> "LocalPair":
        return cls(p=p, q=q, overlap_c=_snapped_overlap(p, q))


@dataclasses.dataclass(frozen=True, eq=False)
class ProductInstance:
    """A product multipartite discrimination instance: one pair per party."""

    parties: tuple[LocalPair, ...]
    priors: Priors

    def __post_init__(self):
        parties = tuple(self.parties)
        if len(parties) < 1:
            raise ValueError("an instance needs at least one party")
        for k, pair in enumerate(parties):
            if pair.p.dim < 2:
                raise ValueError(f"party {k} has dim {pair.p.dim}; need dim >= 2")
        object.__setattr__(self, "parties", parties)

    @property
    def n_parties(self) -> int:
        return len(self.parties)


def random_pure_state(dim: int, seed) -> PureState:
    """Sample a Haar-random pure state.

    Args:
        dim: System dimension, at least 2.
        seed: Seed for the pseudorandom number generator.

    Returns:
        A PureState whose 2*dim real Gaussian components were normalized.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(vec)


def state_pair_with_overlap(c: float, dim: int, seed) -> LocalPair:
    """Build a random pair of states with a prescribed overlap |<p|q>| = c.

    The second state is c*|p> + sqrt(1-c^2)*|t> for a random |t> orthogonal
    to |p>, times a random global phase (so the complex overlap phase is
    exercised, not just its modulus).
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {c}")
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    rng = np.random.default_rng(seed)
    p_vec = _as_unit_vector(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    while True:
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        resid = raw - p_vec * np.vdot(p_vec, raw)
        if np.linalg.norm(resid) > 1e-6:
            break
    t_vec = _as_unit_vector(resid)
    phase = np.exp(2j * np.pi * rng.random())
    q_vec = _as_unit_vector(phase * (c * p_vec + np.sqrt(1.0 - c * c) * t_vec))
    return LocalPair.from_states(PureState.normalized(p_vec), PureState.normalized(q_vec))


def random_instance(n: int, dim: int, seed) -> ProductInstance:
    """Sample an n-party instance with Haar-random local pairs.

    Sub-streams are derived by a fixed counter scheme so the result does not
    depend on evaluation order: party i draws its two states from streams
    (seed, 2i) and (seed, 2i+1); the priors use (seed, 2n).
    """
    if n < 1:
        raise ValueError(f"need at least one party, got {n}")
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    parties = []
    for i in range(n):
        p = random_pure_state(dim, (seed, 2 * i))
        q = random_pure_state(dim, (seed, 2 * i + 1))
        parties.append(LocalPair.from_states(p, q))
    u = np.random.default_rng((seed, 2 * n)).random(2)
    r = float(u[0] / (u[0] + u[1]))
    return ProductInstance(parties=tuple(parties), priors=Priors(r, 1.0 - r))
