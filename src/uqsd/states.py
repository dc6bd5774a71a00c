"""State vectors, priors, and random instance generation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Centralized numerical tolerances.  NORM_TOL guards structural identities
# (normalization, overlap snapping, probability sums); PROB_TOL guards looser
# consistency checks between independently computed probabilities.
NORM_TOL = 1e-12
PROB_TOL = 1e-9


class InternalFaultError(RuntimeError):
    """A computed quantity broke an invariant the library guarantees.

    This is a fault in uqsd, not in its input, so it is deliberately not a
    ValueError.
    """


def _norm_sq(vec: np.ndarray) -> float:
    re, im = vec.real, vec.imag
    return float(re.dot(re) + im.dot(im))


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a complex vector, bit-identical to np.linalg.norm.

    np.linalg.norm computes sqrt(re.re + im.im) for complex input; this does
    the same arithmetic without its argument handling.
    """
    return math.sqrt(_norm_sq(vec))


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
        norm_sq = _norm_sq(vec)
        # A non-finite entry makes norm_sq non-finite, so only then scan.
        if not math.isfinite(norm_sq) and not np.isfinite(vec).all():
            raise ValueError("amplitudes must be finite")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a PureState from any nonzero amplitude sequence.

        The division by the norm is skipped when the norm is already 1 up to
        a few ulp, so normalizing twice is bit-identical to normalizing once.
        """
        vec = np.asarray(amplitudes, dtype=np.complex128)
        # Any other shape is left for the constructor to reject.
        norm = _norm(vec) if vec.ndim == 1 else 1.0
        if not 1e-150 <= norm < math.inf:
            # Zero, non-finite, or a squared norm that underflowed into the
            # subnormals or overflowed: only the last two are rescued, by
            # scaling the largest modulus to 1 first.
            if not np.isfinite(vec).all():
                raise ValueError("amplitudes must be finite")
            if not vec.any():
                raise ValueError("cannot normalize the zero vector")
            vec = vec / np.abs(vec).max()
            norm = _norm(vec)
        if abs(norm - 1.0) > 1e-13:
            vec = vec / norm
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
    """One party's two hypothesis states and their overlap |<p|q>|, computed once."""

    p: PureState
    q: PureState
    overlap_c: float = dataclasses.field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "overlap_c", _snapped_overlap(self.p, self.q))


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
    p = PureState.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    p_vec = p.amplitudes
    while True:
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        resid = raw - p_vec * np.vdot(p_vec, raw)
        if _norm(resid) > 1e-6:
            break
    t_vec = PureState.normalized(resid).amplitudes
    phase = np.exp(2j * np.pi * rng.random())
    q = PureState.normalized(phase * (c * p_vec + np.sqrt(1.0 - c * c) * t_vec))
    return LocalPair(p, q)


def random_instance(n: int, dim: int, seed) -> ProductInstance:
    """Sample an n-party instance with Haar-random local pairs.

    Sub-streams are derived by a fixed counter scheme so the result does not
    depend on evaluation order: party i draws its two states from streams
    (seed, 2i) and (seed, 2i+1); the priors use (seed, 2n).
    """
    parties = []
    for i in range(n):
        p = random_pure_state(dim, (seed, 2 * i))
        q = random_pure_state(dim, (seed, 2 * i + 1))
        parties.append(LocalPair(p, q))
    u = np.random.default_rng((seed, 2 * n)).random(2)
    r = float(u[0] / (u[0] + u[1]))
    return ProductInstance(parties=tuple(parties), priors=Priors(r, 1.0 - r))
