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


# A squared norm past the float range is inf, which both callers handle.
@np.errstate(over="ignore")
def _norm_sq(vec: np.ndarray) -> float:
    re, im = vec.real, vec.imag
    return float(re.dot(re) + im.dot(im))


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a complex vector, bit-identical to np.linalg.norm.

    np.linalg.norm computes sqrt(re.re + im.im) for complex input; this does
    the same arithmetic without its argument handling.
    """
    return math.sqrt(_norm_sq(vec))


# Python and numpy scalars.  bool subclasses int, so it is excluded by name.
_INTEGERS = (int, np.integer)
_REALS = (float, np.floating, *_INTEGERS)


def checked_number(value, name: str, lo: float, hi: float) -> float:
    """`value` as a float if it is a real number in [lo, hi] (NaN is not), else ValueError."""
    if type(value) is float and lo <= value <= hi:  # the common case, at half the cost
        return value
    if isinstance(value, bool) or not isinstance(value, _REALS) or not lo <= value <= hi:
        raise ValueError(f"{name}: expected a number in [{lo:g}, {hi:g}], got {value!r}")
    return float(value)


def checked_integer(value, name: str, lo: int, hi: int | None = None) -> int:
    """`value` as an int if it is an integer in [lo, hi], else ValueError.

    hi = None sets no upper bound.  A float such as 2.0 is not an integer."""
    top = math.inf if hi is None else hi
    if type(value) is int and lo <= value <= top:  # the common case, at half the cost
        return value
    if isinstance(value, bool) or not isinstance(value, _INTEGERS) or not lo <= value <= top:
        expected = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name}: expected an integer {expected}, got {value!r}")
    return int(value)


def _checked_seed(seed):
    # A tuple seed names a sub-stream and is left for numpy to read.
    return seed if isinstance(seed, tuple) else checked_integer(seed, "seed", 0)


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector of complex amplitudes on a d-dimensional system."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        checked_integer(self.dim, "dim", 1)
        vec = np.array(self.amplitudes, dtype=np.complex128)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} amplitudes, got shape {vec.shape}")
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
        checked_number(self.r, "r", 0.0, 1.0)
        checked_number(self.s, "s", 0.0, 1.0)
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
        checked_integer(len(parties), "number of parties", 1)
        for k, pair in enumerate(parties):
            checked_integer(pair.p.dim, f"party {k} dim", 2)
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
    dim = checked_integer(dim, "dim", 2)
    rng = np.random.default_rng(_checked_seed(seed))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(vec)


def state_pair_with_overlap(c: float, dim: int, seed) -> LocalPair:
    """Build a random pair of states with a prescribed overlap |<p|q>| = c.

    The second state is c*|p> + sqrt(1-c^2)*|t> for a random |t> orthogonal
    to |p>, times a random global phase (so the complex overlap phase is
    exercised, not just its modulus).
    """
    c = checked_number(c, "c", 0.0, 1.0)
    dim = checked_integer(dim, "dim", 2)
    rng = np.random.default_rng(_checked_seed(seed))
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
    n = checked_integer(n, "n", 1)
    seed = _checked_seed(seed)
    parties = []
    for i in range(n):
        p = random_pure_state(dim, (seed, 2 * i))
        q = random_pure_state(dim, (seed, 2 * i + 1))
        parties.append(LocalPair(p, q))
    u = np.random.default_rng((seed, 2 * n)).random(2)
    r = float(u[0] / (u[0] + u[1]))
    return ProductInstance(parties=tuple(parties), priors=Priors(r, 1.0 - r))
