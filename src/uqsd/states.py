"""State vectors, priors, and random instance generation."""

from __future__ import annotations

__all__ = [
    "NORM_TOL",
    "InternalFaultError",
    "PureState",
    "Priors",
    "LocalPair",
    "ProductInstance",
    "checked_number",
    "checked_integer",
    "inner_product",
    "random_pure_state",
    "state_pair_with_overlap",
    "state_pairs_with_overlaps",
    "random_instance",
]

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np

# The one numerical tolerance.  NORM_TOL guards every structural identity:
# normalization, overlap snapping, probability sums, a strategy's bound
# fail_p * fail_q >= c^2 and a realization's agreement with its strategy.
NORM_TOL = 1e-12


class InternalFaultError(RuntimeError):
    """A computed quantity broke an invariant the library guarantees.

    This is a fault in uqsd, not in its input, so it is deliberately not a
    ValueError.
    """


# np.vdot gives np.dot's bits on these real views but no overflow warning:
# a squared norm past the float range is inf, which every caller handles.
def _norm_sq(vec: np.ndarray) -> float:
    re, im = vec.real, vec.imag
    return float(np.vdot(re, re)) + float(np.vdot(im, im))


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm of a complex vector: np.linalg.norm's sqrt(re.re + im.im), bit for bit."""
    return math.sqrt(_norm_sq(vec))


def _norms(stack: np.ndarray) -> list[float]:
    """`_norm` of each row of a (k, d) complex array, bit for bit, from one
    stacked (1, d) @ (d, 1) product per part; a norm past the float range is inf."""
    re, im = stack.real, stack.imag
    with np.errstate(over="ignore"):
        norm_sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(norm_sq.ravel()).tolist()


# What counts as an integer or a real number, decided once per type so that a
# check costs about what type() does: Python and numpy scalars, bool excluded
# (it subclasses int).
@functools.cache
def _is_integer(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


@functools.cache
def _is_real(kind: type) -> bool:
    return issubclass(kind, (float, np.floating)) or _is_integer(kind)


# The most characters of a bad value that an error message shows: enough to
# recognize the value, and the message stays one short line however large it is.
_SHOWN_CHARS = 60


def _shown(value) -> str:
    """repr(value) for an error message: past _SHOWN_CHARS characters, its start and '...'."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[: _SHOWN_CHARS - 3] + "..."


def checked_number(value, name: str, lo: float, hi: float) -> float:
    """`value` as a float if it is a real number in [lo, hi] (NaN is not), else ValueError."""
    if type(value) is float and lo <= value <= hi:  # the common case, at half the cost
        return value
    if not _is_real(type(value)) or not lo <= value <= hi:
        raise ValueError(f"{name}: expected a number in [{lo:g}, {hi:g}], got {_shown(value)}")
    return float(value)


def checked_integer(value, name: str, lo: int, hi: int | None = None) -> int:
    """`value` as an int if it is an integer in [lo, hi], else ValueError.

    hi = None sets no upper bound.  A float such as 2.0 is not an integer."""
    top = math.inf if hi is None else hi
    if type(value) is int and lo <= value <= top:  # the common case, at half the cost
        return value
    if not _is_integer(type(value)) or not lo <= value <= top:
        expected = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name}: expected an integer {expected}, got {_shown(value)}")
    return int(value)


def _checked_type(value, name: str, kind: type):
    # The TypeError of a public boundary given an argument of the wrong type.
    if not isinstance(value, kind):
        raise TypeError(f"{name}: expected {kind.__name__}, got {type(value).__name__}")


def _checked_seed(seed, name: str = "seed"):
    # A seed is an integer >= 0 or a non-empty tuple of seeds, such as
    # (seed, i); each entry is checked under its index, e.g. seed[0][1].
    # numpy flattens a nested tuple, so ((0, 1), 2) seeds the same stream as
    # (0, 1, 2): nesting names no sub-stream of its own.
    if isinstance(seed, tuple) and seed:
        return tuple(_checked_seed(entry, f"{name}[{i}]") for i, entry in enumerate(seed))
    return checked_integer(seed, name, 0)


@dataclasses.dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector of complex amplitudes; `dim`, their count, is derived.  See `_set_fields`."""

    amplitudes: np.ndarray
    dim: int = dataclasses.field(init=False)

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=np.complex128)
        if vec.ndim != 1 or not vec.size:
            raise ValueError(f"expected a non-empty vector of amplitudes, got shape {vec.shape}")
        _set_fields(self, vec, _norm_sq(vec))

    @classmethod
    def normalized(cls, amplitudes) -> "PureState":
        """Build a PureState from any nonzero amplitude sequence.

        The division by the norm is skipped when the norm is already 1 up to
        a few ulp, so normalizing twice is bit-identical to normalizing once.
        """
        vec = np.array(amplitudes, dtype=np.complex128)
        # Any other shape is left for the constructor to reject.
        return _normalized(vec, _norm(vec)) if vec.ndim == 1 else cls(vec)


def _normalized(vec: np.ndarray, norm: float) -> PureState:
    """PureState.normalized of a fresh 1-D complex128 vec whose norm is already known."""
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
        vec, norm = vec / norm, 1.0  # a unit vector up to rounding, by construction
    return _set_fields(object.__new__(PureState), vec, norm * norm)


def _set_fields(state: PureState, vec: np.ndarray, norm_sq: float) -> PureState:
    # Every PureState gets its fields here: vec, read-only, if its squared norm
    # is 1 up to NORM_TOL.  A non-finite entry makes norm_sq non-finite.
    if not math.isfinite(norm_sq) and not np.isfinite(vec).all():
        raise ValueError("amplitudes must be finite")
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")
    vec.setflags(write=False)
    object.__setattr__(state, "dim", vec.size)
    object.__setattr__(state, "amplitudes", vec)
    return state


@dataclasses.dataclass(frozen=True)
class Priors:
    """Preparation probabilities (r, s) of the two hypotheses, r + s = 1.

    Both are stored as Python floats, whatever real type they were given as.
    """

    r: float
    s: float

    def __post_init__(self):
        r = checked_number(self.r, "r", 0.0, 1.0)
        s = checked_number(self.s, "s", 0.0, 1.0)
        if abs(r + s - 1.0) > NORM_TOL:
            raise ValueError(f"priors must sum to 1, got {r + s!r}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)


def inner_product(a: PureState, b: PureState) -> complex:
    """Return <a|b> (conjugate-linear in the first argument)."""
    _checked_type(a, "a", PureState)
    _checked_type(b, "b", PureState)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _snapped_overlap(p: PureState, q: PureState) -> tuple[float, complex]:
    # |<p|q>| and <p|q> / |<p|q>| from one inner product.  The modulus snaps
    # to the exact endpoints so that orthogonal / identical pairs are
    # recognized exactly by downstream branch logic; once it snapped to 0,
    # the phase is 1.
    z = inner_product(p, q)
    c = abs(z)
    if c <= NORM_TOL:
        return 0.0, 1.0 + 0.0j
    if abs(c - 1.0) <= NORM_TOL:
        c = 1.0
    return c, z / c


@dataclasses.dataclass(frozen=True, eq=False)
class LocalPair:
    """One party's two hypothesis states and what both derive from one <p|q>.

    overlap_c is |<p|q>|, snapped to 0 or 1 within NORM_TOL of either end;
    phase is <p|q> / overlap_c, or 1 once the overlap snapped to 0.  A
    pair whose overlap c snapped to 0 has success probability 1, where the
    best zero-error measurement on its vectors reaches 1 - 2c*sqrt(rs) at
    priors (r, s): its p_success is overstated by at most
    2c*sqrt(rs) <= 1e-12.
    """

    p: PureState
    q: PureState
    overlap_c: float = dataclasses.field(init=False)
    phase: complex = dataclasses.field(init=False)

    def __post_init__(self):
        _checked_type(self.p, "p", PureState)
        _checked_type(self.q, "q", PureState)
        c, phase = _snapped_overlap(self.p, self.q)
        object.__setattr__(self, "overlap_c", c)
        object.__setattr__(self, "phase", phase)


@dataclasses.dataclass(frozen=True, eq=False)
class ProductInstance:
    """A product multipartite discrimination instance: one pair per party."""

    parties: tuple[LocalPair, ...]
    priors: Priors

    def __post_init__(self):
        _checked_type(self.priors, "priors", Priors)
        parties = tuple(self.parties)
        checked_integer(len(parties), "number of parties", 1)
        for k, pair in enumerate(parties):
            if not isinstance(pair, LocalPair) or pair.p.dim < 2:  # name a party only to fault it
                _checked_type(pair, f"party {k}", LocalPair)
                checked_integer(pair.p.dim, f"party {k} dim", 2)
        object.__setattr__(self, "parties", parties)

    @property
    def n_parties(self) -> int:
        return len(self.parties)


def _stream(seed) -> np.random.Generator:
    # The stream a seeded construction draws from: a given Generator itself,
    # which the construction advances, or default_rng of any other seed.
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_checked_seed(seed))


def _complex_normals(rng: np.random.Generator, dim: int, shape: tuple = ()) -> np.ndarray:
    # Complex Gaussian vectors of length dim, one per index of `shape`, from
    # one standard_normal((*shape, 2, dim)) draw with each real part before
    # its imaginary part: the layout every seeded construction reads.
    draws = rng.standard_normal((*shape, 2, dim))
    return draws[..., 0, :] + 1j * draws[..., 1, :]


def random_pure_state(dim: int, seed) -> PureState:
    """Sample a Haar-random pure state.

    Args:
        dim: System dimension, at least 2.
        seed: Seed for the pseudorandom number generator, or a
            np.random.Generator, which the state draws from and advances.

    Returns:
        A PureState whose 2*dim real Gaussian components were normalized.
    """
    dim = checked_integer(dim, "dim", 2)
    vec = _complex_normals(_stream(seed), dim)
    return _normalized(vec, _norm(vec))


def state_pair_with_overlap(c: float, dim: int, seed) -> LocalPair:
    """Build a random pair of states with a prescribed overlap |<p|q>| = c.

    The second state is c*|p> + sqrt(1-c^2)*|t> for a random |t> orthogonal
    to |p>, times a random global phase (so the complex overlap phase is
    exercised, not just its modulus).  `seed` may also be a
    np.random.Generator, which the pair draws from and advances; that is how
    `state_pairs_with_overlaps` builds each of its pairs from one stream.
    """
    c = checked_number(c, "c", 0.0, 1.0)
    dim = checked_integer(dim, "dim", 2)
    rng = _stream(seed)
    # |p> and the first candidate for |t> in one draw: the stream two draws would read.
    raw, candidate = _complex_normals(rng, dim, (2,))
    p = _normalized(raw, _norm(raw))
    p_vec = p.amplitudes
    while True:
        resid = candidate - p_vec * np.vdot(p_vec, candidate)
        if (resid_norm := _norm(resid)) > 1e-6:
            break
        candidate = _complex_normals(rng, dim)
    t_vec = _normalized(resid, resid_norm).amplitudes
    phase = np.exp(2j * np.pi * rng.random())
    q_vec = phase * (c * p_vec + math.sqrt(1.0 - c * c) * t_vec)
    return LocalPair(p, _normalized(q_vec, _norm(q_vec)))


def state_pairs_with_overlaps(cs: Sequence[float], dim: int, seed) -> tuple[LocalPair, ...]:
    """One `state_pair_with_overlap` pair per overlap in `cs`, from one stream.

    The stream is `default_rng(seed)`, and the pairs are drawn from it in
    turn, so the first pair is `state_pair_with_overlap(cs[0], dim, seed)`.
    """
    cs = [checked_number(c, f"cs[{i}]", 0.0, 1.0) for i, c in enumerate(cs)]
    dim = checked_integer(dim, "dim", 2)
    rng = np.random.default_rng(_checked_seed(seed))
    return tuple(state_pair_with_overlap(c, dim, rng) for c in cs)


def random_instance(n: int, dim: int, seed) -> ProductInstance:
    """Sample an n-party instance with Haar-random local pairs.

    Everything comes from one stream `default_rng(seed)`: first one
    standard_normal((n, 2, 2, dim)) draw, indexed by (party, hypothesis,
    real/imaginary part, amplitude), then random(2) for the priors.  `seed`
    may also be a np.random.Generator, which the instance draws from and
    advances, so that one stream can yield many instances in turn.
    """
    n = checked_integer(n, "n", 1)
    dim = checked_integer(dim, "dim", 2)
    rng = _stream(seed)
    vecs = _complex_normals(rng, dim, (n, 2)).reshape(2 * n, dim)
    states = [_normalized(vec, norm) for vec, norm in zip(vecs, _norms(vecs))]
    parties = tuple(LocalPair(p, q) for p, q in zip(states[::2], states[1::2]))
    u = rng.random(2)
    r = float(u[0] / (u[0] + u[1]))
    return ProductInstance(parties=parties, priors=Priors(r, 1.0 - r))
