"""The bivariate family BVF(alpha0, alpha1, alpha2, lambda).

Construction: three independent latent shocks U0, U1, U2 with survival
S0(u)**alpha_i define the pair X = min(U0, U1), Y = min(U0, U2). The shared
shock U0 induces both dependence and a genuine atom on the diagonal:
P(X = Y) = alpha0 / (alpha0 + alpha1 + alpha2).

The distribution therefore splits into an absolutely continuous part on the
off-diagonal (:func:`jpdf_ac`) and a singular part living on the line x = y
(:func:`singular_density`); the two integrate to 1 together.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .baselines import (
    BaselineKind,
    _check_kind,
    _check_lambda,
    _or_inf,
    _s0_inv_log,
    _s0_inv_log_array,
    log_f0,
    log_s0,
)
from .errors import DomainError, ValidationError

__all__ = [
    "BvfParams",
    "OrderingProbabilities",
    "joint_survival",
    "jpdf_ac",
    "singular_density",
    "tie_probability",
    "sample",
    "censoring_threshold",
]

Seed = Union[int, None, np.random.Generator, np.random.SeedSequence]


@dataclass(frozen=True)
class BvfParams:
    """Parameter vector of the bivariate family.

    Parameters
    ----------
    kind : BaselineKind
        Baseline family shared by all three shocks.
    alpha0, alpha1, alpha2 : float
        Frailty exponents of the shared shock and the two individual shocks.
        Each must be >= 0 and their sum > 0; a zero component means that
        shock never fires (the boundary case a fit reports when a failure
        mode is absent from the data).
    lam : float
        Baseline parameter lambda, > 0.
    """

    kind: BaselineKind
    alpha0: float
    alpha1: float
    alpha2: float
    lam: float

    def __post_init__(self):
        _check_kind(self.kind)
        for name in ("alpha0", "alpha1", "alpha2"):
            value = float(getattr(self, name))
            if not (value >= 0.0) or math.isinf(value):
                raise DomainError(f"{name} must be a finite real >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "lam", _check_lambda(self.lam))
        if self.alpha0 + self.alpha1 + self.alpha2 <= 0.0:
            raise DomainError("alpha0 + alpha1 + alpha2 must be > 0")

    def alpha_sum(self) -> float:
        return self.alpha0 + self.alpha1 + self.alpha2

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "alpha0": self.alpha0,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "lambda": self.lam,
        }


class OrderingProbabilities(NamedTuple):
    """P(X < Y), P(Y < X), P(X = Y), in that order."""

    x_first: float
    y_first: float
    tie: float


def _check_positive_time(name: str, t: float) -> float:
    t = float(t)
    if not (t > 0.0):
        raise DomainError(f"{name} must be > 0, got {t!r}")
    return t


def joint_survival(p: BvfParams, x: float, y: float) -> float:
    """Joint survival P(X > x, Y > y).

    Piecewise in the ordering of the arguments:

    * x < y: S0(y)**(alpha0+alpha2) * S0(x)**alpha1
    * y < x: S0(x)**(alpha0+alpha1) * S0(y)**alpha2
    * x = y: S0(x)**(alpha0+alpha1+alpha2)

    Evaluated as the exponential of sums of alpha * log S0 terms, so it
    cannot underflow prematurely. A term whose alpha is 0 is left out,
    since S0**0 = 1 even where S0 underflows to 0.
    """
    x = _check_positive_time("x", x)
    y = _check_positive_time("y", y)
    lsx = log_s0(p.kind, x, p.lam)
    lsy = log_s0(p.kind, y, p.lam)
    if x < y:
        terms = ((p.alpha0 + p.alpha2, lsy), (p.alpha1, lsx))
    elif y < x:
        terms = ((p.alpha0 + p.alpha1, lsx), (p.alpha2, lsy))
    else:
        terms = ((p.alpha_sum(), lsx),)
    return math.exp(sum(alpha * ls for alpha, ls in terms if alpha))


def jpdf_ac(p: BvfParams, x: float, y: float) -> float:
    """Density of the absolutely continuous component, defined off the
    diagonal only.

    For 0 < x < y:
        alpha1*(alpha0+alpha2) * S0(y)**(alpha0+alpha2-1) * S0(x)**(alpha1-1)
        * f0(x) * f0(y)
    and symmetrically (alpha1 <-> alpha2, x <-> y) for 0 < y < x. It is 0
    where either survival underflows: each S0**(alpha-1) * f0 factor is
    h0 * S0**alpha, and h0 grows more slowly than S0 decays.

    Raises
    ------
    DomainError
        If x = y (that line carries the singular component) or either
        coordinate is non-positive.
    """
    x = _check_positive_time("x", x)
    y = _check_positive_time("y", y)
    if x == y:
        raise DomainError("jpdf_ac is undefined on the diagonal x = y")
    a1, a2 = p.alpha1, p.alpha2
    if y < x:
        # the x < y branch, mirrored
        x, y, a1, a2 = y, x, a2, a1
    if a1 * (p.alpha0 + a2) == 0.0:
        return 0.0
    log_sx, log_sy = log_s0(p.kind, x, p.lam), log_s0(p.kind, y, p.lam)
    if -math.inf in (log_sx, log_sy):
        return 0.0
    exponent = (
        math.log(a1)
        + math.log(p.alpha0 + a2)
        + (p.alpha0 + a2 - 1.0) * log_sy
        + (a1 - 1.0) * log_sx
    )
    exponent += log_f0(p.kind, x, p.lam) + log_f0(p.kind, y, p.lam)
    return _or_inf(math.exp, exponent)


def singular_density(p: BvfParams, t: float) -> float:
    """Density of the singular component along x = y:
    alpha0 * S0(t)**(alpha0+alpha1+alpha2-1) * f0(t).

    Integrates to the tie probability alpha0 / alpha_sum; 0 where the
    survival underflows, as :func:`jpdf_ac` is.
    """
    t = _check_positive_time("t", t)
    if p.alpha0 == 0.0:
        return 0.0
    log_s = log_s0(p.kind, t, p.lam)
    if log_s == -math.inf:
        return 0.0
    exponent = math.log(p.alpha0) + (p.alpha_sum() - 1.0) * log_s + log_f0(p.kind, t, p.lam)
    return _or_inf(math.exp, exponent)


def tie_probability(p: BvfParams) -> OrderingProbabilities:
    """The ordering probabilities (P(X<Y), P(Y<X), P(X=Y)) =
    (alpha1, alpha2, alpha0) / alpha_sum.

    Depends only on the alphas; identical across kinds and lambda.
    """
    total = p.alpha_sum()
    return OrderingProbabilities(
        x_first=p.alpha1 / total,
        y_first=p.alpha2 / total,
        tie=p.alpha0 / total,
    )


def _seed_sequence(seed) -> np.random.SeedSequence:
    """None, an integer >= 0 or a SeedSequence as a SeedSequence, whose
    ``default_rng`` draws what the seed's own would; any other seed is a
    ValidationError."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is not None and (
        not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0
    ):
        raise ValidationError(
            f"seed must be None, an integer >= 0 or a SeedSequence, got {seed!r}"
        )
    return np.random.SeedSequence(seed)


# NumPy's SeedSequence is O'Neill's seed_seq hash (M. O'Neill, "Developing a
# seed_seq alternative", pcg-random.org, 2015) with these constants; NEP 19
# keeps its streams, and PCG64's seeding from them, stable across releases
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _word_count(x) -> int:
    """How many 32-bit words SeedSequence reads from an entropy or spawn-key
    value: an integer splits into little-endian words (0 is one word), a
    sequence into its entries' words."""
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    return sum(_word_count(v) for v in x)


def _child_states(parent: np.random.SeedSequence, keys) -> np.ndarray:
    """PCG64 seed words of children of ``parent``, hashed for all of them at
    once: row r of the (R, 4) uint64 result is

        SeedSequence(parent.entropy, spawn_key=parent.spawn_key + keys[r],
                     pool_size=parent.pool_size).generate_state(4, np.uint64)

    ``keys`` is an (R, d) array of integers in [0, 2**32), one spawn-key
    suffix per row; the r-th child of a parent's ``spawn`` has the suffix
    (parent.n_children_spawned + r,). Each entry is then one 32-bit word
    (SeedSequence splits larger ones into two); every caller keeps them
    below 2**32: ``bootstrap_ci`` bounds the spawn counter plus B, and the
    study configs bound their replication and resample counts.

    A child's entropy words are its parent's followed by its key words, so
    its pool is the parent's ``pool`` with the key words mixed in, and the
    hash constant resumes where the parent's left off: after P*P hashes for
    the pool of P words, and P per word past the pool."""
    P = parent.pool_size
    n_words = _word_count(parent.entropy)
    if parent.spawn_key:
        # a spawned sequence's entropy is zero-padded to the pool size
        n_words = max(n_words, P) + _word_count(parent.spawn_key)
    hashes = P * P + P * max(0, n_words - P)
    return _hashed_states(parent.pool, np.asarray(keys, dtype=np.uint32), hashes)


def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """The hash constants init * mult**k mod 2**32 for k in [start, start +
    count), as uint32."""
    h = [init * pow(mult, start, 1 << 32) & _MASK32]
    for _ in range(count - 1):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)


def _hashed_states(pool, words: np.ndarray, hashes: int) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` continued from ``pool`` after
    ``hashes`` hashes, over the (R, W) uint32 ``words`` row by row, then
    ``generate_state(4, np.uint64)`` per row. A word is hashed once per
    pool word, with successive constants, and each hash mixes into its own
    pool word only, so one word mixes into the whole (R, P) pool at once.
    Elementwise uint32 arithmetic wraps modulo 2**32, as the hash's C code
    does; all operands are uint32 arrays or scalars, so NumPy promotes alike
    before and after NEP 50."""
    R, W = words.shape
    P = len(pool)
    shift = np.uint32(16)
    h = _hash_constants(_INIT_A, _MULT_A, hashes, P * W + 1)
    mixer = np.broadcast_to(pool, (R, P))
    for w in range(W):
        # hashmix: xor with one constant, multiply by the next
        value = (words[:, w : w + 1] ^ h[w * P : (w + 1) * P]) * h[w * P + 1 : (w + 1) * P + 1]
        value ^= value >> shift
        mixer = np.uint32(_MIX_MULT_L) * mixer - np.uint32(_MIX_MULT_R) * value
        mixer ^= mixer >> shift
    # generate_state cycles through the pool for 8 uint32 words
    h = _hash_constants(_INIT_B, _MULT_B, 0, 9)
    value = (mixer[:, np.arange(8) % P] ^ h[:8]) * h[1:]
    value ^= value >> shift
    # little-endian pairs of uint32 words make the uint64 words
    return np.ascontiguousarray(value, dtype="<u4").view("<u8").astype(np.uint64)


# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_state(words) -> dict:
    """The ``PCG64.state`` that PCG64 seeded from a SeedSequence starts in,
    given that sequence's ``generate_state(4, np.uint64)`` as four ints (a
    row of :func:`_child_states`). Words 0-1 are ``initstate`` and words
    2-3 ``initseq``, high word first; the increment is 2 * initseq + 1, and
    the state is two LCG steps from 0 with ``initstate`` added between."""
    s0, s1, s2, s3 = words
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _check_count(name: str, value) -> int:
    """A count (a size, a replication or resample number) as an int: an int
    or NumPy integer passes, anything else, bool included, is a
    ValidationError. Ranges are the caller's to check."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def sample(p: BvfParams, n: int, seed: Seed = None) -> np.ndarray:
    """Draw ``n`` pairs (x, y) exactly from the family.

    Inverse-transform sampling of each shock: with V uniform on (0, 1),
    U = S0_inv(V**(1/alpha)) has survival S0**alpha. The power is taken in
    the log domain (log V / alpha), which stays exact for arbitrarily small
    alpha. Ties are bit-exact: when the shared shock U0 is the overall
    minimum, both coordinates receive the identical float, so downstream
    classification may use ``x == y`` without tolerance.

    Parameters
    ----------
    p : BvfParams
    n : int
        Number of pairs, an integer >= 1 (a non-integer is a
        ValidationError).
    seed : int | None | numpy Generator | SeedSequence
        Reproducibility handle; a given seed fully determines the output. A
        Generator is drawn from as it is; any other seed must be None, an
        integer >= 0 or a SeedSequence (else ValidationError), and gives
        what ``default_rng(seed)`` draws.

    Returns
    -------
    ndarray of shape (n, 2)
        Columns x, y; every entry strictly positive.
    """
    n = _check_count("n", n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(_seed_sequence(seed))
    x, y = _pairs_from_uniforms(p, rng.random((3, n)))
    return np.column_stack((x, y))


def _pairs_from_uniforms(p: BvfParams, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverse transform behind :func:`sample`: uniforms of shape
    (..., 3, n), one row per shock, to the coordinates x and y, each of shape
    (..., n). Elementwise, so a stack of draws gives each draw's pairs bit for
    bit."""
    alphas = np.array([[p.alpha0], [p.alpha1], [p.alpha2]])
    with np.errstate(divide="ignore"):
        log_p = np.log(v) / alphas
    u = _s0_inv_log_array(p.kind, log_p, p.lam)
    return np.minimum(u[..., 0, :], u[..., 1, :]), np.minimum(u[..., 0, :], u[..., 2, :])


def censoring_threshold(p: BvfParams, target_censored_fraction: float) -> float:
    """The fixed time C at which Type-I censoring leaves the requested
    expected fraction unobserved.

    T = min(X, Y) has survival S0**alpha_sum, so
    C = S0_inv(fraction**(1/alpha_sum)).
    """
    fraction = float(target_censored_fraction)
    if not (0.0 < fraction < 1.0):
        raise DomainError(
            f"target censored fraction must lie in (0, 1), got {fraction!r}"
        )
    return _s0_inv_log(p.kind, math.log(fraction) / p.alpha_sum(), p.lam)
