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
    _check_lambda,
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
        if not isinstance(self.kind, BaselineKind):
            raise DomainError(f"kind must be a BaselineKind, got {self.kind!r}")
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
    cannot underflow prematurely.
    """
    x = _check_positive_time("x", x)
    y = _check_positive_time("y", y)
    lsx = log_s0(p.kind, x, p.lam)
    lsy = log_s0(p.kind, y, p.lam)
    if x < y:
        exponent = (p.alpha0 + p.alpha2) * lsy + p.alpha1 * lsx
    elif y < x:
        exponent = (p.alpha0 + p.alpha1) * lsx + p.alpha2 * lsy
    else:
        exponent = p.alpha_sum() * lsx
    return math.exp(exponent)


def jpdf_ac(p: BvfParams, x: float, y: float) -> float:
    """Density of the absolutely continuous component, defined off the
    diagonal only.

    For 0 < x < y:
        alpha1*(alpha0+alpha2) * S0(y)**(alpha0+alpha2-1) * S0(x)**(alpha1-1)
        * f0(x) * f0(y)
    and symmetrically (alpha1 <-> alpha2, x <-> y) for 0 < y < x.

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
    if x < y:
        rate = p.alpha1 * (p.alpha0 + p.alpha2)
        if rate == 0.0:
            return 0.0
        exponent = (
            math.log(p.alpha1)
            + math.log(p.alpha0 + p.alpha2)
            + (p.alpha0 + p.alpha2 - 1.0) * log_s0(p.kind, y, p.lam)
            + (p.alpha1 - 1.0) * log_s0(p.kind, x, p.lam)
        )
    else:
        rate = p.alpha2 * (p.alpha0 + p.alpha1)
        if rate == 0.0:
            return 0.0
        exponent = (
            math.log(p.alpha2)
            + math.log(p.alpha0 + p.alpha1)
            + (p.alpha0 + p.alpha1 - 1.0) * log_s0(p.kind, x, p.lam)
            + (p.alpha2 - 1.0) * log_s0(p.kind, y, p.lam)
        )
    exponent += log_f0(p.kind, x, p.lam) + log_f0(p.kind, y, p.lam)
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


def singular_density(p: BvfParams, t: float) -> float:
    """Density of the singular component along x = y:
    alpha0 * S0(t)**(alpha0+alpha1+alpha2-1) * f0(t).

    Integrates to the tie probability alpha0 / alpha_sum.
    """
    t = _check_positive_time("t", t)
    if p.alpha0 == 0.0:
        return 0.0
    exponent = (
        math.log(p.alpha0)
        + (p.alpha_sum() - 1.0) * log_s0(p.kind, t, p.lam)
        + log_f0(p.kind, t, p.lam)
    )
    try:
        return math.exp(exponent)
    except OverflowError:
        return math.inf


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
        Number of pairs, >= 1.
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
    n = int(n)
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
