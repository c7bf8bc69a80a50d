"""Univariate Lehmann baseline distributions.

Three baseline survival functions S0(t; lambda) are supported; raising any of
them to a power alpha > 0 yields another valid survival function, which is the
closure property the bivariate family is built on.

============  =========================  =====================
kind          S0(t; lambda)              hazard h0(t; lambda)
============  =========================  =====================
Weibull       exp(-t**lam)               lam * t**(lam-1)
Gompertz      exp(-(exp(lam*t) - 1))     lam * exp(lam*t)
Lomax         1 / (1 + lam*t)            lam / (1 + lam*t)
============  =========================  =====================

All functions are pure and scalar. Likelihood code must consume the ``log_*``
variants: the plain ones underflow for large t (the Gompertz survival decays
doubly exponentially). One overflow rule (:func:`_or_inf`): a result past
double range saturates to the signed infinity instead of raising, and log f0
is ``-inf`` wherever log S0 is, whatever its other terms read.
"""

import enum
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "BaselineKind",
    "s0",
    "log_s0",
    "f0",
    "log_f0",
    "h0",
    "s0_inv",
]


class BaselineKind(enum.Enum):
    """The admissible baseline families. Exactly these three; the enum is the
    only way to select one."""

    WEIBULL = "Weibull"
    GOMPERTZ = "Gompertz"
    LOMAX = "Lomax"

    @classmethod
    def parse(cls, text: str) -> "BaselineKind":
        """Case-insensitive lookup by name, e.g. ``"weibull"``."""
        for member in cls:
            if member.value.lower() == text.strip().lower():
                return member
        raise DomainError(
            f"unknown baseline kind {text!r}; expected one of "
            + ", ".join(m.value.lower() for m in cls)
        )

    @property
    def order(self) -> int:
        """Fixed position used for deterministic tie-breaking."""
        return _ORDER[self]


_ORDER = {kind: i for i, kind in enumerate(BaselineKind)}


def _check_kind(kind) -> None:
    """Raise DomainError unless ``kind`` is a BaselineKind."""
    if not isinstance(kind, BaselineKind):
        raise DomainError(f"kind must be a BaselineKind, got {kind!r}")


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (lam > 0.0) or math.isinf(lam):
        raise DomainError(f"lambda must be a positive finite real, got {lam!r}")
    return lam


def _check_time(t: float) -> float:
    t = float(t)
    if not (t >= 0.0):
        raise DomainError(f"t must be >= 0, got {t!r}")
    if math.isinf(t):
        raise DomainError("t must be finite")
    return t


def _or_inf(f, *args) -> float:
    """``f(*args)``, or ``inf`` where it overflows: Python's float ``**`` and
    ``math`` functions raise OverflowError there instead of returning inf."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def log_s0(kind: BaselineKind, t: float, lam: float) -> float:
    """Log survival function log S0(t; lambda).

    Parameters
    ----------
    kind : BaselineKind
    t : float
        Time, >= 0.
    lam : float
        Baseline parameter, > 0.

    Returns
    -------
    float
        A value <= 0; ``-inf`` when the survival underflows entirely.

    Raises
    ------
    DomainError
        If ``kind`` is not a BaselineKind, ``t < 0`` or ``lam <= 0``.
    """
    t = _check_time(t)
    lam = _check_lambda(lam)
    if kind is BaselineKind.WEIBULL:
        return -_or_inf(pow, t, lam)
    if kind is BaselineKind.GOMPERTZ:
        return -_or_inf(math.expm1, lam * t)
    _check_kind(kind)
    return -math.log1p(lam * t)


def s0(kind: BaselineKind, t: float, lam: float) -> float:
    """Baseline survival function S0(t; lambda), in (0, 1] (0 on underflow).

    Strictly decreasing in t with S0(0) = 1 and limit 0 at infinity.
    """
    return math.exp(log_s0(kind, t, lam))


def log_f0(kind: BaselineKind, t: float, lam: float) -> float:
    """Log density log f0(t; lambda), where f0 = -dS0/dt.

    ``t = 0`` is accepted wherever the density is finite there; the Weibull
    with ``lam < 1`` has a pole at 0 and raises.
    """
    t = _check_time(t)
    lam = _check_lambda(lam)
    # log f0 = log h0 + log S0, with log S0 as in log_s0
    if kind is BaselineKind.WEIBULL:
        if t == 0.0:
            if lam < 1.0:
                raise DomainError("Weibull density with lambda < 1 has a pole at t=0")
            if lam == 1.0:
                return math.log(lam)
            return -math.inf
        log_s = -_or_inf(pow, t, lam)
        log_h = math.log(lam) + (lam - 1.0) * math.log(t)
    elif kind is BaselineKind.GOMPERTZ:
        log_s = -_or_inf(math.expm1, lam * t)
        log_h = math.log(lam) + lam * t
    else:
        _check_kind(kind)
        return math.log(lam) - 2.0 * math.log1p(lam * t)
    # the density vanishes with the survival, whatever log h0 reads
    return -math.inf if log_s == -math.inf else log_h + log_s


def f0(kind: BaselineKind, t: float, lam: float) -> float:
    """Baseline density f0(t; lambda) = -dS0/dt, >= 0."""
    return _or_inf(math.exp, log_f0(kind, t, lam))


def h0(kind: BaselineKind, t: float, lam: float) -> float:
    """Baseline hazard rate h0 = f0 / S0.

    Closed forms per kind are used directly; see the module table.
    """
    t = _check_time(t)
    lam = _check_lambda(lam)
    if kind is BaselineKind.WEIBULL:
        if t == 0.0:
            if lam < 1.0:
                raise DomainError("Weibull hazard with lambda < 1 has a pole at t=0")
            return lam if lam == 1.0 else 0.0
        return lam * _or_inf(pow, t, lam - 1.0)
    if kind is BaselineKind.GOMPERTZ:
        return lam * _or_inf(math.exp, lam * t)
    _check_kind(kind)
    return lam / (1.0 + lam * t)


def _s0_inv_log(kind: BaselineKind, log_p: float, lam: float) -> float:
    """Inverse survival evaluated from log p; log_p <= 0, possibly -inf.
    ``kind`` must already be a BaselineKind."""
    if kind is BaselineKind.WEIBULL:
        return _or_inf(pow, -log_p, 1.0 / lam)
    if kind is BaselineKind.GOMPERTZ:
        return math.log1p(-log_p) / lam
    return _or_inf(math.expm1, -log_p) / lam


def s0_inv(kind: BaselineKind, p: float, lam: float) -> float:
    """Inverse of the survival function: the t with S0(t; lambda) = p.

    Parameters
    ----------
    kind : BaselineKind
    p : float
        Survival probability in (0, 1].
    lam : float
        Baseline parameter, > 0.

    Returns
    -------
    float
        Time >= 0; round trip with :func:`s0` holds to 1e-12 relative.

    Raises
    ------
    DomainError
        If ``kind`` is not a BaselineKind or ``p`` is outside (0, 1].
    """
    _check_kind(kind)
    p = float(p)
    lam = _check_lambda(lam)
    if not (0.0 < p <= 1.0):
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    return _s0_inv_log(kind, math.log(p), lam)


def _s0_inv_log_array(kind: BaselineKind, log_p: np.ndarray, lam: float) -> np.ndarray:
    """Vector version of ``_s0_inv_log`` for the sampler; log_p entries <= 0
    (``-inf`` maps to ``+inf`` time, i.e. an event that never happens).
    ``kind`` must already be a BaselineKind."""
    with np.errstate(over="ignore"):
        if kind is BaselineKind.WEIBULL:
            return (-log_p) ** (1.0 / lam)
        if kind is BaselineKind.GOMPERTZ:
            return np.log1p(-log_p) / lam
        return np.expm1(-log_p) / lam
