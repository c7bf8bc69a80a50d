"""The two per-record sums of the profile log-likelihood, for one lambda.

Fitting does not call this module: ``bvf.inference`` takes the same sums, and
their derivatives, for many datasets at once. It stays as a standalone,
reference-tested form of the sums because ``perfbench`` reads its names:
the tracer wraps :func:`lehmann_sums`, and the benchmark's environment record
reports :data:`active_backend` and :func:`available_backends`. NumPy is the
only implementation, so both report ``"python"``.
"""

import numpy as np

__all__ = [
    "lehmann_sums",
    "active_backend",
    "available_backends",
    "WEIBULL",
    "GOMPERTZ",
    "LOMAX",
]

WEIBULL = 0
GOMPERTZ = 1
LOMAX = 2

active_backend = "python"


def available_backends() -> tuple[str, ...]:
    return (active_backend,)


def lehmann_sums(kind: int, lam: float, x_all, x_unc):
    """Accumulate the two lambda-dependent sums of the log-likelihood.

    Parameters
    ----------
    kind : int
        0 Weibull, 1 Gompertz, 2 Lomax.
    lam : float
        Baseline parameter, > 0.
    x_all : ndarray
        Per-record transform of every lifetime: log(t) for Weibull, t itself
        otherwise.
    x_unc : ndarray
        Same transform restricted to uncensored records. Only Lomax reads it.

    Returns
    -------
    (float, float)
        ``a`` with sum of log S0 = -a over all records, and ``b``, the
        Lomax-only sum of log(1 + lam*t) over uncensored records (0.0 for the
        other kinds). Overflow saturates to inf rather than raising.
    """
    with np.errstate(over="ignore"):
        if kind == WEIBULL:
            return float(np.sum(np.exp(lam * x_all))), 0.0
        if kind == GOMPERTZ:
            return float(np.sum(np.expm1(lam * x_all))), 0.0
        if kind == LOMAX:
            return float(np.sum(np.log1p(lam * x_all))), float(
                np.sum(np.log1p(lam * x_unc))
            )
    raise ValueError(f"unknown kind code {kind}")
