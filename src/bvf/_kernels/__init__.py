"""Kernel backend selection.

The profile log-likelihood reduces to two per-record sums. This module
evaluates them for one lambda with either of two interchangeable backends:

* ``cython``: compiled extension, used when the build produced it;
* ``python``: NumPy fallback, always available.

The default is the compiled backend when importable. Override with the
environment variable ``BVF_KERNEL=cython|python`` or at runtime with
:func:`use_backend`. Fitting no longer calls this module: ``bvf.inference``
takes the same sums, and their derivatives, for many datasets at once in
NumPy, so fits do not depend on the backend.
"""

import os

from . import _pykernels

__all__ = [
    "lehmann_sums",
    "active_backend",
    "available_backends",
    "get_backend",
    "use_backend",
    "WEIBULL",
    "GOMPERTZ",
    "LOMAX",
]

WEIBULL = _pykernels.WEIBULL
GOMPERTZ = _pykernels.GOMPERTZ
LOMAX = _pykernels.LOMAX

_BACKENDS = {"python": _pykernels}

try:
    from . import _cykernels

    _BACKENDS["cython"] = _cykernels
except ImportError:  # pure-Python install
    _cykernels = None


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend(name: str):
    """Return the backend module named ``name`` without activating it."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: {available_backends()}"
        ) from None


def use_backend(name: str) -> str:
    """Activate a backend for subsequent likelihood evaluations.

    Returns the name of the previously active backend.
    """
    global lehmann_sums, active_backend
    module = get_backend(name)
    previous = active_backend
    lehmann_sums = module.lehmann_sums
    active_backend = name
    return previous


def _default_backend() -> str:
    env = os.environ.get("BVF_KERNEL", "").strip().lower()
    if env:
        if env in ("c", "cython", "compiled"):
            return "cython"
        if env in ("py", "python", "numpy"):
            return "python"
        raise ValueError(f"BVF_KERNEL={env!r} not recognized (use cython or python)")
    return "cython" if "cython" in _BACKENDS else "python"


active_backend = "python"
lehmann_sums = _pykernels.lehmann_sums
use_backend(_default_backend())
