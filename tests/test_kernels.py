"""The standalone per-record sums: reference values and overflow behavior."""

import math

import numpy as np
import pytest

from bvf import _kernels
from bvf._kernels import GOMPERTZ, LOMAX, WEIBULL, lehmann_sums


def _reference_sums(kind, lam, x_all, x_unc):
    if kind == WEIBULL:
        a = sum(math.exp(lam * x) for x in x_all)
        return a, 0.0
    if kind == GOMPERTZ:
        a = sum(math.expm1(lam * x) for x in x_all)
        return a, 0.0
    a = sum(math.log1p(lam * x) for x in x_all)
    b = sum(math.log1p(lam * x) for x in x_unc)
    return a, b


@pytest.fixture
def arrays():
    rng = np.random.default_rng(42)
    t = rng.uniform(0.05, 4.0, size=257)
    unc = t[:130].copy()
    return t, unc


def test_backend_listing_contains_python():
    assert _kernels.available_backends() == ("python",)
    assert _kernels.active_backend == "python"


@pytest.mark.parametrize("kind", [WEIBULL, GOMPERTZ, LOMAX])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.7])
def test_all_backends_match_reference(arrays, kind, lam):
    t, unc = arrays
    x_all = np.log(t) if kind == WEIBULL else t
    x_unc = np.empty(0) if kind != LOMAX else unc
    ref_a, ref_b = _reference_sums(kind, lam, x_all, x_unc)
    a, b = lehmann_sums(kind, lam, x_all, x_unc)
    assert a == pytest.approx(ref_a, rel=1e-12)
    assert b == pytest.approx(ref_b, rel=1e-12)


def test_overflow_saturates_to_inf():
    x = np.array([800.0, 1.0])
    a, _ = lehmann_sums(GOMPERTZ, 2.0, x, np.empty(0))
    assert math.isinf(a) and a > 0


def test_empty_arrays_give_zero_sums():
    assert lehmann_sums(LOMAX, 1.0, np.empty(0), np.empty(0)) == (0.0, 0.0)
