"""Weibull and Gompertz fits of small datasets of awkward shapes
(``tests/hard_data.py``), in three time units: t and t * 4**10 and
t * 4**-10.

A Weibull lambda is free of the time unit, and a Gompertz lambda scales by
its inverse, so the three fits of a dataset must agree wherever the
problem stays inside what the engine represents: the fixed search range
[1e-8, 1e8], and, for Weibull, the closed-form rates m_k / a(lambda-hat),
which scale by c**-lambda-hat and leave double range once log a does.
Narrow datasets take Weibull Newton iterates to where the survival sum's
derivatives, or the sum itself, leave double range in the rescaled units.
A Gompertz profile is concave, so a dataset whose limit slope s1 is not
positive has no Gompertz MLE in any unit, and its fit takes no pass.
"""

import collections
import functools
import math

import numpy as np
import pytest

from bvf import BaselineKind, CompetingRisksData, FitStatus, fit_mle
from bvf.inference import _BOUNDARY, _fit_stacks, _Stack

from engine_passes import row_outcome, same_outcome
from hard_data import hard_datasets

W, G = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ
DATASETS = [data for _, data in hard_datasets(1, 500)]
UNITS = (4.0**10, 4.0**-10)


@functools.lru_cache(maxsize=None)
def _fits(kind, c) -> list:
    """The fit of every dataset with its times multiplied by ``c``, as
    (fits, row) pairs: one engine call, over one stack per record count."""
    by_n = collections.defaultdict(list)
    for i, data in enumerate(DATASETS):
        by_n[data.n].append(i)
    groups = list(by_n.values())
    stacks = [
        _Stack(kind, np.array([DATASETS[i].t * c for i in rows]),
               np.array([DATASETS[i].delta for i in rows]))
        for rows in groups
    ]
    out = [None] * len(DATASETS)
    for rows, fits in zip(groups, _fit_stacks(stacks)):
        for r, i in enumerate(rows):
            out[i] = (fits, r)
    return out


def _fits_by_unit(kind) -> dict:
    return {c: _fits(kind, c) for c in (1.0, *UNITS)}


@pytest.fixture(scope="module", params=[W, G], ids=["weibull", "gompertz"])
def fitted(request):
    return request.param, _fits_by_unit(request.param)


def _record_score(kind, t, delta, lam) -> float:
    """lam p'(lam), from the records in float64 with shifted exponentials:
    m + lam sum_unc x - m lam sum x e / sum s, where x is log t (Weibull)
    or t, e = exp(lam x) and s is e (Weibull) or expm1(lam x)."""
    unc = delta != 3
    m = int(unc.sum())
    x = np.log(t) if kind is W else t
    z = lam * x
    top = z.max()
    if kind is W or top > 700.0:
        e = np.exp(z - top)
        s = e if kind is W else e - math.exp(-top)
    else:
        e, s = np.exp(z), np.expm1(z)
    return m + lam * x[unc].sum() - m * lam * (x * e).sum() / s.sum()


def _in_range(kind, data, lam, c) -> bool:
    """Whether the fit at lambda-hat ``lam`` of ``data`` in unit 1 keeps its
    estimates in unit ``c``, by a margin: a Weibull log a(lam) within
    +-700 there, a Gompertz lam / c within [1e-6, 1e6]."""
    if kind is G:
        return 1e-6 <= lam / c <= 1e6
    z = lam * np.log(data.t * c)
    return abs(z.max() + math.log(np.exp(z - z.max()).sum())) <= 700.0


def test_estimates_are_stationary(fitted):
    kind, by_unit = fitted
    checked = 0
    for c, fits in by_unit.items():
        for data, (f, r) in zip(DATASETS, fits):
            if f.code[r] <= _BOUNDARY:
                m = data.n - data.m3
                g = _record_score(kind, data.t * c, data.delta, f.lam[r])
                assert abs(g) <= 1e-6 * (1 + m), (kind, c, f.lam[r], g)
                checked += 1
    assert checked > 900


def test_estimates_do_not_depend_on_the_time_unit(fitted):
    kind, by_unit = fitted
    checked = 0
    for i, data in enumerate(DATASETS):
        f, r = by_unit[1.0][i]
        if f.code[r] > _BOUNDARY:
            continue
        lam = f.lam[r]
        for c in UNITS:
            if not _in_range(kind, data, lam, c):
                continue
            fc, rc = by_unit[c][i]
            assert same_outcome(row_outcome(fc, rc), row_outcome(f, r)), (kind, i, c)
            want = lam if kind is W else lam / c
            assert abs(fc.lam[rc] - want) <= 1e-10 * want, (kind, i, c)
            checked += 1
    assert checked > 300


def test_weibull_newton_lands_near_the_root():
    # A Weibull step is taken in lambda: lambda p' is nearly linear in
    # lambda away from the root, so no fit with estimates takes more than
    # 10 evaluations in any unit. Steps in log lambda took up to 23 here,
    # overshooting from lambda = 1 on narrow data and walking back one
    # e-fold per pass; the ladder took up to 14.
    for c, fits in _fits_by_unit(W).items():
        for f, r in fits:
            if f.code[r] <= _BOUNDARY:
                assert f.n_evals[r] <= 10, (c, f.lam[r], f.n_evals[r])


def test_gompertz_has_estimates_only_where_its_limit_slope_is_positive():
    # A Gompertz profile is concave in lambda, so it rises above its
    # exponential limit only if its slope there, s1, is positive; the sign
    # of s1 does not depend on the time unit
    fits = _fits_by_unit(G)
    decided = 0
    for i, data in enumerate(DATASETS):
        t = data.t
        unc = t[data.delta != 3]
        s1 = math.fsum(unc) - unc.size * math.fsum(t * t) / (2.0 * math.fsum(t))
        if s1 <= 0.0:
            decided += 1
            for c in fits:
                f, r = fits[c][i]
                assert f.code[r] > _BOUNDARY and f.n_evals[r] == 0, (i, c)
    assert decided > 100


def test_subnormal_survival_sum_is_shifted():
    # Dataset 615 of seed 2 (a power of a uniform, 50 failures) at
    # t * 4**-10: log a is -705 at lambda-hat, but one Newton iterate on
    # the way, near 53.5, has a subnormal a (1e-321), whose ratios a'/a and
    # a''/a have lost their digits. They come from shifted exponentials, as
    # where a is 0, so the fit converges to its unit-time lambda-hat.
    _, data = hard_datasets(2, 616)[615]
    fits = [fit_mle(CompetingRisksData(data.t * c, data.delta), W) for c in (1.0, 4.0**-10)]
    assert [fit.status for fit in fits] == [FitStatus.CONVERGED] * 2
    assert fits[0].params_hat.lam == pytest.approx(51.0952, abs=1e-4)
    assert fits[1].params_hat.lam == pytest.approx(fits[0].params_hat.lam, rel=1e-10, abs=0)
