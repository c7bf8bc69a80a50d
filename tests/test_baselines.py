"""Baseline survival family: closed forms, inverses, and domain checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvf import BaselineKind, DomainError, f0, h0, log_f0, log_s0, s0, s0_inv

KINDS = list(BaselineKind)
W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX

# mpmath, mp.dps=50
GOMPERTZ_S0_1_105 = 0.15603871677608838
GOMPERTZ_F0_1_105 = 0.4681994241291469

lams = st.floats(0.05, 8.0)
times = st.floats(1e-6, 50.0)


def test_kind_parse_accepts_any_case():
    assert BaselineKind.parse("weibull") is BaselineKind.WEIBULL
    assert BaselineKind.parse("GOMPERTZ") is BaselineKind.GOMPERTZ
    assert BaselineKind.parse("Lomax") is BaselineKind.LOMAX
    with pytest.raises(ValueError):
        BaselineKind.parse("exponential")


def test_kind_value_spelling():
    assert [k.value for k in KINDS] == ["Weibull", "Gompertz", "Lomax"]


def test_survival_at_zero_is_one():
    for kind in KINDS:
        assert s0(kind, 0.0, 0.7) == 1.0
        assert log_s0(kind, 0.0, 0.7) == 0.0


def test_weibull_survival_closed_form():
    assert s0(BaselineKind.WEIBULL, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert log_s0(BaselineKind.WEIBULL, 2.0, 2.0) == pytest.approx(-4.0, rel=1e-15)


def test_lomax_survival_closed_form():
    assert s0(BaselineKind.LOMAX, 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert s0(BaselineKind.LOMAX, 3.0, 2.0) == pytest.approx(1.0 / 7.0, rel=1e-15)


def test_gompertz_survival_matches_high_precision_value():
    assert s0(BaselineKind.GOMPERTZ, 1.0, 1.05) == pytest.approx(
        GOMPERTZ_S0_1_105, rel=1e-15
    )


def test_gompertz_log_survival_stays_finite_where_s0_underflows():
    # exp(3*10) - 1, too large for s0 itself but fine in log space
    ls = log_s0(BaselineKind.GOMPERTZ, 10.0, 3.0)
    assert ls == pytest.approx(-10686474581523.463, rel=1e-12)
    assert s0(BaselineKind.GOMPERTZ, 10.0, 3.0) == 0.0


def test_weibull_density_closed_form():
    assert f0(BaselineKind.WEIBULL, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_lomax_density_closed_form():
    assert f0(BaselineKind.LOMAX, 1.0, 1.0) == pytest.approx(0.25, rel=1e-15)


def test_gompertz_density_matches_high_precision_value():
    assert f0(BaselineKind.GOMPERTZ, 1.0, 1.05) == pytest.approx(
        GOMPERTZ_F0_1_105, rel=1e-15
    )


def test_density_integrates_to_one():
    from scipy import integrate

    for kind in KINDS:
        for lam in (0.7, 1.0, 1.9):
            total, err = integrate.quad(
                lambda t: f0(kind, t, lam), 0.0, np.inf, limit=200
            )
            assert total == pytest.approx(1.0, abs=1e-6), (kind, lam)


def test_hazard_times_survival_equals_density():
    for kind in KINDS:
        for lam in (0.6, 1.0, 2.3):
            for t in (0.05, 0.4, 1.0, 3.7):
                assert h0(kind, t, lam) * s0(kind, t, lam) == pytest.approx(
                    f0(kind, t, lam), rel=1e-12
                )


def test_hazard_shapes():
    # Weibull lam=1 is constant, Gompertz increases, Lomax decreases
    ts = [0.1, 0.5, 1.0, 2.0]
    w = [h0(BaselineKind.WEIBULL, t, 1.0) for t in ts]
    assert w == pytest.approx([1.0] * 4, rel=1e-14)
    g = [h0(BaselineKind.GOMPERTZ, t, 1.3) for t in ts]
    assert all(a < b for a, b in zip(g, g[1:]))
    lo = [h0(BaselineKind.LOMAX, t, 1.3) for t in ts]
    assert all(a > b for a, b in zip(lo, lo[1:]))


def test_gompertz_hazard_at_zero_is_lambda():
    assert h0(BaselineKind.GOMPERTZ, 0.0, 2.0) == 2.0


def test_weibull_decreasing_hazard_pole_at_zero():
    with pytest.raises(DomainError):
        h0(BaselineKind.WEIBULL, 0.0, 0.5)
    with pytest.raises(DomainError):
        f0(BaselineKind.WEIBULL, 0.0, 0.5)
    # lam = 1 degenerates to the exponential rate
    assert f0(BaselineKind.WEIBULL, 0.0, 1.0) == 1.0
    # lam > 1 has vanishing density at the origin
    assert f0(BaselineKind.WEIBULL, 0.0, 2.0) == 0.0


def test_exp_log_consistency():
    for kind in KINDS:
        for lam in (0.5, 1.0, 2.0):
            for t in (0.2, 1.0, 4.0):
                assert math.exp(log_s0(kind, t, lam)) == pytest.approx(
                    s0(kind, t, lam), rel=1e-13
                )
                assert math.exp(log_f0(kind, t, lam)) == pytest.approx(
                    f0(kind, t, lam), rel=1e-13
                )


def test_survival_monotone_in_t():
    ts = np.linspace(0.01, 6.0, 80)
    for kind in KINDS:
        vals = [s0(kind, t, 1.1) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_inverse_round_trip_on_grid():
    lams_grid = [0.3, 0.69, 0.91, 1.0, 1.05, 2.4]
    ts = np.linspace(0.05, 5.0, 25)
    for kind in KINDS:
        for lam in lams_grid:
            for t in ts:
                p = s0(kind, float(t), lam)
                if p == 0.0:
                    continue
                back = s0_inv(kind, p, lam)
                assert back == pytest.approx(float(t), rel=1e-10), (kind, lam, t)


def test_inverse_closed_form_values():
    assert s0_inv(BaselineKind.WEIBULL, 1.0, 2.0) == 0.0
    assert s0_inv(BaselineKind.WEIBULL, math.exp(-1.0), 2.0) == pytest.approx(1.0, rel=1e-14)
    # mpmath: (-log 0.2)**(1/0.91)
    assert s0_inv(BaselineKind.WEIBULL, 0.2, 0.91) == pytest.approx(
        1.686997875649413, rel=1e-14
    )
    assert s0_inv(BaselineKind.LOMAX, 0.5, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_inverse_rejects_probabilities_outside_unit_interval():
    for bad in (0.0, -0.1, 1.0000001, math.nan):
        with pytest.raises(DomainError):
            s0_inv(BaselineKind.WEIBULL, bad, 1.0)


def test_negative_time_rejected():
    for kind in KINDS:
        with pytest.raises(DomainError):
            s0(kind, -0.5, 1.0)
        with pytest.raises(DomainError):
            f0(kind, -0.5, 1.0)


def test_bad_lambda_rejected():
    for kind in KINDS:
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                log_s0(kind, 1.0, bad)


@given(lam=lams, t=times)
@settings(max_examples=200, deadline=None)
def test_survival_in_unit_interval(lam, t):
    for kind in KINDS:
        v = s0(kind, t, lam)
        assert 0.0 <= v <= 1.0


@given(lam=lams, p=st.floats(1e-8, 1.0, exclude_max=False))
@settings(max_examples=200, deadline=None)
def test_inverse_then_forward_recovers_p(lam, p):
    for kind in KINDS:
        t = s0_inv(kind, p, lam)
        assert s0(kind, t, lam) == pytest.approx(p, rel=1e-9)


def test_density_matches_negative_survival_derivative():
    # central differences of s0, step tuned for ~1e-8 truncation error
    for kind in KINDS:
        for lam in (0.7, 1.0, 1.8):
            for t in (0.1, 0.6, 1.3, 2.5):
                h = 1e-5 * max(t, 1.0)
                num = -(s0(kind, t + h, lam) - s0(kind, t - h, lam)) / (2 * h)
                assert num == pytest.approx(f0(kind, t, lam), rel=1e-5)


@pytest.mark.parametrize(
    "fn, kind, t, lam, want",
    [
        (log_s0, W, 1e10, 50.0, -math.inf),
        (log_s0, G, 1000.0, 1.0, -math.inf),
        # (lam - 1) log t is itself inf here; the density still vanishes
        (log_f0, W, 1e300, 1e307, -math.inf),
        (log_f0, G, 1000.0, 1.0, -math.inf),
        (f0, W, 5e-324, 0.01, math.inf),
        (h0, W, 1e300, 3.0, math.inf),
        (h0, G, 1000.0, 1.0, math.inf),
        (s0_inv, W, 1e-300, 1e-3, math.inf),
        (s0_inv, L, 1e-320, 1.0, math.inf),
    ],
)
def test_overflow_saturates_to_signed_inf(fn, kind, t, lam, want):
    assert fn(kind, t, lam) == want


def test_density_vanishes_where_survival_underflows():
    # lam*t overflows to inf, where math.expm1 returns inf without raising
    assert log_s0(G, 1e300, 1e10) == -math.inf
    assert log_f0(G, 1e300, 1e10) == -math.inf
    assert f0(G, 1e300, 1e10) == 0.0


@pytest.mark.parametrize("fn", [log_s0, s0, log_f0, f0, h0, s0_inv])
@pytest.mark.parametrize("kind", ["weibull", None, 0])
def test_non_kind_rejected(fn, kind):
    with pytest.raises(DomainError, match="kind must be a BaselineKind"):
        fn(kind, 0.5, 1.0)
