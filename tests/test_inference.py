"""Likelihood, profile maximization, information matrix, and intervals."""

import inspect
import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bvf import (
    BaselineKind,
    BvfParams,
    CompetingRisksData,
    DegenerateDataError,
    DomainError,
    EstimationError,
    FailureMode,
    FitStatus,
    ResampleFailureError,
    SingularMatrixError,
    ValidationError,
    alphas_given_lambda,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    from_bivariate,
    h0,
    log_likelihood,
    log_s0,
    observed_fisher,
    percentile_ranks,
    profile_loglik,
    sample,
    select_model,
)
from bvf import inference
from bvf.bvf_model import _child_states, _pairs_from_uniforms, censoring_threshold
from bvf.cli import main
from bvf.inference import (
    _ALL,
    _BOUNDARY,
    _CONVERGED,
    _DEGENERATE,
    _DRAW_DOMAIN,
    _DRAW_INVALID,
    _NO_FAILURES,
    _NO_FINITE_PROFILE,
    _NO_MLE_CLAMP,
    _NO_MLE_LIMIT,
    _REASONS,
    _SCAN_RECORDS,
    PARAM_NAMES,
    FitOptions,
    _bootstrap_refits,
    _draw_stack,
    _fit_stacks,
    _Stack,
)

from engine_passes import (
    fit_mle_outcome,
    logged_passes,
    observe,
    one_row_fit_mle,
    record_evals,
    row_outcome,
    run_pass,
    same_outcome,
)

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX
# the Gompertz and Lomax caption parameters
PG = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
PL = BvfParams(L, 0.85, 0.57, 0.74, 0.69)
# the Weibull caption parameters
PW = BvfParams(W, 1.34, 1.17, 0.86, 0.91)

# Twelve records, two ties, four first-risk, three second-risk, three
# censored at 1.5. Small enough to solve independently to high precision.
T12 = [0.2, 0.5, 0.7, 1.1, 0.3, 0.9, 1.4, 0.6, 1.0, 1.5, 1.5, 1.5]
D12 = [1, 1, 1, 1, 2, 2, 2, 0, 0, 3, 3, 3]

# mpmath, mp.dps=50: profile stationary point via findroot on the
# derivative, rates from the closed form at that point
W_LAM_HAT = 1.6217392387955902
W_ALPHA_HAT = (0.16578284741739793, 0.33156569483479587, 0.2486742711260969)
W_PROFILE_AT_HAT = -20.5770949593531
W_LOGLIK_HAT = -19.349786287749318
W_LOGLIK_AT_POINT = -25.462306060921176  # at (0.4, 0.7, 0.9, 1.3)
W_PROFILE_13 = -20.8474033481315
W_ALPHAS_13 = (0.17365685668837103, 0.34731371337674205, 0.2604852850325566)
G_LAM_HAT = 0.9647160609290037
G_ALPHA0_HAT = 0.09791816625562942
G_PROFILE_AT_HAT = -21.010628827906153
G_PROFILE_05 = -21.183006552477025
# loglik at the closed-form rates minus the profile: 2 log 2 + 4 log 4 + 3 log 3 - 9
DECOMP_CONST = 1.2273086716037822
NEG_9_LOG_11_2 = -21.74322400470944

Z_975 = 1.959963984540054

# mpmath, mp.dps=50: -p''(lambda) at the root of p'(lambda) for two
# near-exponential fits (lambda ~ 1e-3, rates ~ 1e3) from 40%-censored
# n=200 studies: Gompertz seed 9305 replicate 115, Lomax seed 9308
# replicate 275, both at the caption parameters
G_NEG_P2_REP115 = 0.62133845373714623
L_NEG_P2_REP275 = 5.1114581282628933
# mpmath, mp.dps=50: the root of p'(lambda) on the same two datasets, by
# findroot on the closed-form score
G_LAM_ROOT_REP115 = 0.0011421892928262804
L_LAM_ROOT_REP275 = 0.00043203126602589618


@pytest.fixture(scope="module")
def data12():
    return CompetingRisksData(T12, D12)


def test_import_does_not_load_scipy():
    import bvf

    src = os.path.dirname(os.path.dirname(bvf.__file__))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bvf; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestLogLikelihood:
    def test_single_censored_record(self):
        data = CompetingRisksData([1.0], [3])
        p = BvfParams(W, 1.0, 1.0, 1.0, 1.0)
        assert log_likelihood(p, data) == pytest.approx(-3.0, rel=1e-15)

    def test_single_uncensored_record(self):
        data = CompetingRisksData([1.0], [1])
        p = BvfParams(W, 1.0, 1.0, 1.0, 1.0)
        # log alpha1 + hazard term vanish at these values
        assert log_likelihood(p, data) == pytest.approx(-3.0, rel=1e-15)

    def test_twelve_record_point_value(self, data12):
        p = BvfParams(W, 0.4, 0.7, 0.9, 1.3)
        assert log_likelihood(p, data12) == pytest.approx(W_LOGLIK_AT_POINT, rel=1e-14)

    def test_zero_rate_against_observed_mode(self, data12):
        p = BvfParams(W, 0.0, 0.7, 0.9, 1.3)
        assert log_likelihood(p, data12) == -math.inf

    def test_zero_rate_with_no_observations_is_finite(self):
        data = CompetingRisksData([0.5, 1.0], [1, 2])
        p = BvfParams(W, 0.0, 1.0, 1.0, 1.0)
        assert math.isfinite(log_likelihood(p, data))

    def test_kind_mismatch_changes_value(self, data12):
        pw = BvfParams(W, 0.4, 0.7, 0.9, 1.3)
        pg = BvfParams(G, 0.4, 0.7, 0.9, 1.3)
        assert log_likelihood(pw, data12) != log_likelihood(pg, data12)


class TestAlphasGivenLambda:
    def test_equal_counts_give_equal_rates(self):
        data = CompetingRisksData([1.0, 1.0, 1.0], [0, 1, 2])
        a = alphas_given_lambda(1.0, data, W)
        assert a == pytest.approx((1 / 3, 1 / 3, 1 / 3), rel=1e-15)

    def test_twelve_record_values(self, data12):
        a = alphas_given_lambda(1.3, data12, W)
        assert a == pytest.approx(W_ALPHAS_13, rel=1e-14)

    def test_zero_count_gives_zero_rate(self):
        data = CompetingRisksData([0.4, 0.8, 1.2], [1, 1, 2])
        a = alphas_given_lambda(1.0, data, W)
        assert a[0] == 0.0
        assert a[1] > a[2] > 0

    def test_maximizes_over_rates(self, data12):
        # closed-form rates beat any perturbation at the same lambda
        lam = 1.3
        a = alphas_given_lambda(lam, data12, W)
        base = log_likelihood(BvfParams(W, *a, lam), data12)
        rng = np.random.default_rng(0)
        for _ in range(200):
            mult = rng.uniform(0.5, 2.0, size=3)
            trial = BvfParams(W, a[0] * mult[0], a[1] * mult[1], a[2] * mult[2], lam)
            assert log_likelihood(trial, data12) < base


class TestProfile:
    def test_twelve_record_value(self, data12):
        assert profile_loglik(1.3, data12, W) == pytest.approx(W_PROFILE_13, rel=1e-14)

    def test_gompertz_value(self, data12):
        assert profile_loglik(0.5, data12, G) == pytest.approx(G_PROFILE_05, rel=1e-14)

    def test_equals_loglik_at_closed_form_rates(self, data12):
        for kind in (W, G, L):
            for lam in (0.6, 1.0, 1.7):
                a = alphas_given_lambda(lam, data12, kind)
                direct = log_likelihood(BvfParams(kind, *a, lam), data12)
                assert profile_loglik(lam, data12, kind) == pytest.approx(
                    direct - DECOMP_CONST, rel=1e-12
                )

    def test_decomposition_constant_is_lambda_free(self, data12):
        # profile minus restricted loglik is constant across lambda
        lams = np.geomspace(0.2, 5.0, 50)
        consts = []
        for lam in lams:
            a = alphas_given_lambda(float(lam), data12, W)
            direct = log_likelihood(BvfParams(W, *a, float(lam)), data12)
            consts.append(direct - profile_loglik(float(lam), data12, W))
        consts = np.asarray(consts)
        assert np.max(np.abs(consts - DECOMP_CONST)) < 1e-10 * (1 + abs(DECOMP_CONST))

    def test_three_equal_times(self):
        data = CompetingRisksData([1.0, 1.0, 1.0], [0, 1, 2])
        assert profile_loglik(1.0, data, W) == pytest.approx(-3 * math.log(3.0), rel=1e-15)

    def test_lomax_small_lambda_limit(self, data12):
        # as lambda -> 0 the Lomax profile approaches -M log(sum of t)
        assert profile_loglik(1e-8, data12, L) == pytest.approx(NEG_9_LOG_11_2, rel=1e-6)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda data, kind: profile_loglik(1.0, data, kind),
            lambda data, kind: alphas_given_lambda(1.0, data, kind),
            fit_mle,
        ],
        ids=["profile_loglik", "alphas_given_lambda", "fit_mle"],
    )
    @pytest.mark.parametrize("kind", ["weibull", None, 0])
    def test_non_kind_rejected(self, data12, entry, kind):
        with pytest.raises(DomainError, match="kind must be a BaselineKind"):
            entry(data12, kind)

    def test_no_failures_is_an_error(self):
        data = CompetingRisksData([2.0, 2.0], [3, 3])
        with pytest.raises(EstimationError, match="no failures"):
            profile_loglik(1.0, data, W)
        with pytest.raises(EstimationError, match="no failures"):
            fit_mle(data, W)


class TestFitWeibull:
    def test_point_estimates(self, data12):
        fit = fit_mle(data12, W)
        assert fit.status is FitStatus.CONVERGED
        p = fit.params_hat
        assert p.lam == pytest.approx(W_LAM_HAT, rel=1e-7)
        assert p.alpha0 == pytest.approx(W_ALPHA_HAT[0], rel=1e-7)
        assert p.alpha1 == pytest.approx(W_ALPHA_HAT[1], rel=1e-7)
        assert p.alpha2 == pytest.approx(W_ALPHA_HAT[2], rel=1e-7)
        assert fit.loglik_max == pytest.approx(W_LOGLIK_HAT, rel=1e-12)

    def test_reported_maximum_matches_loglik(self, data12):
        fit = fit_mle(data12, W)
        assert fit.loglik_max == log_likelihood(fit.params_hat, data12)

    def test_profile_stationary_at_estimate(self, data12):
        fit = fit_mle(data12, W)
        lam = fit.params_hat.lam
        h = 1e-5 * lam
        d = (profile_loglik(lam + h, data12, W) - profile_loglik(lam - h, data12, W)) / (2 * h)
        p = profile_loglik(lam, data12, W)
        assert abs(d) < 1e-6 * (1 + abs(p))

    def test_deterministic(self, data12):
        a = fit_mle(data12, W)
        b = fit_mle(data12, W)
        assert a.params_hat == b.params_hat
        assert a.n_evals == b.n_evals

    def test_eval_budget_respected(self, data12):
        fit = fit_mle(data12, W)
        assert fit.n_evals <= 500


class TestFitOtherKinds:
    def test_gompertz_point_estimates(self, data12):
        fit = fit_mle(data12, G)
        assert fit.status is FitStatus.CONVERGED
        assert fit.params_hat.lam == pytest.approx(G_LAM_HAT, rel=1e-7)
        assert fit.params_hat.alpha0 == pytest.approx(G_ALPHA0_HAT, rel=1e-7)

    def test_lomax_profile_is_monotone_here(self, data12):
        fit = fit_mle(data12, L)
        assert fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE
        assert fit.params_hat is None
        assert fit.loglik_max is None

    def test_degenerate_equal_times_never_converge(self):
        data = CompetingRisksData([1.0, 1.0, 1.0], [0, 1, 2])
        for kind in (W, G, L):
            assert fit_mle(data, kind).status is FitStatus.NO_MLE_MONOTONE_PROFILE

    def test_flat_profile_next_to_clamp_has_no_mle(self):
        # Gompertz, seed 9305, replicate 290 of criterion 7's 40%-censored
        # n=200 cell, rebuilt as the estimation study builds it. The ladder
        # rung next to the lower clamp beats the clamp by float noise only, so
        # the climb sees a maximum there, and the profile's negative slope at
        # its exponential limit decides
        params = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
        child = np.random.SeedSequence(9305).spawn(500)[290].spawn(2)[0]
        pairs = sample(params, 200, np.random.default_rng(child))
        data = from_bivariate(pairs, censoring_threshold(params, 0.4))
        assert profile_loglik(4.0**-13, data, G) > profile_loglik(1e-8, data, G)
        assert fit_mle(data, G).status is FitStatus.NO_MLE_MONOTONE_PROFILE

    @pytest.mark.parametrize("kind", [G, L])
    def test_overflowing_rates_are_degenerate(self, kind):
        # subnormal times: the rate denominator at lambda-hat is itself
        # subnormal, so the closed-form rates m / a overflow
        t = [5e-324, 5e-324, 5e-324, 5e-324, 1e-320, 1e-320]
        delta = [1, 2, 0, 1, 2, 1]
        data = CompetingRisksData(t, delta)
        with pytest.raises(DegenerateDataError):
            fit_mle(data, kind)
        stack = _Stack(kind, np.array([t]), np.array([delta], dtype=np.int8))
        (fits,) = _fit_stacks([stack])
        assert fits.code.tolist() == [_DEGENERATE]
        assert same_outcome(row_outcome(fits, 0), fit_mle_outcome(data, kind))

    def test_overflowing_hazard_sum_warns_nothing(self):
        # the uncensored Gompertz times sum past double range while the
        # stack is built; that sum saturates to inf without a warning
        data = CompetingRisksData([0.2, 0.5, 0.7, 1e308, 1e308], [1, 2, 0, 1, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile_loglik(1.0, data, G) == -math.inf
            with pytest.raises(EstimationError, match="-inf over the entire bracket"):
                fit_mle(data, G)

    def test_overflowing_hazard_sum_reads_minus_inf(self):
        # the hazard sum c is +inf at every lambda; the profile is undefined
        # there, not +inf, so no rung can pass for an infinite maximum
        data = CompetingRisksData([0.2, 0.5, 0.7, 1e308, 1e308], [1, 2, 0, 1, 2])
        for lam in (1e-8, 1e-4, 1.0):
            assert profile_loglik(lam, data, G) == -math.inf
        with pytest.raises(
            EstimationError, match="profile log-likelihood is -inf over the entire bracket"
        ):
            fit_mle(data, G)

    @pytest.mark.parametrize(
        "child, n, lam_hat",
        [(791, 150, 0.0010053271723372878), (1155, 300, 0.0020476120961489697)],
    )
    def test_newton_stops_on_a_two_cycle(self, child, n, lam_hat):
        # criterion 8's Weibull-parent data: Newton's steps alternated between
        # two bracket ends 2.3e-9 apart until the evaluation cap
        parent = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        stream = np.random.SeedSequence(8800).spawn(1500)[child]
        data = from_bivariate(sample(parent, n, np.random.default_rng(stream)))
        fit = fit_mle(data, G)
        assert fit.status is FitStatus.CONVERGED
        assert fit.n_evals < 60
        assert fit.params_hat.lam == pytest.approx(lam_hat, rel=1e-8)


class TestFitBoundary:
    def test_zero_count_mode_pins_rate_to_zero(self, caplog):
        # the status and the zero rate report the empty mode; a fit logs
        # nothing, as a row of a stacked fit does not
        data = CompetingRisksData([0.3, 0.7, 1.2, 0.9], [1, 1, 2, 1])
        with caplog.at_level(logging.DEBUG):
            fit = fit_mle(data, W)
        assert fit.status is FitStatus.BOUNDARY_ALPHA_ZERO
        assert fit.params_hat.alpha0 == 0.0
        assert fit.params_hat.alpha1 > 0
        assert caplog.records == []

    def test_boundary_consistent_with_estimates(self):
        p = BvfParams(W, 0.0, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 4000, seed=41))
        assert data.m0 == 0
        fit = fit_mle(data, W)
        assert fit.status is FitStatus.BOUNDARY_ALPHA_ZERO
        assert fit.params_hat.alpha1 == pytest.approx(1.17, rel=0.1)


class TestWeibullNewton:
    """A Weibull profile is strictly concave in lambda, so a Weibull row
    takes no ladder: after the start rung, Newton runs in lambda from
    lambda = 1 over the whole search range."""

    def test_derivative_sums_past_double_range_are_shifted(self):
        # At t * 335.548..., Newton iterates near lambda = 121 leave a''
        # past double range while a is finite. Their ratios a'/a and a''/a
        # come from shifted exponentials, as where a itself overflows, so
        # the fit matches the fit in unit time.
        rng = np.random.default_rng(11)
        t0 = rng.weibull(100.0, 30)
        delta = rng.integers(0, 3, 30)
        fits = [fit_mle(CompetingRisksData(t0 * c, delta), W) for c in (1.0, 335.5482845394296)]
        assert all(fit.status is FitStatus.CONVERGED for fit in fits)
        lams = [fit.params_hat.lam for fit in fits]
        assert lams[0] == pytest.approx(99.697, abs=1e-3)
        assert lams[1] == pytest.approx(lams[0], rel=1e-10, abs=0)

    def test_curvature_that_is_not_finite_bisects(self, monkeypatch):
        # h made -inf at Newton's first iterate, lambda = 1: a zero step
        # there would stop the fit at 1. It bisects the whole range
        # instead, to 1e4, and Newton goes on from there to T12's root.
        score = inference._score
        calls = []

        def first_curvature_inf(runs, terms, sums, lam):
            g, h = score(runs, terms, sums, lam)
            calls.append(lam.copy())
            return g, (np.full_like(h, -np.inf) if len(calls) == 1 else h)

        monkeypatch.setattr(inference, "_score", first_curvature_inf)
        fit = fit_mle(CompetingRisksData(T12, D12), W)
        assert [lam.tolist() for lam in calls[:2]] == [[1.0], [1e4]]
        assert fit.status is FitStatus.CONVERGED
        assert fit.params_hat.lam == pytest.approx(W_LAM_HAT, rel=1e-10)

    @pytest.mark.parametrize(
        "t, delta", [([0.5] * 3, [0, 1, 2]), ([2.0] * 4, [1, 2, 0, 1])], ids=["half", "two"]
    )
    @pytest.mark.parametrize("c", [1.0, 1e-3, 1e3])
    def test_equal_failure_times_have_no_mle_in_any_unit(self, t, delta, c):
        # every uncensored time equals the largest, so the profile
        # m log lambda - m x - m log n rises for ever: Newton climbs to the
        # upper end of the range, where t**lambda leaves double range. Its
        # curvature there is rounding noise, which sets its step, so the
        # climb takes 38 evaluations in unit time and more in others.
        data = CompetingRisksData([x * c for x in t], delta)
        (fits,) = _fit_stacks([_Stack(W, data.t[None], data.delta[None])])
        assert fits.code.tolist() == [_NO_MLE_CLAMP]
        fit = fit_mle(data, W)
        assert fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE
        assert fit.n_evals == 38 if c == 1.0 else fit.n_evals >= 38


class TestFitOptions:
    """Every fit searches the same fixed range from the same start."""

    def test_search_range_is_fixed(self):
        assert FitOptions().bracket == (1e-8, 1e8)
        with pytest.raises(TypeError):
            FitOptions(bracket=(0.5, 8.0))
        assert list(inspect.signature(fit_mle).parameters) == ["data", "kind"]
        rungs = inference._RUNGS
        assert (rungs[0], rungs[-1]) == FitOptions().bracket
        assert rungs.size == 29 and rungs[inference._START] == 1.0
        assert (rungs[2:-1] / rungs[1:-2] == 4.0).all()

    def test_recovery_when_start_is_degenerate(self):
        # exp(lambda * 1.7e308) overflows from lambda = 1 up, so the profile
        # is -inf at the start: the climb evaluates all 29 rungs, and the
        # finite ones rise towards the lower clamp
        t = [0.3, 0.8, 1.1, 2.0, 1.7e308]
        delta = [1, 1, 2, 0, 2]
        data = CompetingRisksData(t, delta)
        assert profile_loglik(1.0, data, G) == -math.inf
        fit = fit_mle(data, G)
        assert fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE
        assert fit.n_evals == 29
        # the same row stacked next to a row that converges
        near = [0.3, 0.8, 1.1, 2.0, 1.7]
        stack = _Stack(G, np.array([near, t]), np.array([[0, 1, 2, 1, 2], delta]))
        (fits,) = _fit_stacks([stack])
        assert fits.code.tolist() == [_CONVERGED, _NO_MLE_CLAMP]
        assert fits.n_evals[1] == 29


class TestStackedFits:
    def test_each_row_stops_at_the_evaluation_cap(self, monkeypatch):
        # 5, 6 and 5 Newton iterates, the first of them the start rung, are
        # 5, 6 and 5 evaluations uncapped; with the cap at 4 each row stops
        # at its fourth evaluation, alone and in a stack alike
        rows = [[x**p for x in T12] for p in (1.0, 0.005, 50.0)]
        datasets = [CompetingRisksData(t, D12) for t in rows]
        assert [fit_mle(d, W).n_evals for d in datasets] == [5, 6, 5]
        monkeypatch.setattr(inference, "_MAX_EVALS", 4)
        stack = _Stack(W, np.array(rows), np.array([D12] * 3, dtype=np.int8))
        (fits,) = _fit_stacks([stack])
        assert fits.n_evals.tolist() == [4, 4, 4]
        for j, data in enumerate(datasets):
            fit = fit_mle(data, W)
            assert fit.status is row_outcome(fits, j) is FitStatus.CONVERGED
            assert fit.n_evals == 4
            assert fit.params_hat.lam == fits.lam[j]

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_eval_counts_do_not_depend_on_the_stack(self, kind):
        # lambda-hat far from the ladder's start, so every fit scans rungs; at
        # n=400 a one-row scan evaluates more rungs per call than a stack
        parent = BvfParams(kind, 1.34, 1.17, 0.86, 300.0)
        rng = np.random.default_rng(400)
        datasets = [from_bivariate(sample(parent, 400, rng)) for _ in range(20)]
        t = np.array([d.t for d in datasets])
        delta = np.array([d.delta for d in datasets])
        (fits,) = _fit_stacks([_Stack(kind, t, delta)])
        assert fits.n_evals.tolist() == [fit_mle(d, kind).n_evals for d in datasets]


def _caption_data(params, n, seed, censored=0.0, scale=1.0):
    """The data of ``sample(params, n, seed)``, censored at the threshold
    of a fraction ``censored``, with their times multiplied by ``scale``."""
    c = censoring_threshold(params, censored) if censored else None
    data = from_bivariate(sample(params, n, seed), c)
    return CompetingRisksData(data.t * scale, data.delta)


# Per outcome code of a fit: the kind and records that end in it, and the
# FitStatus or the error class and message that fit_mle gives them
_CODE_CASES = {
    _CONVERGED: (W, lambda: (T12, D12), FitStatus.CONVERGED),
    _BOUNDARY: (W, lambda: ([0.3, 0.7, 1.2, 0.9], [1, 1, 2, 1]), FitStatus.BOUNDARY_ALPHA_ZERO),
    _NO_MLE_CLAMP: (W, lambda: ([0.5] * 3, [0, 1, 2]), FitStatus.NO_MLE_MONOTONE_PROFILE),
    _NO_MLE_LIMIT: (
        G,
        lambda: (lambda d: (d.t, d.delta))(_study_replicate(PG, 9305, 290)),
        FitStatus.NO_MLE_MONOTONE_PROFILE,
    ),
    _NO_FAILURES: (W, lambda: ([1.5] * 12, [3] * 12), (EstimationError, "no failures observed")),
    _NO_FINITE_PROFILE: (
        W,
        lambda: (T12[:3] + [math.inf] + T12[4:], D12),
        (EstimationError, "profile log-likelihood is -inf over the entire bracket"),
    ),
    _DEGENERATE: (
        G,
        lambda: ([5e-324, 5e-324, 5e-324, 5e-324, 1e-320, 1e-320], [1, 2, 0, 1, 2, 1]),
        (DegenerateDataError, "sum of log S0 vanished or overflowed at lambda="),
    ),
}


class TestOutcomeCodes:
    """Every fit ends in one int8 code, which decodes to what fit_mle
    reports: a FitStatus, or an error with its message."""

    @pytest.mark.parametrize("code", sorted(_CODE_CASES))
    def test_each_code_decodes_as_fit_mle_reports_it(self, code):
        kind, records, want = _CODE_CASES[code]
        t, delta = (np.asarray(v, dtype=dt) for v, dt in zip(records(), (float, np.int8)))
        (fits,) = _fit_stacks([_Stack(kind, t[None], delta[None])])
        assert fits.code.dtype == np.int8 and fits.code.tolist() == [code]
        got = one_row_fit_mle(kind, t, delta)
        assert same_outcome(row_outcome(fits, 0), got)
        if isinstance(want, FitStatus):
            assert got is want
            assert _REASONS[code] == want.value
        else:
            error, message = want
            assert type(got) is error and str(got).startswith(message)
            assert _REASONS[code] == error.__name__
        if code == _DEGENERATE:
            assert str(got) == message + repr(float(fits.lam[0]))

    def test_draw_codes_name_the_errors_of_from_bivariate(self):
        # draws whose coordinates underflow to 0 (DomainError) or whose
        # times overflow to inf (ValidationError)
        params = BvfParams(W, 0.048, 0.048, 0.048, 0.0052)
        states = _child_states(np.random.SeedSequence(77), np.arange(150)[:, None])
        _, t, delta, code = _draw_stack(params, 100, states, None)
        assert {_DRAW_DOMAIN, _DRAW_INVALID} <= set(code.tolist())
        (fits,) = _fit_stacks([_Stack(W, t, delta)])
        for draw_code, error in ((_DRAW_DOMAIN, DomainError), (_DRAW_INVALID, ValidationError)):
            assert _REASONS[draw_code] == error.__name__
            with pytest.raises(error):
                inference._status(draw_code, fits, 0)

    def test_clamp_and_limit_no_mle_are_told_apart(self):
        # Both report NoMleMonotoneProfile, and neither runs Newton. CLAMP:
        # the ladder's maximum is at a clamp, here the upper one of T12's
        # Gompertz profile in a time unit 1e9 too large. LIMIT: replicate
        # 290 of criterion 7's 40%-censored Gompertz n=200 cell, whose
        # profile leaves its limit falling, decided with no evaluation. At
        # unit scale none of 21,600 caption fits (caption parents x
        # censoring 0/20/40% x n 10/30/100/300 x seeds 0-199 x 3 kinds)
        # was decided next to a clamp; 7200 ended at one.
        clamp = CompetingRisksData([x * 1e-9 for x in T12], D12)
        limit = _study_replicate(PG, 9305, 290)
        fits = _fit_stacks([_Stack(G, d.t[None], d.delta[None]) for d in (clamp, limit)])
        assert [f.code.tolist() for f in fits] == [[_NO_MLE_CLAMP], [_NO_MLE_LIMIT]]
        assert all(math.isnan(f.lam[0]) for f in fits)
        assert [f.n_evals.tolist() for f in fits] == [[16], [0]]
        for data in (clamp, limit):
            assert fit_mle(data, G).status is FitStatus.NO_MLE_MONOTONE_PROFILE
        unit = fit_mle(_caption_data(PW, 20, 103), G)
        assert unit.status is FitStatus.CONVERGED and unit.n_evals == 14

    @pytest.mark.parametrize(
        "records",
        [
            # the Weibull caption parent, n=20, seed 0
            lambda: from_bivariate(sample(PW, 20, 0)),
            # replicate 290 of criterion 7's 40%-censored Gompertz n=200
            # cell, whose limit slope is -1.33e-5
            lambda: _study_replicate(PG, 9305, 290),
        ],
        ids=["weibull-parent", "rep290"],
    )
    def test_gompertz_limit_decides_before_any_pass(self, records, monkeypatch):
        # A Gompertz profile is concave, so one that leaves its limit
        # without rising never rises above it: the fit takes no pass
        data = records()
        assert _limit_slope(data, G) <= 0.0
        calls = observe(monkeypatch)
        fit = fit_mle(data, G)
        assert fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE and fit.n_evals == 0
        (call,) = calls
        assert call.log == []

    @pytest.mark.parametrize(
        "records, vain",
        [
            # the Weibull caption parent, n=20, seed 1, 40% censored, at
            # t * 1e-4: its scan evaluates one rung past the fall
            (lambda: _caption_data(PW, 20, 1, 0.4, 1e-4), 1),
            # the Lomax caption parent, n=20, seed 47, at t * 1e-4
            (lambda: _caption_data(PL, 20, 47, 0.0, 1e-4), 0),
        ],
        ids=["past-the-fall", "near-clamp"],
    )
    def test_limit_decided_fit_takes_no_newton_pass(self, records, vain, monkeypatch):
        # A Lomax maximum next to the lower clamp is decided by the bound
        # on its chord slope right after the ladder, so the fit's only
        # passes are the ladder's. Every evaluation of the fit's passes
        # counts in n_evals but the rungs the ladder scan evaluated past the
        # profile's first fall.
        data = records()
        calls = observe(monkeypatch)
        fit = fit_mle(data, L)
        assert fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE
        (call,) = calls
        assert [name for name, _ in logged_passes(calls)] == ["survival"] * len(call.log)
        evaluations = sum(lam.size for lam, _ in call.log)
        assert evaluations - fit.n_evals == _rungs_past_the_fall(calls, data, L) == vain


def _rungs_past_the_fall(calls, data, kind) -> int:
    """The rungs that the ladder scan of a one-row fit's engine ``calls``
    evaluated past the profile's first fall. The passes between the first
    (the start rung and its neighbours) and Newton's first, or the end of
    the log where no Newton pass ran, are the scan's; it climbs from the
    neighbour on its side along consecutive rungs, and its first fall is
    the first rung whose profile is no higher than the rung before it."""
    (_, around), *rest = logged_passes(calls)
    names = [name for name, _ in rest]
    ends = names.index("newton") if "newton" in names else len(rest)
    scanned = [lam for _, lams in rest[:ends] for lam in lams]
    if not scanned:
        return 0
    path = [min(around) if scanned[0] < min(around) else max(around), *scanned]
    p = [profile_loglik(lam, data, kind) for lam in path]
    falls = [i for i in range(1, len(p)) if p[i] <= p[i - 1]]
    return len(path) - 1 - falls[0] if falls else 0


# The datasets whose Gompertz or Lomax fit is checked against the closed
# form of its exponential limit: T12 and the flat replicates above
_LIMIT_DATA = {
    "T12": lambda: CompetingRisksData(T12, D12),
    "gompertz-rep115": lambda: _study_replicate(PG, 9305, 115),
    "lomax-rep275": lambda: _study_replicate(PL, 9308, 275),
    "gompertz-rep290": lambda: _study_replicate(PG, 9305, 290),
}

# Caption data whose fit once depended on the time unit, with the kind
# fitted: the Weibull parent fitted as Gompertz, and the Lomax parent
# complete and 40% censored
_UNIT_DATA = {
    "weibull-103": (lambda scale: _caption_data(PW, 20, 103, scale=scale), G),
    "lomax-105": (lambda scale: _caption_data(PL, 20, 105, scale=scale), L),
    "lomax-95-censored": (lambda scale: _caption_data(PL, 20, 95, 0.4, scale), L),
}


def _limit_slope(data, kind) -> float:
    """The slope of the Gompertz or Lomax profile of ``data`` at its
    exponential limit, lambda -> 0+: s1 = sum_unc t - m sum t**2 / (2 sum t)
    for Gompertz and -s1 for Lomax, in compensated sums."""
    unc = data.t[data.delta != FailureMode.CENSORED]
    total = math.fsum(data.t)
    s1 = math.fsum(unc) - unc.size * math.fsum(data.t**2) / (2.0 * total)
    return s1 if kind is G else -s1


class TestExponentialLimit:
    """As lambda -> 0 the Gompertz and Lomax profiles tend to
    p0 = -m log sum t, with slope s1 for Gompertz and -s1 for Lomax. Up to
    lambda, the chord slope (p - p0) / lambda is at most that slope, plus
    lambda sum_unc t**2 / 2 for Lomax; a maximum next to the lower clamp is
    no MLE where that bound at the next rung is not positive."""

    @pytest.mark.parametrize("kind", [G, L])
    @pytest.mark.parametrize("name", sorted(_LIMIT_DATA))
    def test_profile_leaves_its_limit_along_the_slope(self, name, kind):
        data = _LIMIT_DATA[name]()
        slope = _limit_slope(data, kind)
        p0 = -(data.m0 + data.m1 + data.m2) * math.log(math.fsum(data.t))
        # (p(lambda) - p0) / lambda - slope is O(lambda). At these lambdas
        # p's rounding is far below slope * lambda, so the error falls with
        # lambda, about tenfold
        err = [(profile_loglik(lam, data, kind) - p0) / lam - slope for lam in (1e-3, 1e-4)]
        assert 9.5 < err[0] / err[1] < 10.5

    @pytest.mark.parametrize("kind", [G, L])
    @pytest.mark.parametrize("name", sorted(_LIMIT_DATA) + sorted(_UNIT_DATA))
    def test_engine_bounds_the_chord_slope(self, name, kind, monkeypatch):
        # the engine's bound, in the call of the data's fit, is the closed
        # form from its lambda-free sums; every chord of the profile from
        # its limit lies below it
        data = _LIMIT_DATA[name]() if name in _LIMIT_DATA else _UNIT_DATA[name][0](1.0)
        calls = observe(monkeypatch)
        fit_mle(data, kind)
        (passes,) = calls
        unc = data.t[data.delta != FailureMode.CENSORED]
        bend = 0.0 if kind is G else math.fsum(unc**2) / 2.0
        p0 = -unc.size * math.log(math.fsum(data.t))
        for lam in (0.0, 1e-2, 1e-1, 1.0, 10.0):
            bound = passes.limit_slope(np.array([0]), np.array([lam]))[0]
            assert bound == pytest.approx(_limit_slope(data, kind) + lam * bend, rel=1e-9, abs=1e-12)
            if lam:
                assert (profile_loglik(lam, data, kind) - p0) / lam <= bound

    def test_slope_signs(self):
        # the profile next to the clamp leaves its limit falling, by
        # s1 = -1.33e-5, about 1e-6 of sum_unc t
        flat = _study_replicate(PG, 9305, 290)
        unc_sum = flat.t[flat.delta != FailureMode.CENSORED].sum()
        assert _limit_slope(flat, G) == pytest.approx(-1.33e-5, rel=1e-2)
        assert -_limit_slope(flat, G) / unc_sum == pytest.approx(9.8e-7, rel=1e-2)
        for data, kind in _UNIT_DATA.values():
            assert _limit_slope(data(1.0), kind) > 0.0 and _limit_slope(data(1e4), kind) > 0.0

    @pytest.mark.parametrize("name", sorted(_UNIT_DATA))
    def test_fits_converge_in_either_time_unit(self, name):
        # Each maximum next to the lower clamp at t * 1e4 is an MLE, as the
        # positive limit slope there says: the slope scales with the time
        # unit and keeps its sign.
        data, kind = _UNIT_DATA[name]
        for scale in (1.0, 1e4):
            assert fit_mle(data(scale), kind).status is FitStatus.CONVERGED, scale

    @pytest.mark.parametrize("scale", [1.0, 4e9])
    def test_slope_decides_only_next_to_the_clamp(self, scale):
        # A Lomax maximum 9.28 above the limit p0, on a profile that leaves
        # its limit falling, is an MLE: far from the clamp in unit time,
        # and next to it at t * 4e9, where the profile's bend up, past
        # lambda * t ~ 1, outweighs its slope by the next rung.
        t = np.array([0.0067, 84.812, 54.0933, 0.0457, 91.2961, 92.8694, 0.0019]) * scale
        data = CompetingRisksData(t, [2, 1, 0, 2, 0, 1, 0])
        assert _limit_slope(data, L) < 0.0
        fit = fit_mle(data, L)
        assert fit.status is FitStatus.CONVERGED
        assert fit.params_hat.lam * scale == pytest.approx(372.36, rel=1e-5)
        assert (fit.params_hat.lam < 64e-8) is (scale > 1.0)
        p0 = -7 * math.log(math.fsum(t))
        assert profile_loglik(fit.params_hat.lam, data, L) - p0 == pytest.approx(9.28, abs=5e-3)

    def test_lomax_maximum_below_its_limit_is_no_mle(self, monkeypatch):
        # Newton finds a local maximum at lambda = 0.2462, whose profile,
        # -36.618, lies below the limit p0 = -36.040: the supremum is the
        # limit, so there is no MLE. The profile there comes from the sums
        # of Newton's last pass, so the rule takes no pass of its own.
        t = [2942.57, 1806.29, 728.81, 2704.40, 1.86]
        data = CompetingRisksData(t, [3, 2, 0, 1, 0])
        calls = observe(monkeypatch)
        (fits,) = _fit_stacks([_Stack(L, data.t[None], data.delta[None])])
        assert fits.code.tolist() == [_NO_MLE_LIMIT]
        lam = fits.lam[0]
        assert lam == pytest.approx(0.2462, abs=1e-4)
        (call,) = calls
        assert logged_passes([call])[-1] == ("newton", [lam])
        assert profile_loglik(lam, data, L) < -4 * math.log(math.fsum(t))
        fit = fit_mle(data, L)
        assert fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE and fit.n_evals == 8


class TestLockstepFits:
    """One engine call over stacks of every kind must count a row's
    evaluations as a call of its own does (the bits of every field are
    checked in tests/test_invariance.py)."""

    def test_fits_ending_at_a_clamp_count_sixteen_evaluations(self):
        # a monotone profile climbs from rung 14 to a clamp: 3 rungs at the
        # start and 13 in the scan. Rungs a scan chunk evaluated past the
        # clamp's -inf neighbour are not counted, so a fit reads 16 alone
        # (one scan chunk) and as a row of a mixed call (chunks from 1 rung).
        # A Gompertz profile that leaves its limit falling takes no
        # evaluation.
        pw = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        datasets = [from_bivariate(sample(pw, 150, seed=s)) for s in range(200)]
        t = np.array([d.t for d in datasets])
        delta = np.array([d.delta for d in datasets])
        mixed = _fit_stacks([_Stack(kind, t, delta) for kind in (W, G, L)])
        at_clamp = {}
        for kind, fits in zip((W, G, L), mixed):
            # no Newton ran on a row that ends at a clamp
            rows = np.flatnonzero(fits.code == _NO_MLE_CLAMP).tolist()
            assert np.isnan(fits.lam[rows]).all()
            assert fits.n_evals[rows].tolist() == [16] * len(rows), kind
            assert [fit_mle(datasets[r], kind).n_evals for r in rows] == [16] * len(rows)
            at_clamp[kind] = len(rows)
        assert at_clamp == {W: 0, G: 0, L: 34}
        limit = np.flatnonzero(mixed[1].code == _NO_MLE_LIMIT)
        assert limit.size == 166 and (mixed[1].n_evals[limit] == 0).all()

class TestRowBlocks:
    """Stacked passes run in row blocks of at most _SCAN_RECORDS records;
    rows past the first block must get the bits their one-row call gets."""

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_stack_spanning_blocks_fits_each_row_as_fit_mle(self, kind):
        # 120 rows of 400 records: Newton's passes span three blocks and the
        # ladder's first call (three rungs per row) nine
        parent = BvfParams(kind, 1.34, 1.17, 0.86, 0.91)
        rng = np.random.default_rng(120)
        datasets = [from_bivariate(sample(parent, 400, rng)) for _ in range(120)]
        assert 120 * 400 > 2 * _SCAN_RECORDS
        t = np.array([d.t for d in datasets])
        delta = np.array([d.delta for d in datasets])
        (fits,) = _fit_stacks([_Stack(kind, t, delta)])
        for j, data in enumerate(datasets):
            fit = fit_mle(data, kind)
            assert row_outcome(fits, j) is fit.status, j
            assert fits.n_evals[j] == fit.n_evals, j
            if fit.params_hat is not None:
                q = fit.params_hat
                assert fits.lam[j] == q.lam, j
                assert fits.alphas[:, j].tolist() == [q.alpha0, q.alpha1, q.alpha2], j

    @pytest.mark.parametrize("kind, big, lam", [(W, 1e30, 30.0), (G, 1000.0, 1.0)])
    def test_overflowing_rows_past_the_first_block(self, kind, big, lam):
        # every third row from row 60 on holds one record whose survival term
        # overflows at its lambda; blocks hold 40 rows of 400 records
        rng = np.random.default_rng(61)
        R, n = 100, 400
        t = rng.uniform(0.5, 2.0, size=(R, n))
        delta = rng.integers(0, 3, size=(R, n)).astype(np.int8)
        over = np.arange(60, R, 3)
        t[over, 7] = big
        delta[over, 7] = 1
        lams = np.where(np.isin(np.arange(R), over), lam, 0.8)
        stack = _Stack(kind, t, delta)
        with np.errstate(all="ignore"):
            a, _ = run_pass(stack, "survival", _ALL, lams)
            p = run_pass(stack, "profile", np.arange(R), lams)
            terms = run_pass(stack, "newton_terms", _ALL, lams)
        assert (a[over] == np.inf).all() and np.isfinite(p[over]).all()
        for r in range(R):
            data = CompetingRisksData(t[r], delta[r])
            assert p[r] == profile_loglik(float(lams[r]), data, kind), r
            one = _Stack(kind, t[r : r + 1], delta[r : r + 1])
            with np.errstate(all="ignore"):
                want = run_pass(one, "newton_terms", _ALL, lams[r : r + 1])
            assert [v[r] for v in terms] == [v[0] for v in want], r

    @pytest.mark.parametrize(
        "params, n, R, censored_fraction",
        [
            # alphas and lambda small enough that some draws underflow to 0
            # (DomainError) or overflow to inf times (ValidationError)
            (BvfParams(W, 0.048, 0.048, 0.048, 0.0052), 100, 150, 0.0),
            (BvfParams(G, 1.13, 0.96, 0.79, 1.05), 400, 40, 0.4),
        ],
    )
    def test_draw_stack_spanning_blocks_equals_each_draw(
        self, params, n, R, censored_fraction, monkeypatch
    ):
        assert R * 3 * n > 2 * _SCAN_RECORDS
        c = censoring_threshold(params, censored_fraction) if censored_fraction else None
        children = np.random.SeedSequence(77).spawn(R)
        states = _child_states(np.random.SeedSequence(77), np.arange(R)[:, None])
        # every buffer the draw allocates, to tell the drawn stack from a gather
        buffers, empty = [], np.empty

        def recorded_empty(*args, **kwargs):
            buffers.append(empty(*args, **kwargs))
            return buffers[-1]

        monkeypatch.setattr(np, "empty", recorded_empty)
        rows, t, delta, code = _draw_stack(params, n, states, c)
        monkeypatch.undo()
        assert code.dtype == np.int8 and code.shape == (R,)
        assert rows.tolist() == np.flatnonzero(code == 0).tolist()
        assert t.shape == delta.shape == (rows.size, n)
        drawn = any(np.shares_memory(t, b) for b in buffers)
        assert drawn == (rows.size == R)
        for r, child in enumerate(children):
            pairs = sample(params, n, np.random.default_rng(child))
            try:
                data = from_bivariate(pairs, c)
            except (DomainError, ValidationError) as exc:
                assert _REASONS[code[r]] == type(exc).__name__, r
                continue
            assert code[r] == 0, r
            j = int(np.searchsorted(rows, r))
            assert t[j].tolist() == data.t.tolist(), r
            assert delta[j].tolist() == data.delta.tolist(), r
        if censored_fraction == 0.0:
            assert {_DRAW_DOMAIN, _DRAW_INVALID, 0} <= set(code.tolist())
        else:
            assert rows.size == R

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_draw_stack_rejects_the_censoring_time_as_from_bivariate(self, c):
        params = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
        children = np.random.SeedSequence(5).spawn(3)
        states = _child_states(np.random.SeedSequence(5), np.arange(3)[:, None])
        rows, t, delta, code = _draw_stack(params, 20, states, c)
        with pytest.raises(DomainError):
            from_bivariate(sample(params, 20, np.random.default_rng(children[0])), c)
        assert rows.size == 0 and t.shape == delta.shape == (0, 20)
        assert code.tolist() == [_DRAW_DOMAIN] * 3
        # an empty stack fits to empty results
        (fits,) = _fit_stacks([_Stack(G, t, delta)])
        assert fits.code.size == 0 and fits.lam.size == 0

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_rows_longer_than_a_block_fit_as_fit_mle(self, kind):
        data = from_bivariate(sample(BvfParams(kind, 1.34, 1.17, 0.86, 0.91), 20000, seed=5))
        assert data.n > _SCAN_RECORDS
        fit = fit_mle(data, kind)
        t = np.stack([data.t, data.t])
        delta = np.stack([data.delta, data.delta])
        (fits,) = _fit_stacks([_Stack(kind, t, delta)])
        q = fit.params_hat
        for j in range(2):
            assert row_outcome(fits, j) is fit.status
            assert fits.n_evals[j] == fit.n_evals
            assert fits.lam[j] == q.lam
            assert fits.alphas[:, j].tolist() == [q.alpha0, q.alpha1, q.alpha2]


def _spawned(entropy, spawned=0, **kwargs):
    """A SeedSequence that has already spawned ``spawned`` children."""
    seq = np.random.SeedSequence(entropy, **kwargs)
    seq.spawn(spawned)
    return seq


class TestStackSums:
    """The engine's per-record sums against the scalar model layer."""

    @staticmethod
    def check(got, terms):
        want = math.fsum(terms)
        if math.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * math.fsum(abs(v) for v in terms)

    @pytest.mark.parametrize(
        "p", [BvfParams(W, 1.34, 1.17, 0.86, 0.91), PG, PL], ids=lambda p: p.kind.value
    )
    def test_survival_matches_log_s0_and_h0(self, p):
        lams = [0.3, 1.0, 2.7]
        datasets = [
            from_bivariate(sample(p, 60, seed), censoring_threshold(p, 0.3))
            for seed in (1, 2, 3)
        ]
        t = np.stack([d.t for d in datasets for _ in lams])
        delta = np.stack([d.delta for d in datasets for _ in lams])
        lam = np.array(lams * len(datasets))
        with np.errstate(all="ignore"):
            a, c = run_pass(_Stack(p.kind, t, delta), "survival", _ALL, lam)
        assert (delta == 3).any(axis=1).all()
        for r in range(lam.size):
            unc = t[r][delta[r] != 3].tolist()
            self.check(a[r], [-log_s0(p.kind, x, lam[r]) for x in t[r].tolist()])
            self.check(c[r], [math.log(h0(p.kind, x, lam[r])) for x in unc])

    def test_overflowing_gompertz_row(self):
        # the censored record's exp(lam*t) is past double range
        t = np.array([[0.5, 1.0, 2.0, 800.0]])
        delta = np.array([[0, 1, 2, 3]])
        with np.errstate(all="ignore"):
            a, c = run_pass(_Stack(G, t, delta), "survival", _ALL, np.array([1.0]))
        self.check(a[0], [-log_s0(G, x, 1.0) for x in t[0].tolist()])
        self.check(c[0], [math.log(h0(G, x, 1.0)) for x in t[0, :3].tolist()])
        assert a[0] == math.inf and math.isfinite(c[0])

    def test_overflowing_lomax_row(self):
        # the censored record's lam*t is past double range, so its log1p is
        # inf: a is inf, and the hazard sum c, which takes that inf from a
        # (inf - inf), is NaN; every consumer reads a first and returns -inf
        # or raises
        t = np.array([0.5, 1.0, 2.0, 1e300])
        delta = np.array([0, 1, 2, 3])
        lam = 1e10
        with np.errstate(all="ignore"):
            a, c = run_pass(_Stack(L, t[None], delta[None]), "survival", _ALL, np.array([lam]))
        self.check(a[0], [-log_s0(L, x, lam) for x in t.tolist()])
        assert a[0] == math.inf and math.isnan(c[0])
        data = CompetingRisksData(t, delta, censoring_time=1e300)
        assert profile_loglik(lam, data, L) == -math.inf
        assert log_likelihood(BvfParams(L, 1.0, 1.0, 1.0, lam), data) == -math.inf
        with pytest.raises(DegenerateDataError):
            alphas_given_lambda(lam, data, L)


def _reference_sums(kind, t, delta, lam):
    """The record sums of a stack of ``t``/``delta`` rows at ``lam`` (one
    per row, or several against one row), computed over whole rows with
    fresh temporaries: the stack's formulas before its passes wrote into
    scratch. The uncensored sum of x selects its terms with np.where. The
    rows are Type-I censored, so each uncensored Lomax sum is the plain sum
    less m3 copies of its term at C, the row's largest x (0 in a complete
    row). Returns the survival sums (a, and for Lomax the
    uncensored log1p sum), the slope sums (a, a', a'', and for Lomax
    sum_unc q and q**2) and, but for Lomax, the uncensored sum of x."""
    x = np.log(t) if kind is W else t
    unc = delta != 3
    z = lam[:, None] * x
    if kind is L:
        s = np.log1p(z)
        q = x / (1.0 + z)
        qq = q * q
        m3 = (~unc).sum(axis=-1)
        at_c = np.where(m3 > 0, x.max(axis=-1), 0.0)
        z_c = lam * at_c
        q_c = at_c / (1.0 + z_c)
        survival = (s.sum(axis=-1), s.sum(axis=-1) - m3 * np.log1p(z_c))
        slopes = (
            np.log1p(z).sum(axis=-1),
            q.sum(axis=-1),
            -qq.sum(axis=-1),
            q.sum(axis=-1) - m3 * q_c,
            qq.sum(axis=-1) - m3 * (q_c * q_c),
        )
        return survival, slopes, None
    s = np.exp(z) if kind is W else np.expm1(z)
    xe = x * s if kind is W else x * (s + 1.0)
    survival = (s.sum(axis=-1),)
    slopes = (s.sum(axis=-1), xe.sum(axis=-1), (x * xe).sum(axis=-1))
    return survival, slopes, np.where(unc, x, 0.0).sum(axis=-1)


def _reference_passes(kind, t, delta, lam):
    """survival, newton_terms and moments of a stack of ``t``/``delta``
    rows at ``lam``, from :func:`_reference_sums` by the stack's formulas
    (rows whose survival sums stay in double range)."""
    (a, *lomax), (_, a1, a2, *uqs), unc_sum = _reference_sums(kind, t, delta, lam)
    m = np.broadcast_to((delta != 3).sum(axis=-1), lam.shape)
    c = m * np.log(lam)
    if kind is W:
        c += (lam - 1.0) * unc_sum
    elif kind is G:
        c += lam * unc_sum
    else:
        c -= lomax[0]
    r1, r2 = a1 / a, a2 / a
    lam2 = lam * lam
    if kind is L:
        uq, uq2 = uqs
        g = m - lam * uq - m * (lam * r1)
        h = g + lam2 * uq2 - m - m * (lam2 * (r2 - r1 * r1))
    else:
        g = m + lam * unc_sum - m * (lam * r1)
        h = g - m - m * (lam2 * (r2 - r1 * r1))
    c2 = -m / lam**2
    moments = (a1, a2, c2 + uqs[1] if kind is L else c2)
    return {"survival": (a, c), "newton_terms": (a, g, h), "moments": moments}


class TestStackPasses:
    """A pass writes its temporaries into its engine call's scratch and
    takes its uncensored Lomax sums from its plain sums; its outputs must be
    the bits of the plain formulas (:func:`_reference_passes`), whatever ran
    in the call before, and it must allocate no per-record array."""

    @staticmethod
    def records(kind, censored, R, n, seed=0):
        p = BvfParams(kind, 1.34, 1.17, 0.86, 0.91)
        c = censoring_threshold(p, 0.3) if censored else None
        datasets = [from_bivariate(sample(p, n, seed + j), c) for j in range(R)]
        t = np.stack([d.t for d in datasets])
        delta = np.stack([d.delta for d in datasets])
        assert (delta == 3).any() == censored
        return t, delta

    @staticmethod
    def assert_passes(stack, rows, lam, want):
        passes = inference._Passes([stack])
        scratch = [view.base for view in passes.views[0]]
        for name, values in want.items():
            with np.errstate(all="ignore"):
                got = run_pass(passes, name, rows, lam)
            assert len(got) == len(values), name
            for g, v in zip(got, values):
                assert g.shape == v.shape and np.array_equal(g, v, equal_nan=True), name
                assert g.tobytes() == v.tobytes(), name
                assert not any(np.shares_memory(g, buffer) for buffer in scratch), name

    @pytest.mark.parametrize("censored", [False, True], ids=["complete", "censored"])
    @pytest.mark.parametrize("kind", [W, G, L])
    def test_multi_row_stack(self, kind, censored):
        # 60 rows of 400 records span two blocks; a rows array repeats,
        # scrambles and gathers rows
        t, delta = self.records(kind, censored, 60, 400)
        stack = _Stack(kind, t, delta)
        lam = np.linspace(0.2, 3.0, 60)
        with np.errstate(all="ignore"):
            want = _reference_passes(kind, t, delta, lam)
        self.assert_passes(stack, _ALL, lam, want)
        rows = np.array([59, 0, 17, 17, 3, 41])
        with np.errstate(all="ignore"):
            want = _reference_passes(kind, t[rows], delta[rows], lam[rows])
        # a Newton pass, and so a moments pass, takes distinct rows
        distinct = {name: want.pop(name) for name in ("newton_terms", "moments")}
        self.assert_passes(stack, rows, lam[rows], want)
        rows, first = np.unique(rows, return_index=True)
        want = {name: tuple(v[first] for v in values) for name, values in distinct.items()}
        self.assert_passes(stack, rows, lam[rows], want)

    def test_uncensored_lomax_sums_are_the_masked_sums(self):
        # the plain sums less m3 terms at C (_reference_sums) against the
        # sums of the uncensored terms selected by np.where
        t, delta = self.records(L, True, 60, 400)
        lam = np.linspace(0.2, 3.0, 60)
        z = lam[:, None] * t
        (_, unc_log1p), (_, _, _, uq, uq2), _ = _reference_sums(L, t, delta, lam)
        q = t / (1.0 + z)
        for closed, terms in ((unc_log1p, np.log1p(z)), (uq, q), (uq2, q * q)):
            masked = np.where(delta != 3, terms, 0.0).sum(axis=-1)
            assert (np.abs(closed - masked) <= 1e-13 * terms.sum(axis=-1)).all()

    @pytest.mark.parametrize("censored", [False, True], ids=["complete", "censored"])
    @pytest.mark.parametrize("kind", [W, G, L])
    def test_one_row_longer_than_a_block(self, kind, censored):
        t, delta = self.records(kind, censored, 1, 20000)
        assert t.shape[1] > _SCAN_RECORDS
        stack = _Stack(kind, t, delta)
        for lam in (0.3, 1.0, 2.5):
            lam = np.array([lam])
            with np.errstate(all="ignore"):
                want = _reference_passes(kind, t, delta, lam)
            self.assert_passes(stack, _ALL, lam, want)

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("censored", [False, True], ids=["complete", "censored"])
    @pytest.mark.parametrize("kind", [W, G, L])
    def test_one_row_at_many_lambdas(self, kind, censored, n):
        # 19 ladder rungs against one broadcast row: one block at n=300,
        # blocks of 16 lambdas at n=1000; the survival sums stay finite
        t, delta = self.records(kind, censored, 1, n)
        stack = _Stack(kind, t, delta)
        lam = inference._RUNGS[:19].copy()
        with np.errstate(all="ignore"):
            want = _reference_passes(kind, t, delta, lam)
        assert np.isfinite(want["survival"][0]).all()
        self.assert_passes(stack, np.zeros(lam.size, dtype=np.int64), lam, want)

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_scratch_reuse_leaks_nothing(self, kind):
        # passes of every kind, at other lambdas and rows, run in turn in one
        # engine call, on its one scratch pair: each gives what it gives in
        # a new call on a new stack
        t, delta = self.records(kind, True, 9, 300, seed=40)
        shared = _Stack(kind, t, delta)
        passes = inference._Passes([shared])
        calls = [
            ("profile", _ALL, np.full(9, 0.7)),
            ("newton_terms", _ALL, np.linspace(0.5, 2.0, 9)),
            ("profile", np.array([4, 1]), np.array([2.2, 0.05])),
            ("moments", np.array([8]), np.array([1.3])),
            ("survival", _ALL, np.full(9, 0.7)),
            ("newton_terms", np.array([2, 5, 6]), np.array([0.4, 3.0, 1.0])),
            ("profile", _ALL, np.full(9, 1.9)),
        ]
        with np.errstate(all="ignore"):
            for name, rows, lam in calls:
                got = run_pass(passes, name, rows, lam)
                want = run_pass(_Stack(kind, t, delta), name, rows, lam)
                for g, w in zip(np.atleast_2d(got), np.atleast_2d(want)):
                    assert g.tobytes() == w.tobytes(), (name, lam)

    def test_threads_on_one_dataset_share_no_scratch(self):
        # profiles, fits, selections and log-likelihoods of one dataset from
        # more threads than cores, with a short switch interval: each call
        # runs on the cached stacks in the scratch of its own engine call (a
        # selection's three candidate stacks share one pair), and the
        # cached stacks hold only their records and per-row constants,
        # which no call writes
        assert _Stack.__slots__ == ("kind", "x", "counts", "m", "terms", "limit")
        p = BvfParams(L, 0.85, 0.57, 0.74, 0.69)
        data = from_bivariate(sample(p, 20000, seed=3), censoring_threshold(p, 0.3))

        def task(j):
            kind = (W, G, L)[j % 3]
            lam = 0.5 + 0.1 * j
            fit = fit_mle(data, kind)
            params = BvfParams(kind, 1.0, 1.0, 1.0, lam)
            chosen = select_model(data).to_json_dict()
            return profile_loglik(lam, data, kind), log_likelihood(params, data), fit, chosen

        def records(ws):
            return [getattr(ws, name).tobytes() for name in ("x", "counts", "m", "terms")]

        serial = [task(j) for j in range(12)]
        cached = {kind: inference._workspace(data, kind) for kind in (W, G, L)}
        before = {kind: records(ws) for kind, ws in cached.items()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(task, range(12), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        for kind, ws in cached.items():
            assert inference._workspace(data, kind) is ws
            assert records(ws) == before[kind], kind

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_passes_allocate_no_record_arrays(self, kind):
        # a one-row stack of 50000 records: a pass's temporaries would take
        # 400 kB each; once the engine call has allocated its scratch, and
        # a first pass has run, only per-row sums and their arithmetic may
        # be new
        t, delta = self.records(kind, True, 1, 50000)
        stack = _Stack(kind, t, delta)
        lam = np.array([0.9])
        passes = inference._Passes([stack])
        with np.errstate(all="ignore"):
            run_pass(passes, "survival", _ALL, lam)
        tracemalloc.start()
        try:
            for name in ("survival", "profile", "newton_terms", "moments"):
                tracemalloc.reset_peak()
                with np.errstate(all="ignore"):
                    run_pass(passes, name, _ALL, lam)
                assert tracemalloc.get_traced_memory()[1] < 50000, name
        finally:
            tracemalloc.stop()


class TestChildSeeds:
    """A stack's seeds are hashed in one pass; each row must draw the
    uniforms that NumPy's own child SeedSequence draws."""

    ROOTS = [0, 7, 9138, 20220618, 2**70 + 12345, 2**100 + 5, [1, 2**40, 3]]

    @staticmethod
    def check(parent, keys, children, monkeypatch, n=4):
        states = _child_states(parent, keys)
        assert states.tolist() == [c.generate_state(4, np.uint64).tolist() for c in children]
        drawn = []

        def recorded(p, v):
            drawn.append(v.copy())
            return _pairs_from_uniforms(p, v)

        monkeypatch.setattr(inference, "_pairs_from_uniforms", recorded)
        _draw_stack(BvfParams(W, 1.0, 1.0, 1.0, 1.0), n, states, None)
        monkeypatch.undo()
        want = [np.random.default_rng(c).random((3, n)).tolist() for c in children]
        assert np.concatenate(drawn).tolist() == want

    @pytest.mark.parametrize("entropy", ROOTS)
    def test_depth_one_keys(self, entropy, monkeypatch):
        children = np.random.SeedSequence(entropy).spawn(700)
        keys = np.arange(700)[:, None]
        self.check(np.random.SeedSequence(entropy), keys, children, monkeypatch)

    @pytest.mark.parametrize("entropy", ROOTS)
    def test_depth_three_keys(self, entropy, monkeypatch):
        # as an estimation study seeds replicate i's bootstrap: key (i, 1, b)
        replicates, B = [0, 3, 41], 60
        children = np.random.SeedSequence(entropy).spawn(42)
        resamples = [c for i in replicates for c in children[i].spawn(2)[1].spawn(B)]
        keys = [(i, 1, b) for i in replicates for b in range(B)]
        self.check(np.random.SeedSequence(entropy), keys, resamples, monkeypatch)

    @pytest.mark.parametrize("spawned, pool_size", [(5, 4), (0, 8)], ids=["pre-spawned", "pool-size-8"])
    def test_parent_spawns_its_next_children(self, spawned, pool_size, monkeypatch):
        parent = _spawned(9138, spawned, pool_size=pool_size)
        children = _spawned(9138, spawned, pool_size=pool_size).spawn(40)
        self.check(parent, spawned + np.arange(40)[:, None], children, monkeypatch)

    def test_largest_one_word_keys(self, monkeypatch):
        # the entry points keep every key entry below 2**32 (one word). NumPy
        # 2.4's own spawn exhausts memory at these counts, so the reference
        # children are built from their spawn keys
        first = 2**32 - 4
        parent = np.random.SeedSequence(9138, n_children_spawned=first)
        children = [np.random.SeedSequence(9138, spawn_key=(first + b,)) for b in range(4)]
        self.check(parent, first + np.arange(4)[:, None], children, monkeypatch)

    def test_spawned_parent(self, monkeypatch):
        # a parent with a spawn key of its own, as a bootstrap seeded with a
        # study's child sequence has
        parent = np.random.SeedSequence(9138).spawn(3)[2]
        children = np.random.SeedSequence(9138).spawn(3)[2].spawn(40)
        self.check(parent, np.arange(40)[:, None], children, monkeypatch)


class TestConsistency:
    def test_large_sample_recovers_truth(self):
        p = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 100_000, seed=12))
        fit = fit_mle(data, W)
        assert fit.params_hat.lam == pytest.approx(p.lam, rel=0.05)
        assert fit.params_hat.alpha0 == pytest.approx(p.alpha0, rel=0.05)
        assert fit.params_hat.alpha1 == pytest.approx(p.alpha1, rel=0.05)
        assert fit.params_hat.alpha2 == pytest.approx(p.alpha2, rel=0.05)


class TestObservedFisher:
    def test_rate_block_closed_form(self):
        p = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 2000, seed=13))
        fit = fit_mle(data, W)
        info = observed_fisher(fit.params_hat, data)
        m = (data.m0, data.m1, data.m2)
        a_hat = (fit.params_hat.alpha0, fit.params_hat.alpha1, fit.params_hat.alpha2)
        for j in range(3):
            want = m[j] / a_hat[j] ** 2
            assert info[j, j] == pytest.approx(want, rel=1e-4)
        # distinct rate pairs never interact
        scale = max(info[j, j] for j in range(3))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(info[i, j]) < 1e-4 * scale

    def test_symmetry(self, data12):
        fit = fit_mle(data12, W)
        info = observed_fisher(fit.params_hat, data12)
        np.testing.assert_allclose(info, info.T, rtol=0, atol=1e-12)

    def test_matches_independent_differencing(self):
        p = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
        data = from_bivariate(sample(p, 1500, seed=14))
        fit = fit_mle(data, G)
        info = observed_fisher(fit.params_hat, data)
        ref = _hessian_by_gradient(fit.params_hat, data)
        # exact zeros in the rate block need a floor set by the matrix scale
        d = np.abs(np.diag(info))
        tol = 1e-4 * (np.abs(info) + np.sqrt(np.outer(d, d)))
        err = np.abs(info - (-ref))
        assert np.all(err <= tol), np.argwhere(err > tol)

    @pytest.mark.parametrize("kind", [W, L])
    def test_one_moments_pass(self, kind, monkeypatch):
        # the positive-definiteness test and the matrix share one pass; on
        # the fitted dataset object they take the fit's sums and none
        p = BvfParams(kind, 1.34, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 300, seed=21), censoring_threshold(p, 0.3))
        fit = fit_mle(data, kind)
        want = observed_fisher(fit.params_hat, data)
        calls = observe(monkeypatch)
        assert observed_fisher(fit.params_hat, data).tobytes() == want.tobytes()
        assert logged_passes(calls) == []
        fresh = CompetingRisksData(data.t, data.delta, data.censoring_time)
        assert observed_fisher(fit.params_hat, fresh).tobytes() == want.tobytes()
        assert logged_passes(calls) == [("newton", [fit.params_hat.lam])]
        with pytest.raises(SingularMatrixError):
            observed_fisher(BvfParams(kind, 1.0, 1e-9, 1e-9, 1.0), CompetingRisksData([1.0], [0]))
        assert len(logged_passes(calls)) == 2

    def test_requires_positive_rates(self):
        data = CompetingRisksData([0.3, 0.7, 1.2, 0.9], [1, 1, 2, 1])
        fit = fit_mle(data, W)
        with pytest.raises(DomainError):
            observed_fisher(fit.params_hat, data)

    def test_singular_for_tiny_samples(self):
        data = CompetingRisksData([1.0], [0])
        p = BvfParams(W, 1.0, 1e-9, 1e-9, 1.0)
        with pytest.raises(SingularMatrixError):
            observed_fisher(p, data)

    @pytest.mark.parametrize(
        "params, seed, replicate, neg_p2, lam_root",
        [
            (BvfParams(G, 1.13, 0.96, 0.79, 1.05), 9305, 115, G_NEG_P2_REP115, G_LAM_ROOT_REP115),
            (BvfParams(L, 0.85, 0.57, 0.74, 0.69), 9308, 275, L_NEG_P2_REP275, L_LAM_ROOT_REP275),
        ],
    )
    def test_weakly_identified_fit_is_positive_definite(
        self, params, seed, replicate, neg_p2, lam_root
    ):
        data = _study_replicate(params, seed, replicate)
        fit = fit_mle(data, params.kind)
        assert fit.status is FitStatus.CONVERGED
        # the profile is so flat here that rounding in the score limits a
        # double-precision root to about 1e-8 relative
        assert fit.params_hat.lam == pytest.approx(lam_root, rel=1e-7)
        info = observed_fisher(fit.params_hat, data)
        # the last Cholesky pivot is the lambda Schur complement, which at the
        # closed-form rates is -p''(lambda_hat); lambda_hat's own error moves
        # p'' by under 3e-8 relative here
        chol = np.linalg.cholesky(info)
        assert chol[3, 3] ** 2 == pytest.approx(neg_p2, rel=1e-6)


def _study_replicate(params, seed, replicate):
    """Replicate ``replicate`` of a 500-replicate, n=200, 40%-censored
    estimation study with root seed ``seed``, rebuilt exactly as the study
    builds it."""
    child = np.random.SeedSequence(seed).spawn(500)[replicate].spawn(2)[0]
    pairs = sample(params, 200, np.random.default_rng(child))
    return from_bivariate(pairs, censoring_threshold(params, 0.4))


def _hessian_by_gradient(p, data):
    """Second derivative matrix built by differencing the gradient, with a
    step and stencil chosen independently of the implementation under test."""
    theta = np.array([p.alpha0, p.alpha1, p.alpha2, p.lam])

    def ll(v):
        return log_likelihood(BvfParams(p.kind, *v[:3], v[3]), data)

    def grad(v):
        g = np.empty(4)
        for j in range(4):
            h = 3e-5 * max(abs(v[j]), 1e-2)
            up, dn = v.copy(), v.copy()
            up[j] += h
            dn[j] -= h
            g[j] = (ll(up) - ll(dn)) / (2 * h)
        return g

    H = np.empty((4, 4))
    for j in range(4):
        h = 3e-5 * max(abs(theta[j]), 1e-2)
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        H[:, j] = (grad(up) - grad(dn)) / (2 * h)
    return 0.5 * (H + H.T)


class TestAsymptoticCi:
    def test_z_value_pins_interval_width(self):
        p = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 3000, seed=15))
        fit = fit_mle(data, W)
        ci = asymptotic_ci(fit, data, level=0.95)
        assert ci.method.value == "Asymptotic"
        assert ci.level == 0.95
        est = {
            "alpha0": fit.params_hat.alpha0,
            "alpha1": fit.params_hat.alpha1,
            "alpha2": fit.params_hat.alpha2,
            "lambda": fit.params_hat.lam,
        }
        for name, (lo, hi) in ci.intervals.items():
            var = ci.variances[name]
            mid = est[name]
            assert lo == pytest.approx(mid - Z_975 * math.sqrt(var), rel=1e-12)
            assert hi == pytest.approx(mid + Z_975 * math.sqrt(var), rel=1e-12)

    def test_variances_are_the_inverse_information_diagonal(self):
        p = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
        data = from_bivariate(sample(p, 400, seed=16), censoring_threshold(p, 0.2))
        fit = fit_mle(data, G)
        ci = asymptotic_ci(fit, data)
        ref = np.diag(np.linalg.inv(observed_fisher(fit.params_hat, data)))
        got = np.array([ci.variances[name] for name in PARAM_NAMES])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("level", [0.80, 0.90, 0.99])
    def test_z_matches_scipy(self, data12, level):
        from scipy.stats import norm

        fit = fit_mle(data12, W)
        ci = asymptotic_ci(fit, data12, level)
        lo, hi = ci.intervals["alpha0"]
        z = (hi - lo) / (2.0 * math.sqrt(ci.variances["alpha0"]))
        assert z == pytest.approx(norm.ppf(0.5 * (1.0 + level)), rel=1e-14)

    def test_level_changes_width(self):
        p = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 3000, seed=15))
        fit = fit_mle(data, W)
        w95 = asymptotic_ci(fit, data, 0.95)
        w80 = asymptotic_ci(fit, data, 0.80)
        for name in w95.intervals:
            len95 = w95.intervals[name][1] - w95.intervals[name][0]
            len80 = w80.intervals[name][1] - w80.intervals[name][0]
            assert len80 < len95

    def test_requires_converged_fit(self, data12):
        fit = fit_mle(data12, L)
        with pytest.raises(EstimationError):
            asymptotic_ci(fit, data12)

    def test_bad_level_rejected(self, data12):
        fit = fit_mle(data12, W)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                asymptotic_ci(fit, data12, bad)

    @pytest.mark.parametrize("bad", ["0.9", "abc", None, True, [0.9]])
    def test_non_number_level_rejected(self, data12, bad):
        # every interval entry point checks its level the same way
        fit = fit_mle(data12, W)
        for call in (
            lambda: asymptotic_ci(fit, data12, bad),
            lambda: bootstrap_ci(fit, data12, B=5, level=bad, seed=1),
            lambda: percentile_ranks(10, bad),
        ):
            with pytest.raises(ValidationError, match="level must be a number"):
                call()

    @pytest.mark.parametrize(
        "params, data",
        [
            (PG, _study_replicate(PG, 9305, 115)),
            (PL, _study_replicate(PL, 9308, 275)),
            (PG, from_bivariate(sample(PG, 30, seed=0), censoring_threshold(PG, 0.4))),
        ],
        ids=["gompertz-rep115", "lomax-rep275", "gompertz-n30"],
    )
    def test_variances_match_a_50_digit_inverse(self, params, data):
        import mpmath

        fit = fit_mle(data, params.kind)
        info = observed_fisher(fit.params_hat, data)
        with mpmath.workdps(50):
            inverse = mpmath.matrix(info.tolist()) ** -1
            want = [float(inverse[j, j]) for j in range(4)]
        got = [asymptotic_ci(fit, data).variances[name] for name in PARAM_NAMES]
        # The lambda Schur complement s = c - a'**2 sum alpha_k**2 / m_k is a
        # difference of two terms whose sum is kappa * s. kappa is about
        # 2.5e8 on the two weakly identified replicates, where rounding the
        # double entries alone moves every variance by up to eps * kappa
        # (about 5e-8), and 2.3e5 on the last dataset
        q = np.sum(1.0 / np.diag(info)[:3])
        tail = info[0, 3] ** 2 * q
        kappa = (info[3, 3] + tail) / (info[3, 3] - tail)
        rel = max(1e-10, np.finfo(float).eps * kappa)
        assert got == pytest.approx(want, rel=rel)


class TestWaldVariances:
    def test_singular_rows_of_a_stack_are_nan(self):
        # Lomax caption datasets of one size: converged fits; one of them at
        # lambda = 16 with its closed-form rates, where the profile is
        # convex (s = -p'' < 0); and a dataset without second-risk failures
        datasets = [from_bivariate(sample(PL, 40, seed=seed)) for seed in range(4)]
        fits = [fit_mle(data, L) for data in datasets]
        assert all(fit.status is FitStatus.CONVERGED for fit in fits)
        convex = datasets[1]
        _, g, h = run_pass(inference._workspace(convex, L), "newton_terms", _ALL, np.array([16.0]))
        assert h[0] - g[0] > 0.0  # lambda**2 p''
        delta = datasets[0].delta.copy()
        delta[delta == 2] = 1
        no_mode2 = CompetingRisksData(datasets[0].t, delta)
        # per row: its data, the point (alpha0, alpha1, alpha2, lambda) it
        # is evaluated at, and its fit (None for the singular rows)
        rows = [(data, _theta(fit.params_hat), fit) for data, fit in zip(datasets, fits)]
        rows.insert(1, (convex, (*alphas_given_lambda(16.0, convex, L), 16.0), None))
        rows.insert(3, (no_mode2, _theta(fits[0].params_hat), None))
        stack = _Stack(L, np.stack([r[0].t for r in rows]), np.stack([r[0].delta for r in rows]))
        order = np.array([5, 1, 0, 3, 4, 2])
        theta = np.array([rows[r][1] for r in order])
        with np.errstate(all="ignore"):
            moments = run_pass(stack, "moments", order, theta[:, 3])
        m = stack.counts[:, order]
        variances = inference._variances_from_moments(m, theta[:, :3].T, *moments)
        for r, got in zip(order.tolist(), variances):
            data, point, fit = rows[r]
            if fit is None:
                assert np.isnan(got).all(), r
                with pytest.raises(SingularMatrixError):
                    observed_fisher(BvfParams(L, *point), data)
            else:
                want = asymptotic_ci(fit, data).variances
                assert got.tolist() == [want[name] for name in PARAM_NAMES], r


class TestFittedSums:
    """A fit keeps the sums of each row's last Newton pass, which was
    evaluated at lambda-hat: the log-likelihood and the Wald variances
    there are read from them, with the bits fresh passes would give."""

    @staticmethod
    def assert_bytes(got, want):
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @staticmethod
    def fresh_sums(stack, rows, lam):
        """a and c from a survival pass and a', a'' and c'' from a moments
        pass of a new engine call at ``rows``."""
        return (*run_pass(stack, "survival", rows, lam), *run_pass(stack, "moments", rows, lam))

    @pytest.mark.parametrize("censored", [False, True], ids=["complete", "censored"])
    @pytest.mark.parametrize("kind", [W, G, L])
    def test_multi_row_stack(self, kind, censored):
        t, delta = TestStackPasses.records(kind, censored, 60, 400, seed=7)
        (fits,) = _fit_stacks([_Stack(kind, t, delta)])
        fitted = np.flatnonzero(np.isfinite(fits.lam))
        assert fitted.size > 50
        kept = (fits.a, fits.c, fits.a1, fits.a2, fits.c2)
        fresh = _Stack(kind, t, delta)
        lam = np.where(np.isfinite(fits.lam), fits.lam, 1.0)
        with np.errstate(all="ignore"):
            want = self.fresh_sums(fresh, _ALL, lam)
        self.assert_bytes([v[fitted] for v in kept], [v[fitted] for v in want])
        rows = fitted[::-3]
        with np.errstate(all="ignore"):
            want = self.fresh_sums(fresh, rows, fits.lam[rows])
        self.assert_bytes([v[rows] for v in kept], want)

    @pytest.mark.parametrize("censored", [False, True], ids=["complete", "censored"])
    @pytest.mark.parametrize("kind", [W, G, L])
    def test_one_row_longer_than_a_block(self, kind, censored):
        t, delta = TestStackPasses.records(kind, censored, 1, 20000)
        (fits,) = _fit_stacks([_Stack(kind, t, delta)])
        assert fits.code.tolist() == [_CONVERGED]
        with np.errstate(all="ignore"):
            want = self.fresh_sums(_Stack(kind, t, delta), _ALL, fits.lam)
        self.assert_bytes((fits.a, fits.c, fits.a1, fits.a2, fits.c2), want)

    @pytest.mark.parametrize("censored", [False, True], ids=["complete", "censored"])
    @pytest.mark.parametrize("kind", [W, G, L])
    def test_loglik_max_is_the_loglik_at_the_estimate(self, kind, censored):
        for seed in (3, 4):
            t, delta = TestStackPasses.records(kind, censored, 1, 300, seed=seed)
            data = CompetingRisksData(t[0], delta[0])
            fit = fit_mle(data, kind)
            assert fit.status is FitStatus.CONVERGED
            assert fit.loglik_max == log_likelihood(fit.params_hat, data)

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_intervals_from_the_fit_match_a_fresh_pass(self, kind, monkeypatch):
        # a hit (the fitted dataset object) against misses: a new dataset
        # over the same arrays, and the fit of another dataset object
        p = BvfParams(kind, 0.85, 0.57, 0.74, 0.69)
        data = from_bivariate(sample(p, 500, seed=11), censoring_threshold(p, 0.3))
        other = CompetingRisksData(data.t, data.delta, data.censoring_time)
        fit, other_fit = fit_mle(data, kind), fit_mle(other, kind)
        assert fit == other_fit
        calls = observe(monkeypatch)
        hit = asymptotic_ci(fit, data), observed_fisher(fit.params_hat, data)
        assert logged_passes(calls) == []
        for f in (fit, other_fit):
            d = CompetingRisksData(data.t, data.delta, data.censoring_time)
            ci, info = asymptotic_ci(f, d), observed_fisher(f.params_hat, d)
            assert repr(ci) == repr(hit[0]) and info.tobytes() == hit[1].tobytes()
        assert logged_passes(calls) == [("newton", [fit.params_hat.lam])] * 4

        def task(j):
            d = data if j % 2 else CompetingRisksData(data.t, data.delta, data.censoring_time)
            return repr(asymptotic_ci(fit, d)), observed_fisher(fit.params_hat, d).tobytes()

        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(task, range(8), timeout=120))
        assert threaded == [(repr(hit[0]), hit[1].tobytes())] * 8


@pytest.mark.parametrize(
    "kind, censored",
    [
        pytest.param(k, c, id=f"{k}{'' if c else '-complete'}")
        for k in (W, G, L)
        for c in (0.3, 0.0)
    ],
)
def test_fit_and_interval_record_passes(kind, censored, monkeypatch):
    # a caption dataset of 20,000 records whose profile peaks at the start
    # rung, far from the clamps: no scan and no limit slope. The fit's one
    # engine call takes the start rung (with its neighbours, for Gompertz
    # and Lomax) in its first pass, and, a row of 20,000 records being a
    # block alone, the derivative sums there, which are Newton's first
    # iterate; then Newton passes of one iterate each. So it sums lambda = 1
    # once, and its records exactly n_evals times; nothing else takes a pass
    p = {W: BvfParams(W, 1.34, 1.17, 0.86, 0.91), G: PG, L: PL}[kind]
    c = censoring_threshold(p, censored) if censored else None
    data = from_bivariate(sample(p, 20000, seed=5), c)
    calls = observe(monkeypatch)
    fit = fit_mle(data, kind)
    assert fit.status is FitStatus.CONVERGED
    assert abs(math.log(fit.params_hat.lam)) < math.log(2.0)
    (call,) = calls
    (first, around), *rest = logged_passes(calls)
    assert (first, around) == (("newton", [1.0]) if kind is W else ("start", [0.25, 1.0, 4.0]))
    assert [(name, len(lams)) for name, lams in rest] == [("newton", 1)] * len(rest)
    assert [lam for _, lams in rest for lam in lams].count(1.0) == 0
    assert record_evals(calls) == fit.n_evals * data.n
    asymptotic_ci(fit, data)
    assert calls == [call]


def test_weibull_bootstrap_stack_takes_newton_at_the_start(monkeypatch):
    # 100 resamples of 400 records: the call's first pass is Newton's first
    # iterate at lambda = 1 for every row, so it takes 4 passes, one fewer
    # than a profile pass at the start before Newton, and sums each row's
    # records n_evals times
    states = _child_states(np.random.SeedSequence(5), np.arange(100)[:, None])
    _, t, delta, code = _draw_stack(BvfParams(W, 1.34, 1.17, 0.86, 0.91), 400, states, None)
    assert not code.any()
    calls = observe(monkeypatch)
    (fits,) = _fit_stacks([_Stack(W, t, delta)])
    (call,) = calls
    assert [name for name, _ in logged_passes(calls)] == ["newton"] * 4
    assert logged_passes(calls)[0][1] == [1.0] * 100
    assert record_evals(calls) == fits.n_evals.sum() * 400


def _theta(p):
    return (p.alpha0, p.alpha1, p.alpha2, p.lam)


class TestPercentileRanks:
    def test_examples(self):
        assert percentile_ranks(4, 0.5) == (1, 3)
        assert percentile_ranks(500, 0.95) == (13, 488)

    def test_bounds_hold_generally(self):
        for b in (1, 2, 3, 7, 100, 999):
            for level in (0.5, 0.9, 0.95, 0.99):
                lo, hi = percentile_ranks(b, level)
                assert 1 <= lo <= hi <= b

    @pytest.mark.parametrize("count", [10.5, 10.0, True, "10", None])
    def test_non_integer_count_rejected(self, count):
        # the count is checked as sample's n and bootstrap_ci's B are
        with pytest.raises(ValidationError, match="must be an integer"):
            percentile_ranks(count, 0.9)


class TestBootstrapCi:
    @pytest.fixture(scope="class")
    @classmethod
    def fitted(cls):
        p = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 300, seed=16), censoring_time=None)
        return data, fit_mle(data, W)

    def test_deterministic_under_seed(self, fitted):
        data, fit = fitted
        a = bootstrap_ci(fit, data, B=40, seed=100)
        b = bootstrap_ci(fit, data, B=40, seed=100)
        assert a.intervals == b.intervals
        assert a.n_failed == b.n_failed

    def test_seed_changes_intervals(self, fitted):
        data, fit = fitted
        a = bootstrap_ci(fit, data, B=40, seed=100)
        b = bootstrap_ci(fit, data, B=40, seed=101)
        assert a.intervals != b.intervals

    def test_metadata(self, fitted):
        data, fit = fitted
        ci = bootstrap_ci(fit, data, B=25, seed=9)
        assert ci.method.value == "Bootstrap"
        assert ci.B == 25
        assert ci.seed == 9
        assert ci.n_failed == 0
        for lo, hi in ci.intervals.values():
            assert lo < hi

    def test_spawned_seed_is_not_echoed(self, fitted):
        # a spawned child's entropy is its root's, but the root seed draws
        # other resamples: only an integer seed is reported
        data, fit = fitted
        child = np.random.SeedSequence(9).spawn(3)[2]
        ci = bootstrap_ci(fit, data, B=25, seed=child)
        assert ci.seed is None
        assert ci.to_json_dict()["seed"] is None
        assert ci.intervals != bootstrap_ci(fit, data, B=25, seed=9).intervals

    def test_interval_brackets_estimate_usually(self, fitted):
        data, fit = fitted
        ci = bootstrap_ci(fit, data, B=60, seed=3)
        inside = sum(
            lo <= est <= hi
            for (lo, hi), est in zip(
                ci.intervals.values(),
                (fit.params_hat.alpha0, fit.params_hat.alpha1,
                 fit.params_hat.alpha2, fit.params_hat.lam),
            )
        )
        assert inside == 4

    def test_single_resample_allowed(self, fitted):
        data, fit = fitted
        ci = bootstrap_ci(fit, data, B=1, seed=5)
        for lo, hi in ci.intervals.values():
            assert lo == hi

    def test_negative_seed_rejected(self, fitted):
        data, fit = fitted
        with pytest.raises(ValidationError, match="seed"):
            bootstrap_ci(fit, data, B=5, seed=-1)

    def test_seed_is_checked_before_the_fit(self, fitted):
        # a bad seed is a ValidationError whether the fit converged or not,
        # and a refused call leaves a SeedSequence seed where it was
        data = CompetingRisksData([0.3, 0.8, 1.1, 2.0, 1.7], [1, 1, 2, 0, 2])
        converged, monotone = fit_mle(data, W), fit_mle(data, L)
        assert converged.status is FitStatus.CONVERGED
        assert monotone.status is FitStatus.NO_MLE_MONOTONE_PROFILE
        for fit in (converged, monotone):
            with pytest.raises(ValidationError, match="seed"):
                bootstrap_ci(fit, data, B=5, seed=-1)
        seq = np.random.SeedSequence(7)
        with pytest.raises(EstimationError, match="converged fit"):
            bootstrap_ci(monotone, data, B=5, seed=seq)
        assert seq.n_children_spawned == 0
        full = np.random.SeedSequence(7, n_children_spawned=2**32 - 2)
        with pytest.raises(ValidationError, match="n_children_spawned"):
            bootstrap_ci(monotone, data, B=2, seed=full)
        assert full.n_children_spawned == 2**32 - 2

    def test_zero_b_rejected(self, fitted):
        data, fit = fitted
        with pytest.raises(DomainError):
            bootstrap_ci(fit, data, B=0, seed=5)

    @pytest.mark.parametrize("B", [20.9, 20.0, True])
    def test_non_integer_b_rejected(self, fitted, B):
        data, fit = fitted
        with pytest.raises(ValidationError, match="B must be an integer"):
            bootstrap_ci(fit, data, B=B, seed=5)

    def test_requires_converged_fit(self, data12):
        fit = fit_mle(data12, L)
        with pytest.raises(EstimationError):
            bootstrap_ci(fit, data12, B=10, seed=1)

    def test_excessive_resample_failures_raise(self):
        # six Lomax pairs: the refit profile is monotone for roughly half of
        # the resamples, far past the tolerated failure share
        p = BvfParams(L, 0.85, 0.57, 0.74, 0.69)
        data = from_bivariate(sample(p, 6, seed=4))
        fit = fit_mle(data, L)
        assert fit.status is FitStatus.CONVERGED
        with pytest.raises(ResampleFailureError):
            bootstrap_ci(fit, data, B=60, seed=0)

    def test_failure_reasons_are_listed_and_counted(self):
        p = BvfParams(L, 0.85, 0.57, 0.74, 0.69)
        data = from_bivariate(sample(p, 6, seed=4))
        fit = fit_mle(data, L)
        per_resample = _refit_each_resample(fit, data, np.random.SeedSequence(0).spawn(60))
        failed = [r for r in per_resample if isinstance(r, str)]
        assert 0.3 * 60 < len(failed) < 0.7 * 60
        with pytest.raises(ResampleFailureError) as err:
            bootstrap_ci(fit, data, B=60, seed=0)
        message = str(err.value)
        assert message.startswith(f"{len(failed)} of 60 bootstrap resamples failed")
        for reason in set(failed):
            assert f"{reason}: {failed.count(reason)}" in message

    def test_failure_reasons_keep_their_first_occurrence_order(self, tmp_path, capsys):
        # 3 of 200 resamples fail: a ValidationError first, then two
        # DomainErrors; the reasons are counted in resample order, and the
        # ci command prints them as counted, unsorted
        params = BvfParams(W, 0.048, 0.048, 0.048, 0.0052)
        data = from_bivariate(sample(params, 8, 11))
        ci = bootstrap_ci(fit_mle(data, W), data, B=200, seed=11)
        assert list(ci.failure_reasons.items()) == [("ValidationError", 1), ("DomainError", 2)]
        path = str(tmp_path / "w8.csv")
        generate = ["generate", "--kind", "weibull", "--n", "8", "--seed", "11", "--out", path]
        for name in ("alpha0", "alpha1", "alpha2"):
            generate += [f"--{name}", "0.048"]
        assert main(generate + ["--lambda", "0.0052"]) == 0
        capsys.readouterr()
        ci_args = ["--method", "bootstrap", "--boot-B", "200", "--seed", "11"]
        assert main(["ci", "--data", path, "--kind", "weibull", *ci_args]) == 0
        assert capsys.readouterr().out == CI_FAILURE_REASONS_JSON

    @pytest.mark.parametrize(
        "params, n, censored_fraction, data_seed, B, seed",
        [
            (BvfParams(W, 1.34, 1.17, 0.86, 0.91), 300, 0.0, 16, 50, 21),
            (BvfParams(G, 1.13, 0.96, 0.79, 1.05), 200, 0.4, 21, 60, 22),
            # the six-pair Lomax case above: about half the refits fail
            (BvfParams(L, 0.85, 0.57, 0.74, 0.69), 6, 0.0, 4, 60, 0),
            # the sampler's and the engine's blocks both split these refits
            (BvfParams(W, 1.34, 1.17, 0.86, 0.91), 400, 0.0, 17, 120, 23),
        ],
    )
    def test_refits_equal_fit_mle_on_each_resample(
        self, params, n, censored_fraction, data_seed, B, seed
    ):
        c = censoring_threshold(params, censored_fraction) if censored_fraction else None
        data = from_bivariate(sample(params, n, seed=data_seed), c)
        fit = fit_mle(data, params.kind)
        expected = _refit_each_resample(fit, data, np.random.SeedSequence(seed).spawn(B))
        estimates, code = _bootstrap_refits(
            fit.params_hat,
            data.n,
            data.censoring_time,
            _child_states(np.random.SeedSequence(seed), np.arange(B)[:, None]),
        )
        for b, want in enumerate(expected):
            if isinstance(want, str):
                assert _REASONS[code[b]] == want, b
                assert np.isnan(estimates[b]).all(), b
            else:
                assert code[b] <= _BOUNDARY, b
                assert estimates[b].tolist() == list(want), b
        ok = [w for w in expected if not isinstance(w, str)]
        n_failed = B - len(ok)
        if n_failed > 0.05 * B:
            with pytest.raises(ResampleFailureError):
                bootstrap_ci(fit, data, B=B, seed=seed)
            return
        ci = bootstrap_ci(fit, data, B=B, seed=seed)
        assert ci.n_failed == n_failed
        assert sum(ci.failure_reasons.values()) == n_failed
        assert ci.intervals == _percentile_intervals(expected)

    @pytest.mark.parametrize("spawned", [0, 3])
    def test_seed_sequence_draws_its_next_children(self, fitted, spawned):
        # a fresh sequence, and one that has already spawned three children:
        # each call draws the B children spawn would make next, and moves the
        # sequence past them, so a second call draws the next B
        data, fit = fitted
        B = 30
        seq, reference = np.random.SeedSequence(41), np.random.SeedSequence(41)
        seq.spawn(spawned)
        reference.spawn(spawned)
        for _ in range(2):
            want = _percentile_intervals(_refit_each_resample(fit, data, reference.spawn(B)))
            assert bootstrap_ci(fit, data, B=B, seed=seq).intervals == want
            assert seq.n_children_spawned == reference.n_children_spawned

    def test_spawn_counter_limit(self, fitted):
        # NumPy counts a SeedSequence's children in a uint32, and its spawn
        # exhausts memory once the count would pass 2**32 - 1: one more
        # resample is still drawn, two are rejected before any spawning
        data, fit = fitted
        first = 2**32 - 2
        seq = np.random.SeedSequence(9138, n_children_spawned=first)
        child = np.random.SeedSequence(9138, spawn_key=(first,))
        want = _percentile_intervals(_refit_each_resample(fit, data, [child]))
        assert bootstrap_ci(fit, data, B=1, seed=seq).intervals == want
        assert seq.n_children_spawned == 2**32 - 1
        seq = np.random.SeedSequence(9138, n_children_spawned=first)
        with pytest.raises(ValidationError, match="n_children_spawned"):
            bootstrap_ci(fit, data, B=2, seed=seq)
        assert seq.n_children_spawned == first

    def test_integer_seed_draws_its_first_children(self, fitted):
        data, fit = fitted
        children = np.random.SeedSequence(41).spawn(30)
        want = _percentile_intervals(_refit_each_resample(fit, data, children))
        assert bootstrap_ci(fit, data, B=30, seed=41).intervals == want

    def test_threads_draw_what_serial_calls_draw(self, fitted):
        # each call seeds its own generator; more threads than cores and a
        # short switch interval interleave their draws
        data, fit = fitted
        seeds = list(range(5, 13))

        def intervals(seed):
            return bootstrap_ci(fit, data, B=40, seed=seed).intervals

        serial = [intervals(seed) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(intervals, seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


def _percentile_intervals(per_resample, level=0.95):
    """The percentile intervals of the estimates among ``per_resample``
    (failed resamples are reason strings, and dropped)."""
    ordered = np.sort(np.array([r for r in per_resample if not isinstance(r, str)]), axis=0)
    lo, hi = percentile_ranks(len(ordered), level)
    return {
        name: (ordered[lo - 1, j], ordered[hi - 1, j])
        for j, name in enumerate(("alpha0", "alpha1", "alpha2", "lambda"))
    }


# the ci command's output on the dataset of
# test_failure_reasons_keep_their_first_occurrence_order
CI_FAILURE_REASONS_JSON = """{
  "method": "Bootstrap",
  "level": 0.95,
  "intervals": {
    "alpha0": [
      0.0,
      0.09494085860056843
    ],
    "alpha1": [
      0.0,
      0.1969931918086129
    ],
    "alpha2": [
      0.0014503274837838257,
      0.2775649958366045
    ],
    "lambda": [
      0.0037667417427934466,
      0.013612071400951305
    ]
  },
  "B": 200,
  "seed": 11,
  "n_failed": 3,
  "failure_reasons": {
    "ValidationError": 1,
    "DomainError": 2
  },
  "fit": {
    "kind": "Weibull",
    "status": "Converged",
    "alpha0": 0.017286297910495678,
    "alpha1": 0.05185889373148703,
    "alpha2": 0.06914519164198271,
    "lambda": 0.005707479806531853,
    "loglik": -1984.2903067446111,
    "n_evals": 4
  }
}
"""


def _refit_each_resample(fit, data, children):
    """Per resample, the fit_mle estimate (alpha0, alpha1, alpha2, lambda),
    or the reason the resample fails, with resample b drawn from
    ``default_rng(children[b])``: the bootstrap's reference loop."""
    out = []
    for child in children:
        pairs = sample(fit.params_hat, data.n, np.random.default_rng(child))
        try:
            refit = fit_mle(from_bivariate(pairs, data.censoring_time), fit.kind)
        except (EstimationError, ValidationError, DomainError) as exc:
            out.append(type(exc).__name__)
            continue
        if refit.params_hat is None:
            out.append(refit.status.value)
            continue
        q = refit.params_hat
        out.append((q.alpha0, q.alpha1, q.alpha2, q.lam))
    return out


class TestJsonShapes:
    def test_fit_json(self, data12):
        d = fit_mle(data12, W).to_json_dict()
        assert set(d) == {"kind", "status", "alpha0", "alpha1", "alpha2",
                          "lambda", "loglik", "n_evals"}
        assert d["kind"] == "Weibull"
        assert d["status"] == "Converged"

    def test_failed_fit_json_keeps_keys(self, data12):
        d = fit_mle(data12, L).to_json_dict()
        assert d["status"] == "NoMleMonotoneProfile"
        assert d["alpha0"] is None and d["lambda"] is None and d["loglik"] is None

    def test_ci_json(self, data12):
        fit = fit_mle(data12, W)
        d = asymptotic_ci(fit, data12).to_json_dict()
        assert d["method"] == "Asymptotic"
        assert set(d["intervals"]) == {"alpha0", "alpha1", "alpha2", "lambda"}
        b = bootstrap_ci(fit, data12, B=8, seed=2).to_json_dict()
        assert b["method"] == "Bootstrap"
        assert b["B"] == 8 and b["seed"] == 2
        assert set(b) == {"method", "level", "intervals", "B", "seed",
                          "n_failed", "failure_reasons"}
        assert sum(b["failure_reasons"].values()) == b["n_failed"]
