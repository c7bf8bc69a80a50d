"""Likelihood, profile maximization, information matrix, and intervals."""

import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bvf import (
    BaselineKind,
    BvfParams,
    CompetingRisksData,
    DegenerateDataError,
    DomainError,
    EstimationError,
    FitOptions,
    FitStatus,
    ResampleFailureError,
    SingularMatrixError,
    ValidationError,
    alphas_given_lambda,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    from_bivariate,
    log_likelihood,
    observed_fisher,
    percentile_ranks,
    profile_loglik,
    sample,
)
from bvf.bvf_model import censoring_threshold
from bvf.inference import (
    _ALL,
    _SCAN_RECORDS,
    PARAM_NAMES,
    _bootstrap_refits,
    _draw_stack,
    _fit_stack,
    _Stack,
)

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX

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
        # the climb sees an interior maximum and the flatness guard decides
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
        with pytest.raises(DegenerateDataError):
            fit_mle(CompetingRisksData(t, delta), kind)
        fits = _fit_stack(_Stack(kind, np.array([t]), np.array([delta], dtype=np.int8)),
                          FitOptions())
        assert type(fits.outcome[0]) is DegenerateDataError


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
        data = CompetingRisksData([0.3, 0.7, 1.2, 0.9], [1, 1, 2, 1])
        with caplog.at_level(logging.WARNING, logger="bvf.inference"):
            fit = fit_mle(data, W)
        assert fit.status is FitStatus.BOUNDARY_ALPHA_ZERO
        assert fit.params_hat.alpha0 == 0.0
        assert fit.params_hat.alpha1 > 0
        assert any("mode 0" in r.message for r in caplog.records)

    def test_boundary_consistent_with_estimates(self):
        p = BvfParams(W, 0.0, 1.17, 0.86, 0.91)
        data = from_bivariate(sample(p, 4000, seed=41))
        assert data.m0 == 0
        fit = fit_mle(data, W)
        assert fit.status is FitStatus.BOUNDARY_ALPHA_ZERO
        assert fit.params_hat.alpha1 == pytest.approx(1.17, rel=0.1)


class TestFitOptions:
    def test_bad_bracket_rejected(self):
        with pytest.raises(ValidationError):
            FitOptions(bracket=(1.0, 0.5))
        with pytest.raises(ValidationError):
            FitOptions(bracket=(0.0, 2.0))

    def test_bad_init_rejected(self):
        with pytest.raises(ValidationError):
            FitOptions(lambda_init=-1.0)

    def test_custom_bracket_still_finds_interior_max(self, data12):
        fit = fit_mle(data12, W, FitOptions(bracket=(0.5, 8.0), lambda_init=0.7))
        assert fit.params_hat.lam == pytest.approx(W_LAM_HAT, rel=1e-7)

    def test_recovery_when_start_is_degenerate(self, data12):
        # a start far above the MLE, where the profile is finite but very low
        # (about -6.8e7), must still climb down to the interior maximum
        fit = fit_mle(data12, G, FitOptions(lambda_init=1e7))
        assert fit.status is FitStatus.CONVERGED
        assert fit.params_hat.lam == pytest.approx(G_LAM_HAT, rel=1e-6)
        # every t < 1: at lambda = 1e8 each t**lambda underflows to 0, so the
        # profile is -inf at the start and the climb evaluates every rung first
        data = CompetingRisksData(
            [0.2, 0.5, 0.7, 0.3, 0.9, 0.6, 0.45, 0.8, 0.35, 0.95, 0.95, 0.95],
            [1, 1, 1, 2, 2, 2, 0, 0, 1, 3, 3, 3],
        )
        assert profile_loglik(1e8, data, W) == -math.inf
        far = fit_mle(data, W, FitOptions(lambda_init=1e8))
        near = fit_mle(data, W)
        assert far.status is FitStatus.CONVERGED
        assert abs(far.params_hat.lam - near.params_hat.lam) <= 1e-9 * near.params_hat.lam


class TestStackedFits:
    def test_each_row_fits_as_its_own_dataset(self):
        rows = [
            (T12, D12),  # interior maximum for Weibull and Gompertz
            ([1.5] * 12, [3] * 12),  # no failures
            ([1.0] * 12, [0, 1, 2] * 4),  # monotone profile for every kind
            ([0.3, 0.7, 1.2, 0.9] * 3, [1, 1, 2, 1] * 3),  # boundary alpha0
        ]
        t = np.array([r[0] for r in rows])
        delta = np.array([r[1] for r in rows], dtype=np.int8)
        for kind in (W, G, L):
            fits = _fit_stack(_Stack(kind, t, delta), FitOptions())
            for j, (tj, dj) in enumerate(rows):
                try:
                    fit = fit_mle(CompetingRisksData(tj, dj), kind)
                except EstimationError as exc:
                    assert type(fits.outcome[j]) is type(exc), (kind, j)
                    continue
                assert fits.outcome[j] is fit.status, (kind, j)
                assert fits.n_evals[j] == fit.n_evals, (kind, j)
                if fit.params_hat is not None:
                    q = fit.params_hat
                    assert fits.lam[j] == q.lam, (kind, j)
                    assert fits.alphas[:, j].tolist() == [q.alpha0, q.alpha1, q.alpha2]


    @pytest.mark.parametrize("kind", [W, G, L])
    def test_eval_counts_do_not_depend_on_the_stack(self, kind):
        # lambda-hat far from the ladder's start, so every fit scans rungs; at
        # n=400 a one-row scan evaluates more rungs per call than a stack
        parent = BvfParams(kind, 1.34, 1.17, 0.86, 300.0)
        rng = np.random.default_rng(400)
        datasets = [from_bivariate(sample(parent, 400, rng)) for _ in range(20)]
        t = np.array([d.t for d in datasets])
        delta = np.array([d.delta for d in datasets])
        fits = _fit_stack(_Stack(kind, t, delta), FitOptions())
        assert fits.n_evals.tolist() == [fit_mle(d, kind).n_evals for d in datasets]


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
        fits = _fit_stack(_Stack(kind, t, delta), FitOptions())
        for j, data in enumerate(datasets):
            fit = fit_mle(data, kind)
            assert fits.outcome[j] is fit.status, j
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
            a, _ = stack.survival(_ALL, lams)
            p = stack.profile(np.arange(R), lams)
            terms = stack.newton_terms(_ALL, lams)
        assert (a[over] == np.inf).all() and np.isfinite(p[over]).all()
        for r in range(R):
            data = CompetingRisksData(t[r], delta[r])
            assert p[r] == profile_loglik(float(lams[r]), data, kind), r
            one = _Stack(kind, t[r : r + 1], delta[r : r + 1])
            with np.errstate(all="ignore"):
                want = one.newton_terms(_ALL, lams[r : r + 1])
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
        self, params, n, R, censored_fraction
    ):
        assert R * 3 * n > 2 * _SCAN_RECORDS
        c = censoring_threshold(params, censored_fraction) if censored_fraction else None
        children = np.random.SeedSequence(77).spawn(R)
        t, delta, failures = _draw_stack(params, n, children, c)
        for r, child in enumerate(children):
            pairs = sample(params, n, np.random.default_rng(child))
            try:
                data = from_bivariate(pairs, c)
            except (DomainError, ValidationError) as exc:
                assert failures[r] == type(exc).__name__, r
                continue
            assert failures[r] is None, r
            assert t[r].tolist() == data.t.tolist(), r
            assert delta[r].tolist() == data.delta.tolist(), r
        if censored_fraction == 0.0:
            assert {"DomainError", "ValidationError", None} <= set(failures)

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_rows_longer_than_a_block_fit_as_fit_mle(self, kind):
        data = from_bivariate(sample(BvfParams(kind, 1.34, 1.17, 0.86, 0.91), 20000, seed=5))
        assert data.n > _SCAN_RECORDS
        fit = fit_mle(data, kind)
        t = np.stack([data.t, data.t])
        delta = np.stack([data.delta, data.delta])
        fits = _fit_stack(_Stack(kind, t, delta), FitOptions())
        q = fit.params_hat
        for j in range(2):
            assert fits.outcome[j] is fit.status
            assert fits.n_evals[j] == fit.n_evals
            assert fits.lam[j] == q.lam
            assert fits.alphas[:, j].tolist() == [q.alpha0, q.alpha1, q.alpha2]


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
        # rebuilt exactly as the estimation study builds its replicate
        child = np.random.SeedSequence(seed).spawn(500)[replicate].spawn(2)[0]
        pairs = sample(params, 200, np.random.default_rng(child))
        data = from_bivariate(pairs, censoring_threshold(params, 0.4))
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


class TestPercentileRanks:
    def test_examples(self):
        assert percentile_ranks(4, 0.5) == (1, 3)
        assert percentile_ranks(500, 0.95) == (13, 488)

    def test_bounds_hold_generally(self):
        for b in (1, 2, 3, 7, 100, 999):
            for level in (0.5, 0.9, 0.95, 0.99):
                lo, hi = percentile_ranks(b, level)
                assert 1 <= lo <= hi <= b


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
        per_resample = _refit_each_resample(fit, data, 60, 0)
        failed = [r for r in per_resample if isinstance(r, str)]
        assert 0.3 * 60 < len(failed) < 0.7 * 60
        with pytest.raises(ResampleFailureError) as err:
            bootstrap_ci(fit, data, B=60, seed=0)
        message = str(err.value)
        assert message.startswith(f"{len(failed)} of 60 bootstrap resamples failed")
        for reason in set(failed):
            assert f"{reason}: {failed.count(reason)}" in message

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
        expected = _refit_each_resample(fit, data, B, seed)
        estimates, failures = _bootstrap_refits(
            fit.params_hat, data, np.random.SeedSequence(seed).spawn(B)
        )
        for b, want in enumerate(expected):
            if isinstance(want, str):
                assert failures[b] == want, b
                assert np.isnan(estimates[b]).all(), b
            else:
                assert failures[b] is None, b
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
        ordered = np.sort(np.array(ok), axis=0)
        lo, hi = percentile_ranks(len(ok), 0.95)
        for j, name in enumerate(("alpha0", "alpha1", "alpha2", "lambda")):
            assert ci.intervals[name] == (ordered[lo - 1, j], ordered[hi - 1, j])


def _refit_each_resample(fit, data, B, seed):
    """Per resample, the fit_mle estimate (alpha0, alpha1, alpha2, lambda),
    or the reason the resample fails: the bootstrap's reference loop."""
    out = []
    for child in np.random.SeedSequence(seed).spawn(B):
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
