"""Likelihood, profile maximization, information matrix, and intervals."""

import inspect
import logging
import math
import os
import subprocess
import sys
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
from bvf import inference
from bvf.bvf_model import _child_states, _pairs_from_uniforms, censoring_threshold
from bvf.inference import (
    _ALL,
    _SCAN_RECORDS,
    PARAM_NAMES,
    FitOptions,
    _bootstrap_refits,
    _draw_stack,
    _fit_stack,
    _Stack,
)

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX
# the Gompertz and Lomax caption parameters
PG = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
PL = BvfParams(L, 0.85, 0.57, 0.74, 0.69)

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
        fits = _fit_stack(_Stack(kind, np.array([t]), np.array([delta], dtype=np.int8)))
        assert type(fits.outcome[0]) is DegenerateDataError

    def test_overflowing_hazard_sum_warns_nothing(self):
        # the uncensored Gompertz times sum past double range while the
        # stack is built; that sum saturates to inf without a warning
        data = CompetingRisksData([0.2, 0.5, 0.7, 1e308, 1e308], [1, 2, 0, 1, 2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile_loglik(1.0, data, G) == -math.inf
            assert fit_mle(data, G).status is FitStatus.NO_MLE_MONOTONE_PROFILE

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
        fits = _fit_stack(_Stack(G, np.array([near, t]), np.array([[0, 1, 2, 1, 2], delta])))
        assert fits.outcome == [FitStatus.CONVERGED, FitStatus.NO_MLE_MONOTONE_PROFILE]
        assert fits.n_evals[1] == 29


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
            fits = _fit_stack(_Stack(kind, t, delta))
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


    def test_each_row_stops_at_the_evaluation_cap(self, monkeypatch):
        # ladders of 3, 7 and 6 rungs and 9, 12 and 13 evaluations uncapped;
        # with the cap at 8 each row stops at its eighth evaluation, alone
        # and in a stack alike
        rows = [[x**p for x in T12] for p in (1.0, 0.005, 50.0)]
        datasets = [CompetingRisksData(t, D12) for t in rows]
        assert [fit_mle(d, W).n_evals for d in datasets] == [9, 12, 13]
        monkeypatch.setattr(inference, "_MAX_EVALS", 8)
        fits = _fit_stack(_Stack(W, np.array(rows), np.array([D12] * 3, dtype=np.int8)))
        assert fits.n_evals.tolist() == [8, 8, 8]
        for j, data in enumerate(datasets):
            fit = fit_mle(data, W)
            assert fit.status is fits.outcome[j] is FitStatus.CONVERGED
            assert fit.n_evals == 8
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
        fits = _fit_stack(_Stack(kind, t, delta))
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
        fits = _fit_stack(_Stack(kind, t, delta))
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
        rows, t, delta, failures = _draw_stack(params, n, states, c)
        monkeypatch.undo()
        assert rows.tolist() == [r for r, f in enumerate(failures) if f is None]
        assert t.shape == delta.shape == (rows.size, n)
        drawn = any(np.shares_memory(t, b) for b in buffers)
        assert drawn == (rows.size == R)
        for r, child in enumerate(children):
            pairs = sample(params, n, np.random.default_rng(child))
            try:
                data = from_bivariate(pairs, c)
            except (DomainError, ValidationError) as exc:
                assert failures[r] == type(exc).__name__, r
                continue
            assert failures[r] is None, r
            j = int(np.searchsorted(rows, r))
            assert t[j].tolist() == data.t.tolist(), r
            assert delta[j].tolist() == data.delta.tolist(), r
        if censored_fraction == 0.0:
            assert {"DomainError", "ValidationError", None} <= set(failures)
        else:
            assert rows.size == R

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_draw_stack_rejects_the_censoring_time_as_from_bivariate(self, c):
        params = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
        children = np.random.SeedSequence(5).spawn(3)
        states = _child_states(np.random.SeedSequence(5), np.arange(3)[:, None])
        rows, t, delta, failures = _draw_stack(params, 20, states, c)
        with pytest.raises(DomainError):
            from_bivariate(sample(params, 20, np.random.default_rng(children[0])), c)
        assert rows.size == 0 and t.shape == delta.shape == (0, 20)
        assert failures == ["DomainError"] * 3
        # an empty stack fits to empty results
        fits = _fit_stack(_Stack(G, t, delta))
        assert fits.outcome == [] and fits.lam.size == 0

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_rows_longer_than_a_block_fit_as_fit_mle(self, kind):
        data = from_bivariate(sample(BvfParams(kind, 1.34, 1.17, 0.86, 0.91), 20000, seed=5))
        assert data.n > _SCAN_RECORDS
        fit = fit_mle(data, kind)
        t = np.stack([data.t, data.t])
        delta = np.stack([data.delta, data.delta])
        fits = _fit_stack(_Stack(kind, t, delta))
        q = fit.params_hat
        for j in range(2):
            assert fits.outcome[j] is fit.status
            assert fits.n_evals[j] == fit.n_evals
            assert fits.lam[j] == q.lam
            assert fits.alphas[:, j].tolist() == [q.alpha0, q.alpha1, q.alpha2]


def _spawned(entropy, spawned=0, **kwargs):
    """A SeedSequence that has already spawned ``spawned`` children."""
    seq = np.random.SeedSequence(entropy, **kwargs)
    seq.spawn(spawned)
    return seq


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

    def test_keys_of_two_words(self, monkeypatch):
        # keys of 2**32 and more are two words each. NumPy 2.4's own spawn
        # exhausts memory from this count on, so the reference children are
        # built from their spawn keys
        first = 2**32 - 2
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
        _, g, h = inference._workspace(convex, L).newton_terms(_ALL, np.array([16.0]))
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
        variances = inference._wald_variances(stack, order, theta[:, 3], theta[:, :3].T)
        for r, got in zip(order.tolist(), variances):
            data, point, fit = rows[r]
            if fit is None:
                assert np.isnan(got).all(), r
                with pytest.raises(SingularMatrixError):
                    observed_fisher(BvfParams(L, *point), data)
            else:
                want = asymptotic_ci(fit, data).variances
                assert got.tolist() == [want[name] for name in PARAM_NAMES], r


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
        estimates, failures = _bootstrap_refits(
            fit.params_hat,
            data.n,
            data.censoring_time,
            _child_states(np.random.SeedSequence(seed), np.arange(B)[:, None]),
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
