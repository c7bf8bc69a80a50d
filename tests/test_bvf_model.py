"""Joint distribution: survival branches, densities, ordering mass, sampling."""

import math

import numpy as np
import pytest

from bvf import (
    BaselineKind,
    BvfParams,
    DomainError,
    ValidationError,
    censoring_threshold,
    f0,
    joint_survival,
    jpdf_ac,
    s0,
    s0_inv,
    sample,
    singular_density,
    tie_probability,
)
from bvf.bvf_model import _pairs_from_uniforms

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX

PW = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
PG = BvfParams(G, 1.13, 0.96, 0.79, 1.05)
PL = BvfParams(L, 0.85, 0.57, 0.74, 0.69)

# mpmath, mp.dps=50
JPDF_W_05_10 = 0.13487139823151223
JPDF_W_10_05 = 0.09783651303135901
SURV_W_05_10 = 0.05944780628257258
SING_G_03 = 0.5597085827419971


class TestParams:
    def test_fields_and_sum(self):
        assert PW.alpha_sum() == pytest.approx(3.37, rel=1e-15)
        assert PW.kind is W

    def test_rejects_nonpositive_lambda(self):
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                BvfParams(W, 1.0, 1.0, 1.0, lam)

    def test_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            BvfParams(W, -0.1, 1.0, 1.0, 1.0)

    def test_rejects_all_zero_rates(self):
        with pytest.raises(DomainError):
            BvfParams(W, 0.0, 0.0, 0.0, 1.0)

    def test_zero_single_rate_allowed(self):
        p = BvfParams(W, 0.0, 1.0, 1.0, 1.0)
        assert p.alpha0 == 0.0

    def test_json_dict_spells_lambda_out(self):
        d = PW.to_json_dict()
        assert d == {
            "kind": "Weibull",
            "alpha0": 1.34,
            "alpha1": 1.17,
            "alpha2": 0.86,
            "lambda": 0.91,
        }


class TestJointSurvival:
    def test_diagonal_collapses_to_total_rate(self):
        p = BvfParams(W, 1.0, 1.0, 1.0, 1.0)
        assert joint_survival(p, 1.0, 1.0) == pytest.approx(math.exp(-3.0), rel=1e-14)

    def test_off_diagonal_value(self):
        assert joint_survival(PW, 0.5, 1.0) == pytest.approx(SURV_W_05_10, rel=1e-14)

    def test_origin_limit_is_one(self):
        # times must be strictly positive; the survival tends to 1 at 0+
        for p in (PW, PG, PL):
            assert joint_survival(p, 1e-300, 1e-300) == pytest.approx(1.0, abs=1e-12)
            with pytest.raises(DomainError):
                joint_survival(p, 0.0, 0.0)

    def test_swap_symmetry(self):
        # swapping x and y matches swapping the per-margin rates
        p_sw = BvfParams(W, PW.alpha0, PW.alpha2, PW.alpha1, PW.lam)
        xs = np.linspace(0.05, 2.5, 12)
        for x in xs:
            for y in xs:
                assert joint_survival(PW, float(x), float(y)) == pytest.approx(
                    joint_survival(p_sw, float(y), float(x)), rel=1e-13
                )

    def test_monotone_in_each_argument(self):
        for p in (PW, PG, PL):
            vals = [joint_survival(p, x, 1.3) for x in (0.2, 0.7, 1.2, 2.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            vals = [joint_survival(p, 1.3, y) for y in (0.2, 0.7, 1.2, 2.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_marginal_product_power(self):
        # on the diagonal the branches agree: S(t,t) = S0(t)**(sum of rates)
        for p in (PW, PG, PL):
            for t in (0.3, 1.0, 2.2):
                assert joint_survival(p, t, t) == pytest.approx(
                    s0(p.kind, t, p.lam) ** p.alpha_sum(), rel=1e-13
                )

    def test_negative_coordinate_rejected(self):
        with pytest.raises(DomainError):
            joint_survival(PW, -0.1, 1.0)

    def test_zero_alpha_drops_an_underflowing_survival(self):
        # S0(1e300)**0 = 1, where 0 * log S0(1e300) = 0 * -inf would be NaN
        assert joint_survival(BvfParams(W, 1.0, 0.0, 1.0, 50.0), 1e10, 1e300) == 0.0
        assert joint_survival(BvfParams(W, 1.0, 1.0, 0.0, 50.0), 1e300, 1e10) == 0.0
        # with alpha0 = alpha2 = 0, Y never fails: P(X > x, Y > y) = S0(x)**alpha1
        for p in (BvfParams(W, 0.0, 1.3, 0.0, 2.0), BvfParams(G, 0.0, 0.7, 0.0, 1.0)):
            for x in (0.3, 1.0):
                want = s0(p.kind, x, p.lam) ** p.alpha1
                assert joint_survival(p, x, 1e300) == pytest.approx(want, rel=1e-14)
                assert joint_survival(p, x, 2.0 * x) == pytest.approx(want, rel=1e-14)


class TestAbsolutelyContinuousDensity:
    def test_branch_value_below_diagonal(self):
        assert jpdf_ac(PW, 0.5, 1.0) == pytest.approx(JPDF_W_05_10, rel=1e-14)

    def test_branch_value_above_diagonal(self):
        assert jpdf_ac(PW, 1.0, 0.5) == pytest.approx(JPDF_W_10_05, rel=1e-14)

    def test_rate_swap_mirrors_branches(self):
        p_sw = BvfParams(W, PW.alpha0, PW.alpha2, PW.alpha1, PW.lam)
        for x, y in [(0.2, 0.9), (1.4, 0.3), (0.8, 1.1)]:
            assert jpdf_ac(PW, x, y) == pytest.approx(jpdf_ac(p_sw, y, x), rel=1e-13)

    def test_diagonal_rejected(self):
        with pytest.raises(DomainError):
            jpdf_ac(PW, 0.7, 0.7)

    def test_overflow_saturates_to_inf(self):
        p = BvfParams(W, 1.0, 1.0, 1.0, 0.01)
        assert jpdf_ac(p, 5e-324, 1.0) == math.inf
        assert jpdf_ac(p, 1.0, 5e-324) == math.inf
        assert singular_density(p, 5e-324) == math.inf

    def test_vanishes_where_a_survival_underflows(self):
        # Gompertz: lam*y overflows to inf; Weibull: t**lam overflows, and
        # S0(y) enters with a zero power
        gompertz = BvfParams(G, 1.0, 1.0, 1.0, 1e10)
        assert jpdf_ac(gompertz, 1e-3, 1e300) == 0.0
        assert jpdf_ac(gompertz, 1e300, 1e-300) == 0.0
        assert singular_density(gompertz, 1e300) == 0.0
        weibull = BvfParams(W, 0.5, 1.0, 0.5, 50.0)
        assert jpdf_ac(weibull, 1.0, 1e10) == 0.0
        assert singular_density(BvfParams(W, 0.2, 0.2, 0.2, 50.0), 1e10) == 0.0

    def test_zero_rate_kills_branch(self):
        p = BvfParams(W, 1.0, 0.0, 1.0, 1.0)
        assert jpdf_ac(p, 0.5, 1.0) == 0.0
        assert jpdf_ac(p, 1.0, 0.5) > 0.0

    def test_matches_mixed_partial_of_survival(self):
        # d2/dx dy of the lower-branch survival, central differences
        h = 1e-5
        for p in (PW, PG, PL):
            x, y = 0.5, 1.1
            num = (
                joint_survival(p, x + h, y + h)
                - joint_survival(p, x + h, y - h)
                - joint_survival(p, x - h, y + h)
                + joint_survival(p, x - h, y - h)
            ) / (4 * h * h)
            assert num == pytest.approx(jpdf_ac(p, x, y), rel=1e-5)


class TestSingularDensity:
    def test_gompertz_value(self):
        assert singular_density(PG, 0.3) == pytest.approx(SING_G_03, rel=1e-14)

    def test_no_shared_risk_means_no_singular_mass(self):
        p = BvfParams(W, 0.0, 1.0, 1.0, 1.0)
        assert singular_density(p, 0.8) == 0.0

    def test_matches_negative_diagonal_derivative_scaled(self):
        # -(d/dt) S(t,t) splits into hazard shares; the tie share is the
        # singular density
        for p in (PW, PG, PL):
            t = 0.9
            h = 1e-6
            num = -(joint_survival(p, t + h, t + h) - joint_survival(p, t - h, t - h)) / (2 * h)
            share = p.alpha0 / p.alpha_sum()
            assert share * num == pytest.approx(singular_density(p, t), rel=1e-5)


class TestOrderingProbabilities:
    def test_weibull_caption_rates(self):
        pr = tie_probability(PW)
        assert pr.x_first == pytest.approx(0.34718100890207715, rel=1e-15)
        assert pr.y_first == pytest.approx(0.2551928783382789, rel=1e-15)
        assert pr.tie == pytest.approx(0.39762611275964393, rel=1e-15)

    def test_simple_ratio(self):
        p = BvfParams(W, 1.0, 1.0, 2.0, 1.0)
        pr = tie_probability(p)
        assert (pr.x_first, pr.y_first, pr.tie) == (0.25, 0.5, 0.25)

    def test_sums_to_one(self):
        for p in (PW, PG, PL):
            pr = tie_probability(p)
            assert pr.x_first + pr.y_first + pr.tie == pytest.approx(1.0, abs=1e-15)

    def test_baseline_free(self):
        # ordering mass depends on the rates alone, not the baseline kind
        for kind in (W, G, L):
            pr = tie_probability(BvfParams(kind, 1.34, 1.17, 0.86, 2.0))
            assert pr.tie == pytest.approx(1.34 / 3.37, rel=1e-15)


class TestSampling:
    def test_shape_and_positivity(self):
        xy = sample(PW, 500, seed=1)
        assert xy.shape == (500, 2)
        assert np.all(xy > 0)
        assert np.all(np.isfinite(xy))

    def test_deterministic_under_seed(self):
        a = sample(PG, 100, seed=77)
        b = sample(PG, 100, seed=77)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = sample(PG, 100, seed=77)
        b = sample(PG, 100, seed=78)
        assert not np.array_equal(a, b)

    def test_ties_are_bitwise_equal(self):
        xy = sample(PW, 4000, seed=3)
        ties = xy[:, 0] == xy[:, 1]
        # shared-shock ties occur with probability ~0.4 here
        assert ties.sum() > 100
        assert np.all(xy[ties, 0] == xy[ties, 1])

    def test_vanishing_shared_rate_gives_no_ties(self):
        p = BvfParams(W, 1e-12, 1.17, 0.86, 0.91)
        xy = sample(p, 20000, seed=5)
        assert np.sum(xy[:, 0] == xy[:, 1]) == 0

    def test_tie_fraction_matches_probability(self):
        n = 100_000
        for p in (PW, PG, PL):
            xy = sample(p, n, seed=11)
            frac = np.mean(xy[:, 0] == xy[:, 1])
            want = tie_probability(p).tie
            sd = math.sqrt(want * (1 - want) / n)
            assert abs(frac - want) < 3 * sd, p.kind

    def test_first_margin_survival_matches_closed_form(self):
        # X = min(U0, U1) has survival S0**(alpha0+alpha1); empirical
        # survival must stay inside a DKW band
        n = 50_000
        for p in (PW, PG, PL):
            xy = sample(p, n, seed=23)
            x = np.sort(xy[:, 0])
            a = p.alpha0 + p.alpha1
            grid = np.quantile(x, [0.1, 0.25, 0.5, 0.75, 0.9])
            eps = math.sqrt(math.log(2 / 0.001) / (2 * n))
            for q in grid:
                emp = np.mean(x > q)
                want = s0(p.kind, float(q), p.lam) ** a
                assert abs(emp - want) < eps, (p.kind, q)

    def test_generator_and_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(9)
        a = sample(PW, 50, seed=ss)
        b = sample(PW, 50, seed=np.random.default_rng(np.random.SeedSequence(9)))
        np.testing.assert_array_equal(a, b)

    def test_bad_n_rejected(self):
        with pytest.raises(DomainError):
            sample(PW, 0, seed=1)
        with pytest.raises(DomainError):
            sample(PW, -3, seed=1)

    @pytest.mark.parametrize("n", [2.7, 3.0, True, "3", None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(ValidationError, match="n must be an integer"):
            sample(PW, n, seed=1)

    def test_numpy_integer_n_accepted(self):
        np.testing.assert_array_equal(sample(PW, np.int64(7), 1), sample(PW, 7, 1))

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            sample(PW, 5, seed)

    def test_integer_seed_draws_the_default_rng_stream(self):
        x, y = _pairs_from_uniforms(PW, np.random.default_rng(7).random((3, 40)))
        np.testing.assert_array_equal(sample(PW, 40, 7), np.column_stack((x, y)))


class TestCensoringThreshold:
    def test_fraction_hits_target_in_large_sample(self):
        n = 100_000
        for p, frac in ((PW, 0.2), (PL, 0.4)):
            c = censoring_threshold(p, frac)
            xy = sample(p, n, seed=29)
            censored = np.mean(np.minimum(xy[:, 0], xy[:, 1]) > c)
            sd = math.sqrt(frac * (1 - frac) / n)
            assert abs(censored - frac) < 3 * sd, p.kind

    def test_monotone_in_fraction(self):
        cs = [censoring_threshold(PW, f) for f in (0.1, 0.3, 0.5, 0.7)]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_closed_form(self):
        frac = 0.25
        c = censoring_threshold(PW, frac)
        assert s0(W, c, PW.lam) ** PW.alpha_sum() == pytest.approx(frac, rel=1e-12)
        assert c == pytest.approx(
            s0_inv(W, frac ** (1.0 / PW.alpha_sum()), PW.lam), rel=1e-12
        )

    def test_bad_fraction_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                censoring_threshold(PW, bad)


def test_likelihood_contribution_matches_survival_derivative():
    # -d/dx of the joint survival approaching the diagonal from below equals
    # the first-risk contribution used by the likelihood
    for p in (PW, PG, PL):
        t = 1.1
        h = 1e-6 * t
        x0 = t - 400 * h
        num = -(joint_survival(p, x0 + h, t) - joint_survival(p, x0 - h, t)) / (2 * h)
        want = (
            p.alpha1
            * s0(p.kind, t, p.lam) ** (p.alpha0 + p.alpha2)
            * s0(p.kind, x0, p.lam) ** (p.alpha1 - 1.0)
            * f0(p.kind, x0, p.lam)
        )
        assert num == pytest.approx(want, rel=1e-5)
