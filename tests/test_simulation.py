"""Monte Carlo study harness: metrics, determinism, failure policy, and the
stacked studies' equivalence with the one-dataset path: fit_mle and its
intervals, or select_model, per dataset."""

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvf import (
    BaselineKind,
    BvfError,
    BvfParams,
    DomainError,
    EstimationError,
    EstimationStudyConfig,
    FitStatus,
    SelectionStudyConfig,
    ValidationError,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    from_bivariate,
    log_likelihood,
    relative_metrics,
    run_estimation_study,
    run_selection_study,
    sample,
    select_model,
)
from bvf import simulation
from bvf.bvf_model import censoring_threshold
from bvf.inference import _loglik_rows, _Stack
from bvf.simulation import _estimation_chunk, _selection_chunk

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX
PW = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
CAPTION = {
    W: PW,
    G: BvfParams(G, 1.13, 0.96, 0.79, 1.05),
    L: BvfParams(L, 0.85, 0.57, 0.74, 0.69),
}
# alphas and lambda small enough that some draws underflow to 0
# (DomainError) or overflow to inf times (ValidationError)
TINY = BvfParams(W, 0.048, 0.048, 0.048, 0.0052)


class TestRelativeMetrics:
    def test_perfect_estimator(self):
        assert relative_metrics([2.0, 2.0, 2.0], 2.0) == (0.0, 0.0)

    def test_hand_arithmetic(self):
        mse, bias = relative_metrics([0.0, 2.0 * 1.7], 1.7)
        assert mse == pytest.approx(1.0, rel=1e-15)
        assert bias == pytest.approx(0.0, abs=1e-15)

    def test_zero_truth_rejected(self):
        with pytest.raises(DomainError):
            relative_metrics([1.0], 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            relative_metrics([], 1.0)

    @given(
        est=st.lists(st.floats(-5, 5), min_size=1, max_size=30),
        truth=st.floats(0.1, 4.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_formula(self, est, truth):
        mse, bias = relative_metrics(est, truth)
        arr = np.asarray(est)
        want_mse = float(np.mean((arr - truth) ** 2)) / truth**2
        want_bias = (float(np.mean(arr)) - truth) / truth
        assert mse == pytest.approx(want_mse, rel=1e-12, abs=1e-15)
        assert bias == pytest.approx(want_bias, rel=1e-12, abs=1e-15)


class TestEstimationConfig:
    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            EstimationStudyConfig(true_params=PW, n=9, replications=10)

    def test_zero_replications_rejected(self):
        with pytest.raises(ValidationError):
            EstimationStudyConfig(true_params=PW, n=50, replications=0)

    def test_full_censoring_rejected(self):
        with pytest.raises(ValidationError):
            EstimationStudyConfig(
                true_params=PW, n=50, replications=5, censored_fraction=1.0
            )

    def test_negative_bootstrap_rejected(self):
        with pytest.raises(ValidationError):
            EstimationStudyConfig(true_params=PW, n=50, replications=5, bootstrap_B=-1)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValidationError):
            EstimationStudyConfig(true_params=PW, n=50, replications=5, workers=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            EstimationStudyConfig(true_params=PW, n=50, replications=5, seed=-1)

    @pytest.mark.parametrize("seed", [np.random.SeedSequence(3), 2.5])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            EstimationStudyConfig(true_params=PW, n=50, replications=5, seed=seed)

    @pytest.mark.parametrize(
        "field, value",
        [("n", 50.5), ("n", 50.0), ("replications", 2.5), ("replications", True),
         ("bootstrap_B", 3.5), ("workers", 1.5)],
    )
    def test_non_integer_count_rejected(self, field, value):
        base = dict(true_params=PW, n=50, replications=5, bootstrap_B=0)
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            EstimationStudyConfig(**{**base, field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("censored_fraction", "0.2"), ("censored_fraction", None),
         ("ci_level", "0.95"), ("ci_level", None), ("ci_level", True)],
    )
    def test_non_number_fraction_or_level_rejected(self, field, value):
        base = dict(true_params=PW, n=50, replications=5, bootstrap_B=0)
        with pytest.raises(ValidationError, match=f"{field} must be a number"):
            EstimationStudyConfig(**{**base, field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = EstimationStudyConfig(
            true_params=PW, n=np.int64(50), replications=np.int32(5),
            bootstrap_B=np.int64(0), workers=np.int8(1),
        )
        assert (cfg.n, cfg.replications, cfg.bootstrap_B, cfg.workers) == (50, 5, 0, 1)
        assert type(cfg.n) is int


class TestEstimationStudy:
    def test_single_replication_degenerates_to_one_fit(self):
        cfg = EstimationStudyConfig(
            true_params=PW, n=150, replications=1, bootstrap_B=0, seed=33
        )
        rep = run_estimation_study(cfg)
        assert rep.replications_used == 1
        assert rep.failed_replications == 0
        for name, truth in zip(
            ("alpha0", "alpha1", "alpha2", "lambda"),
            (PW.alpha0, PW.alpha1, PW.alpha2, PW.lam),
        ):
            s = rep.parameters[name]
            # with one replication the relative MSE is the squared relative
            # bias, and coverage is 0 or 1
            assert s.relative_mse == pytest.approx(s.relative_bias**2, rel=1e-12)
            assert s.asymptotic.coverage in (0.0, 1.0)
            assert s.bootstrap is None

    def test_deterministic_given_seed(self):
        cfg = EstimationStudyConfig(
            true_params=PW, n=60, replications=8, bootstrap_B=10, seed=91
        )
        a = run_estimation_study(cfg)
        b = run_estimation_study(cfg)
        assert a.to_json_dict() == b.to_json_dict()

    def test_workers_do_not_change_results(self):
        # 7 replications: the two workers' chunks have unequal sizes
        base = dict(true_params=PW, n=60, replications=7, bootstrap_B=5, seed=14)
        serial = run_estimation_study(EstimationStudyConfig(**base, workers=1))
        pooled = run_estimation_study(EstimationStudyConfig(**base, workers=2))
        assert serial.to_json_dict() == pooled.to_json_dict()

    def test_bootstrap_columns_disabled_at_zero_b(self):
        cfg = EstimationStudyConfig(
            true_params=PW, n=60, replications=4, bootstrap_B=0, seed=5
        )
        rep = run_estimation_study(cfg)
        assert all(s.bootstrap is None for s in rep.parameters.values())
        rows = rep.to_csv_rows()
        assert all(r["boot_coverage"] == "" for r in rows)

    def test_unsound_configuration_aborts(self):
        cfg = EstimationStudyConfig(
            true_params=PW, n=10, replications=20,
            censored_fraction=0.9, bootstrap_B=0, seed=7,
        )
        with pytest.raises(EstimationError, match="unsound"):
            run_estimation_study(cfg)

    def test_json_shape(self):
        cfg = EstimationStudyConfig(
            true_params=PW, n=60, replications=3, bootstrap_B=5, seed=2
        )
        d = run_estimation_study(cfg).to_json_dict()
        assert d["study"] == "estimation"
        assert set(d["parameters"]) == {"alpha0", "alpha1", "alpha2", "lambda"}
        entry = d["parameters"]["lambda"]
        assert set(entry) == {"relative_mse", "relative_bias", "asymptotic", "bootstrap"}
        assert set(entry["bootstrap"]) == {"avg_length", "coverage"}


def _estimate_one_by_one(config, children):
    """Per replication, what the one-dataset path gives: sample ->
    from_bivariate -> fit_mle -> asymptotic_ci -> bootstrap_ci, seeded by
    child.spawn(2). The estimate and the interval dicts, or the reason there
    are none: the fit's status, or the class name of the error raised."""
    p = config.true_params
    frac = config.censored_fraction
    c = censoring_threshold(p, frac) if frac > 0.0 else None
    out = []
    for child in children:
        data_seed, boot_seed = child.spawn(2)
        try:
            data = from_bivariate(sample(p, config.n, np.random.default_rng(data_seed)), c)
            fit = fit_mle(data, p.kind)
            if fit.status is not FitStatus.CONVERGED:
                out.append(fit.status.value)
                continue
            asym = asymptotic_ci(fit, data, config.ci_level)
            boot = None
            if config.bootstrap_B > 0:
                boot = bootstrap_ci(
                    fit, data, B=config.bootstrap_B, level=config.ci_level, seed=boot_seed
                ).intervals
        except BvfError as exc:
            out.append(type(exc).__name__)
            continue
        q = fit.params_hat
        out.append(((q.alpha0, q.alpha1, q.alpha2, q.lam), asym.intervals, boot))
    return out


class TestStackedEstimation:
    """The study draws and fits each chunk's datasets as one stack; every
    replication must still end as the one-dataset path ends on it."""

    @pytest.mark.parametrize(
        "params, n, frac, B, reps, seed, reasons",
        [
            (TINY, 100, 0.0, 0, 12, 3, {"DomainError", "ValidationError"}),
            # 40% censoring: profiles without a maximum
            (CAPTION[G], 30, 0.4, 0, 30, 5, {"NoMleMonotoneProfile"}),
            # n=10: absent failure modes, and under heavy censoring no
            # failures at all
            (CAPTION[W], 10, 0.9, 0, 30, 7, {"BoundaryAlphaZero", "EstimationError"}),
            # bootstraps that break down next to ones that do not; under
            # light censoring some datasets have no censored record, and
            # their bootstraps must still censor at the study's threshold
            (CAPTION[G], 10, 0.05, 10, 20, 6, {"ResampleFailureError"}),
            # a few invalid draws among bootstrapped replications: each
            # keeps its own bootstrap stream
            (BvfParams(W, 0.15, 0.15, 0.15, 0.01), 50, 0.0, 20, 40, 3,
             {"DomainError", "ResampleFailureError"}),
        ],
    )
    def test_each_replicate_matches_the_one_dataset_path(
        self, params, n, frac, B, reps, seed, reasons
    ):
        cfg = EstimationStudyConfig(
            true_params=params, n=n, replications=reps, censored_fraction=frac,
            bootstrap_B=B, seed=seed,
        )
        want = _estimate_one_by_one(cfg, np.random.SeedSequence(seed).spawn(reps))
        assert _estimation_chunk(cfg, np.random.SeedSequence(seed), range(reps)) == want
        assert reasons <= {r for r in want if isinstance(r, str)}
        assert any(not isinstance(r, str) for r in want)

    def test_chunk_without_a_valid_draw(self):
        cfg = EstimationStudyConfig(
            true_params=TINY, n=100, replications=12, bootstrap_B=5, seed=3
        )
        want = _estimate_one_by_one(cfg, np.random.SeedSequence(3).spawn(12))
        invalid = [i for i, r in enumerate(want) if r in ("DomainError", "ValidationError")]
        assert len(invalid) >= 2
        got = _estimation_chunk(cfg, np.random.SeedSequence(3), invalid)
        assert got == [want[i] for i in invalid]

    def test_censoring_time_past_double_range(self):
        # C overflows to inf, or underflows to 0: from_bivariate would reject
        # every dataset, although many of the draws are valid, so the config
        # is rejected where it is built
        for params, frac, c in [
            (BvfParams(L, 0.002, 0.002, 0.002, 1.0), 0.01, math.inf),
            (BvfParams(W, 1.0, 1.0, 1.0, 0.0005), 0.2, 0.0),
        ]:
            assert censoring_threshold(params, frac) == c
            with pytest.raises(ValidationError, match="censoring time C at"):
                EstimationStudyConfig(
                    true_params=params, n=10, replications=10, censored_fraction=frac,
                    bootstrap_B=0, seed=0,
                )

    def test_no_mle_is_not_a_hard_failure(self):
        # 11 of these 30 fits have no MLE and none fails otherwise: the study
        # runs, where 11 hard failures would abort it
        cfg = EstimationStudyConfig(
            true_params=CAPTION[G], n=30, replications=30, censored_fraction=0.4,
            bootstrap_B=0, seed=5,
        )
        want = _estimate_one_by_one(cfg, np.random.SeedSequence(5).spawn(30))
        no_mle = want.count(FitStatus.NO_MLE_MONOTONE_PROFILE.value)
        assert no_mle > 3
        assert all(isinstance(r, tuple) or r == "NoMleMonotoneProfile" for r in want)
        report = run_estimation_study(cfg)
        assert report.failed_replications == no_mle
        assert report.replications_used == 30 - no_mle


class TestSelectionConfig:
    def test_parent_must_be_candidate(self):
        with pytest.raises(ValidationError):
            SelectionStudyConfig(
                parent_params=PW, candidates=(G, L), n_grid=(50,), replications=5
            )

    def test_candidate_count_bounded(self):
        with pytest.raises(ValidationError):
            SelectionStudyConfig(
                parent_params=PW, candidates=(W,), n_grid=(50,), replications=5
            )

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            SelectionStudyConfig(
                parent_params=PW, candidates=(W, W), n_grid=(50,), replications=5
            )

    def test_non_kind_candidate_rejected(self):
        with pytest.raises(ValidationError, match="BaselineKind"):
            SelectionStudyConfig(
                parent_params=PW, candidates=(W, "x"), n_grid=(50,), replications=5
            )

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            SelectionStudyConfig(
                parent_params=PW, candidates=(W, G), n_grid=(5,), replications=5
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            SelectionStudyConfig(
                parent_params=PW, candidates=(W, G), n_grid=(50,), replications=5,
                seed=-2,
            )

    @pytest.mark.parametrize("seed", [np.random.SeedSequence(3), 2.5])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            SelectionStudyConfig(
                parent_params=PW, candidates=(W, G), n_grid=(50,), replications=5,
                seed=seed,
            )

    @pytest.mark.parametrize(
        "field, value",
        [("n_grid", (50, 50.7)), ("n_grid", (True,)), ("replications", 2.5),
         ("workers", 1.5)],
    )
    def test_non_integer_count_rejected(self, field, value):
        base = dict(parent_params=PW, candidates=(W, G), n_grid=(50,), replications=5)
        name = "n" if field == "n_grid" else field
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            SelectionStudyConfig(**{**base, field: value})


class TestSelectionStudy:
    def test_rows_sum_to_one(self):
        cfg = SelectionStudyConfig(
            parent_params=PW, candidates=(W, G, L), n_grid=(40, 80),
            replications=30, seed=6,
        )
        rep = run_selection_study(cfg)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert sum(row.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
            assert row.replications_used + row.dropped == 30

    def test_deterministic_and_worker_free(self, monkeypatch):
        # 7 replications: the two workers' chunks have unequal sizes
        base = dict(
            parent_params=PW, candidates=(W, G, L), n_grid=(40, 90), replications=7,
            seed=3,
        )
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", counted_pool)
        a = run_selection_study(SelectionStudyConfig(**base, workers=1))
        assert pools == []
        b = run_selection_study(SelectionStudyConfig(**base, workers=2))
        assert a.to_json_dict() == b.to_json_dict()
        # every n of the grid shares the study's one pool
        assert pools == [{"max_workers": 2}]

    def test_parent_usually_wins_at_moderate_n(self):
        cfg = SelectionStudyConfig(
            parent_params=PW, candidates=(W, G), n_grid=(300,),
            replications=60, seed=44,
        )
        rep = run_selection_study(cfg)
        assert rep.rows[0].probabilities["Weibull"] >= 0.7

    def test_json_shape(self):
        cfg = SelectionStudyConfig(
            parent_params=PW, candidates=(W, G), n_grid=(40,), replications=5, seed=1
        )
        d = run_selection_study(cfg).to_json_dict()
        assert d["study"] == "selection"
        assert d["candidates"] == ["Weibull", "Gompertz"]
        assert d["rows"][0]["n"] == 40
        assert set(d["rows"][0]["probabilities"]) == {"Weibull", "Gompertz"}


class TestStackedSelection:
    """The study fits each cell's datasets as stacks; every replication must
    still choose what select_model chooses on its dataset alone."""

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("parent", [W, G, L])
    def test_each_replicate_matches_select_model(self, parent, n):
        params = CAPTION[parent]
        cfg = SelectionStudyConfig(
            parent_params=params, candidates=(W, G, L), n_grid=(n,),
            replications=25, seed=8800 + parent.order,
        )
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
        want = []
        gompertz_excluded = 0
        for child in children:
            data = from_bivariate(sample(params, n, np.random.default_rng(child)))
            try:
                result = select_model(data, cfg.candidates)
            except BvfError:
                want.append(None)
                continue
            want.append(result.chosen)
            gompertz_excluded += any(kind is G for kind, _ in result.excluded)
        root = np.random.SeedSequence(cfg.seed)
        assert _selection_chunk(cfg, n, root, range(cfg.replications)) == want
        # excluded candidates are part of what the stack must reproduce; the
        # Weibull and Lomax parents' seeds exclude Gompertz on most datasets
        assert parent is G or gompertz_excluded > 0

    @pytest.mark.parametrize("kind", [W, G, L])
    def test_log_likelihood_is_the_one_row_case(self, kind):
        # mixed rows: complete and censored data, a zero alpha against a
        # nonzero count, and a large lambda (which overflows the Weibull and
        # Gompertz survival sums)
        n = 40
        rng = np.random.default_rng(17)
        datasets, params = [], []
        for r in range(8):
            p = CAPTION[kind]
            data = from_bivariate(
                sample(p, n, rng), None if r % 2 == 0 else 0.8 + 0.1 * r
            )
            alphas = [float(a) for a in rng.uniform(0.2, 2.0, 3)]
            lam = float(rng.uniform(0.3, 3.0))
            if r == 2:
                alphas[0] = 0.0
            if r == 5:
                lam = 1e3
            datasets.append(data)
            params.append(BvfParams(kind, *alphas, lam))
        t = np.stack([d.t for d in datasets])
        delta = np.stack([d.delta for d in datasets])
        lam = np.array([p.lam for p in params])
        alphas = np.array([[p.alpha0, p.alpha1, p.alpha2] for p in params]).T
        got = _loglik_rows(_Stack(kind, t, delta), np.arange(len(params)), lam, alphas)
        want = [log_likelihood(p, d) for p, d in zip(params, datasets)]
        assert got == want
        assert want[2] == -math.inf
        assert sum(math.isfinite(v) for v in want) >= 6
