"""Monte Carlo study harness: metrics, determinism, failure policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvf import (
    BaselineKind,
    BvfParams,
    DomainError,
    EstimationError,
    EstimationStudyConfig,
    SelectionStudyConfig,
    ValidationError,
    relative_metrics,
    run_estimation_study,
    run_selection_study,
)

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX
PW = BvfParams(W, 1.34, 1.17, 0.86, 0.91)


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
        base = dict(true_params=PW, n=60, replications=6, bootstrap_B=0, seed=14)
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

    def test_deterministic_and_worker_free(self):
        base = dict(
            parent_params=PW, candidates=(W, G), n_grid=(40,), replications=12, seed=3
        )
        a = run_selection_study(SelectionStudyConfig(**base, workers=1))
        b = run_selection_study(SelectionStudyConfig(**base, workers=2))
        assert a.to_json_dict() == b.to_json_dict()

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
