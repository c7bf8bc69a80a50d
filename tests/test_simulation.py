"""Monte Carlo study harness: metrics, determinism, failure policy, and the
stacked studies' equivalence with the one-dataset path: fit_mle and its
intervals, or select_model, per dataset."""

import collections
import dataclasses
import functools
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
from bvf import inference, simulation
from bvf.bvf_model import censoring_threshold
from bvf.inference import PARAM_NAMES, _loglik_from_sums, _Stack
from bvf.simulation import _estimation_chunk, _selection_chunk

from engine_passes import logged_passes, observe, run_pass

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

    @pytest.mark.parametrize("parent", ["x", None, W])
    def test_parent_must_be_params(self, parent):
        with pytest.raises(ValidationError, match="true_params must be a BvfParams"):
            EstimationStudyConfig(true_params=parent, n=10, replications=1)

    @pytest.mark.parametrize("field", ["replications", "bootstrap_B"])
    def test_seed_keys_stay_one_word(self, field):
        # replicate i and resample b seed with spawn-key entries i and b
        base = dict(true_params=PW, n=50, replications=5, bootstrap_B=0)
        assert getattr(EstimationStudyConfig(**{**base, field: 2**32}), field) == 2**32
        with pytest.raises(ValidationError, match=f"{field} must lie in"):
            EstimationStudyConfig(**{**base, field: 2**32 + 1})

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


def _assert_chunk_matches(cfg, replicates, want):
    """``_estimation_chunk`` on ``replicates`` ends as ``want``, the
    one-dataset path, says: the same reason per replication (None where it
    has a result) and, per kept one, the same estimate and interval ends
    bit for bit, its bootstrap ends NaN without a bootstrap. Returns the
    chunk's values."""
    reasons, values = _estimation_chunk(cfg, np.random.SeedSequence(cfg.seed), replicates)
    assert reasons == [r if isinstance(r, str) else None for r in want]
    assert values.shape == (len(replicates), 4, 5)
    for r, v in zip(want, values):
        if isinstance(r, str):
            continue
        theta, asym, boot = r
        assert v[:, 0].tolist() == list(theta)
        assert v[:, 1:3].tolist() == [list(asym[name]) for name in PARAM_NAMES]
        if boot is None:
            assert np.isnan(v[:, 3:]).all()
        else:
            assert v[:, 3:].tolist() == [list(boot[name]) for name in PARAM_NAMES]
    return values


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
        _assert_chunk_matches(cfg, range(reps), want)
        assert reasons <= {r for r in want if isinstance(r, str)}
        assert any(not isinstance(r, str) for r in want)

    def test_chunk_without_a_valid_draw(self):
        cfg = EstimationStudyConfig(
            true_params=TINY, n=100, replications=12, bootstrap_B=5, seed=3
        )
        want = _estimate_one_by_one(cfg, np.random.SeedSequence(3).spawn(12))
        invalid = [i for i, r in enumerate(want) if r in ("DomainError", "ValidationError")]
        assert len(invalid) >= 2
        values = _assert_chunk_matches(cfg, invalid, [want[i] for i in invalid])
        assert np.isnan(values).all()

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

    @pytest.mark.parametrize("parent", ["x", None, W])
    def test_parent_must_be_params(self, parent):
        with pytest.raises(ValidationError, match="parent_params must be a BvfParams"):
            SelectionStudyConfig(
                parent_params=parent, candidates=(W, G), n_grid=(50,), replications=5
            )

    def test_seed_keys_stay_one_word(self):
        # replicate i at the k-th n seeds with key k * replications + i
        base = dict(parent_params=PW, candidates=(W, G), n_grid=(50, 60))
        assert SelectionStudyConfig(**base, replications=2**31).replications == 2**31
        with pytest.raises(ValidationError, match="len\\(n_grid\\) must be <= 2"):
            SelectionStudyConfig(**base, replications=2**31 + 1)

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

    def test_fewer_replications_than_workers_run_in_process(self, monkeypatch):
        # one replication, two workers: the only non-empty chunk runs here
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", counted_pool)
        studies = [
            (
                run_estimation_study,
                functools.partial(
                    EstimationStudyConfig, true_params=PW, n=60, replications=1,
                    bootstrap_B=5, seed=14,
                ),
            ),
            (
                run_selection_study,
                functools.partial(
                    SelectionStudyConfig, parent_params=PW, candidates=(W, G, L),
                    n_grid=(40, 90, 150), replications=1, seed=3,
                ),
            ),
        ]
        for run, config in studies:
            serial = run(config(workers=1))
            pooled = run(config(workers=2))
            assert serial.to_json_dict() == pooled.to_json_dict()
        assert pools == []

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
        # the chunk gives the chosen kind's index among the candidates in kind
        # order, here its ``order``, or -1 where select_model raises
        want = []
        gompertz_excluded = 0
        for child in children:
            data = from_bivariate(sample(params, n, np.random.default_rng(child)))
            try:
                result = select_model(data, cfg.candidates)
            except BvfError:
                want.append(-1)
                continue
            want.append(result.chosen.order)
            gompertz_excluded += any(kind is G for kind, _ in result.excluded)
        root = np.random.SeedSequence(cfg.seed)
        got = _selection_chunk(cfg, root, range(cfg.replications))
        assert got.tolist() == [[w] for w in want]
        # excluded candidates are part of what the stack must reproduce; the
        # Weibull and Lomax parents' seeds exclude Gompertz on most datasets
        assert parent is G or gompertz_excluded > 0

    def test_chunk_covers_every_n(self):
        # a chunk of replicates 2..8 at three sample sizes: replicate j at the
        # c-th n draws from child c * replications + j of the root
        cfg = SelectionStudyConfig(
            parent_params=CAPTION[L], candidates=(W, G, L), n_grid=(30, 80, 160),
            replications=9, seed=41,
        )
        children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.n_grid) * cfg.replications)
        # per replicate and n, the chosen kind's ``order`` (its index among
        # all three candidates), or -1
        want = []
        for j in range(2, 9):
            row = []
            for c, n in enumerate(cfg.n_grid):
                child = children[c * cfg.replications + j]
                data = from_bivariate(sample(cfg.parent_params, n, np.random.default_rng(child)))
                try:
                    row.append(select_model(data, cfg.candidates).chosen.order)
                except BvfError:
                    row.append(-1)
            want.append(row)
        root = np.random.SeedSequence(cfg.seed)
        assert _selection_chunk(cfg, root, range(2, 9)).tolist() == want
        assert {k for row in want for k in row} >= {W.order, L.order}

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
        stack = _Stack(kind, t, delta)
        with np.errstate(all="ignore"):
            a, c = run_pass(stack, "survival", inference._ALL, lam)
        got = _loglik_from_sums(stack.counts, alphas, a, c)
        want = [log_likelihood(p, d) for p, d in zip(params, datasets)]
        assert got == want
        assert want[2] == -math.inf
        assert sum(math.isfinite(v) for v in want) >= 6


class TestEngineCalls:
    """The fitting engine runs once per study chunk, selection or bootstrap,
    however many kinds and sample sizes it covers: each records one engine
    call, with its stacks, in the engine's observation point."""

    SELECTION = SelectionStudyConfig(
        parent_params=PW, candidates=(W, G, L), n_grid=(40, 90, 150), replications=6, seed=3
    )

    def test_selection_study_is_one_call(self, monkeypatch):
        calls = observe(monkeypatch)
        run_selection_study(self.SELECTION)
        assert [len(call.stacks) for call in calls] == [9]

    def test_per_row_formulas_run_once_per_pass(self, monkeypatch):
        # the 9 stacks' record sums run once per stack with rows in a pass,
        # but the formulas that turn them into the profile, g and h, c and
        # c'' run once per pass (and c and c'' once more per call, at
        # lambda-hat) over the rows of them all
        counts = collections.Counter()
        runs = []  # per pass, the stacks of its runs

        def counted(name, wrapped):
            def call(*args):
                counts[name] += 1
                return wrapped(*args)

            return call

        def formulas(name, wrapped):
            def call(pass_runs, *args):
                runs.append([stack for _, stack, _, _ in pass_runs])
                return counted(name, wrapped)(pass_runs, *args)

            return call

        for name in ("_profile", "_score"):
            monkeypatch.setattr(inference, name, formulas(name, getattr(inference, name)))
        for name in ("_hazard", "_curvature"):
            monkeypatch.setattr(inference, name, counted(name, getattr(inference, name)))
        calls = observe(monkeypatch)
        run_selection_study(self.SELECTION)
        (call,) = calls
        assert len(call.stacks) == 9
        # one run per stack with rows in a pass, whose record sums run once:
        # the first pass has all 9
        heights = [height for height, _, _ in call.log]
        assert len(runs) == len(heights)
        for stacks, (_, _, summed) in zip(runs, call.log):
            assert [id(s) for s in summed] == [id(s) for s in stacks]
            assert len(set(map(id, stacks))) == len(stacks)
        sizes = [len(stacks) for stacks in runs]
        assert sizes[0] == 9 and sum(sizes) > 3 * len(sizes)
        assert counts["_profile"] == heights.count(2)
        assert counts["_score"] == heights.count(6)
        assert counts["_hazard"] == heights.count(2) + 1
        assert counts["_curvature"] == 1

    @pytest.mark.parametrize("parent", list(CAPTION.values()), ids=lambda p: p.kind.value)
    def test_selection_call_scans_in_one_pass(self, monkeypatch, parent):
        # a call of the benchmark's select-study shape (10 replications at
        # n 50/150/300): after the pass at the start rung and its
        # neighbours, the ladder scan takes one profile pass before
        # Newton's first (3 or 4 with one block of _SCAN_RECORDS records
        # for the whole call's first chunk)
        cfg = SelectionStudyConfig(
            parent_params=parent, candidates=(W, G, L), n_grid=(50, 150, 300),
            replications=10, seed=5,
        )
        calls = observe(monkeypatch)
        run_selection_study(cfg)
        (call,) = calls
        assert len(call.stacks) == 9
        assert [name for name, _ in logged_passes(calls)[:3]] == ["survival", "survival", "newton"]

    def test_selection_study_splits_past_the_record_cap(self, monkeypatch):
        # 7 replications of 280 records over the grid, at most 3 per call
        cfg = SelectionStudyConfig(
            parent_params=PW, candidates=(W, G, L), n_grid=(40, 90, 150), replications=7,
            seed=3,
        )
        calls = observe(monkeypatch)
        want = run_selection_study(cfg)
        monkeypatch.setattr(simulation, "_CALL_RECORDS", 3 * 280)
        assert run_selection_study(cfg) == want
        assert [len(call.stacks) for call in calls] == [9, 9, 9, 9]

    def test_estimation_study_splits_past_the_record_cap(self, monkeypatch):
        # 7 replications of 60 records, at most 2 per call: 4 replicate-fit
        # calls of one stack each, with every replication's row in one
        cfg = EstimationStudyConfig(true_params=PW, n=60, replications=7, bootstrap_B=0, seed=2)
        want = run_estimation_study(cfg)
        monkeypatch.setattr(simulation, "_CALL_RECORDS", 2 * cfg.n)
        calls = observe(monkeypatch)
        assert run_estimation_study(cfg) == want
        assert [len(call.stacks) for call in calls] == [1, 1, 1, 1]
        rows = [call.stacks[0].counts.shape[1] for call in calls]
        assert sum(rows) == 7 and max(rows) <= 2
        # with two workers the 4 parts share one pool of 2 processes
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", counted_pool)
        pooled = run_estimation_study(dataclasses.replace(cfg, workers=2))
        assert pooled.to_json_dict() == want.to_json_dict()
        assert pools == [{"max_workers": 2}]

    def test_select_model_is_one_call(self, monkeypatch):
        data = from_bivariate(sample(PW, 80, seed=5))
        calls = observe(monkeypatch)
        select_model(data, (W, L))
        assert [len(call.stacks) for call in calls] == [2]

    def test_fit_mle_and_bootstrap_ci_are_one_call_each(self, monkeypatch):
        data = from_bivariate(sample(PW, 80, seed=5))
        calls = observe(monkeypatch)
        fit = fit_mle(data, W)
        assert [len(call.stacks) for call in calls] == [1]
        bootstrap_ci(fit, data, B=20, seed=1)
        assert [len(call.stacks) for call in calls] == [1, 1]

    def test_estimation_chunk_is_one_call(self, monkeypatch):
        cfg = EstimationStudyConfig(true_params=PW, n=60, replications=4, bootstrap_B=0, seed=2)
        calls = observe(monkeypatch)
        run_estimation_study(cfg)
        assert [len(call.stacks) for call in calls] == [1]
