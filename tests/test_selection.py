"""Model choice across baseline kinds by maximized likelihood."""

import pytest

import numpy as np

from bvf import (
    BaselineKind,
    BvfError,
    BvfParams,
    CompetingRisksData,
    EstimationError,
    FitStatus,
    SelectionError,
    ValidationError,
    aic,
    censoring_threshold,
    fit_mle,
    from_bivariate,
    sample,
    select_model,
)
from bvf.selection import _select_stack

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX

T12 = [0.2, 0.5, 0.7, 1.1, 0.3, 0.9, 1.4, 0.6, 1.0, 1.5, 1.5, 1.5]
D12 = [1, 1, 1, 1, 2, 2, 2, 0, 0, 3, 3, 3]


@pytest.fixture(scope="module")
def data12():
    return CompetingRisksData(T12, D12)


def test_aic_closed_form():
    assert aic(-100.0) == 208.0
    assert aic(0.0) == 8.0


def test_singleton_candidate_is_chosen(data12):
    res = select_model(data12, candidates=(W,))
    assert res.chosen is W
    assert len(res.ranked) == 1
    assert res.excluded == ()


def test_twelve_records_prefer_weibull(data12):
    res = select_model(data12)
    assert res.chosen is W
    assert [kind for kind, _ in res.ranked] == [W, G]
    assert [kind for kind, _ in res.excluded] == [L]
    reason = res.excluded[0][1]
    assert "monotone" in reason.lower() or "NoMle" in reason


def test_ranking_by_loglik_descending(data12):
    res = select_model(data12)
    logliks = [fit.loglik_max for _, fit in res.ranked]
    assert logliks == sorted(logliks, reverse=True)


def test_duplicate_candidates_rejected(data12):
    with pytest.raises(ValidationError):
        select_model(data12, candidates=(W, W))


def test_empty_candidates_rejected(data12):
    with pytest.raises(ValidationError):
        select_model(data12, candidates=())


@pytest.mark.parametrize("candidates", [("weibull",), (W, "x"), (W, None)])
def test_non_kind_candidates_rejected(data12, candidates):
    with pytest.raises(ValidationError, match="BaselineKind"):
        select_model(data12, candidates)


def test_all_candidates_failing_is_an_error():
    data = CompetingRisksData([1.0, 1.0, 1.0], [0, 1, 2])
    with pytest.raises(SelectionError):
        select_model(data)


def test_all_excluded_message():
    data = CompetingRisksData([1.0, 1.0, 1.0], [0, 1, 2])
    with pytest.raises(SelectionError) as info:
        select_model(data, (L, W))
    monotone = "profile log-likelihood is monotone over the search bracket"
    assert str(info.value) == (
        f"all candidate fits failed: Weibull: {monotone}; Lomax: {monotone}"
    )


PARENTS = {
    W: BvfParams(W, 1.34, 1.17, 0.86, 0.91),
    G: BvfParams(G, 1.13, 0.96, 0.79, 1.05),
    L: BvfParams(L, 0.85, 0.57, 0.74, 0.69),
}


def _equivalence_datasets():
    """Draws from each caption parent at n = 40 and 300, complete and about
    30% censored, and a Weibull parent with alpha0 = 0 (no ties)."""
    out = []
    for j, (kind, p) in enumerate(PARENTS.items()):
        for n in (40, 300):
            for frac in (0.0, 0.3):
                c = censoring_threshold(p, frac) if frac else None
                out.append(from_bivariate(sample(p, n, seed=500 + 10 * j + n + int(10 * frac)), c))
    out.append(from_bivariate(sample(BvfParams(W, 0.0, 1.17, 0.86, 0.91), 300, seed=41)))
    return out


@pytest.mark.parametrize("candidates", [(W, G, L), (L, G), (G,)])
def test_select_model_fits_are_fit_mle(candidates):
    # select_model fits in stacks; every fit it reports must be the whole
    # FitResult fit_mle gives, n_evals included, and it must exclude exactly
    # the candidates whose fit_mle finds no MLE
    excluded_any = boundary_any = False
    for data in _equivalence_datasets():
        want = {k: fit_mle(data, k) for k in candidates}
        no_mle = [
            k for k in sorted(candidates, key=lambda k: k.order)
            if want[k].status is FitStatus.NO_MLE_MONOTONE_PROFILE
        ]
        if len(no_mle) == len(candidates):
            with pytest.raises(SelectionError):
                select_model(data, candidates)
            excluded_any = True
            continue
        res = select_model(data, candidates)
        ranked = dict(res.ranked)
        for kind, fit in ranked.items():
            assert fit == want[kind]
        assert [k for k, _ in res.excluded] == no_mle
        assert set(ranked) | {k for k, _ in res.excluded} == set(candidates)
        excluded_any |= bool(res.excluded)
        boundary_any |= any(
            f.status is FitStatus.BOUNDARY_ALPHA_ZERO for f in ranked.values()
        )
    if G in candidates:
        assert excluded_any
    if W in candidates:
        assert boundary_any


def test_no_failures_raises_as_fit_mle():
    data = CompetingRisksData([1.5] * 12, [3] * 12)
    with pytest.raises(EstimationError) as fit_error:
        fit_mle(data, W)
    with pytest.raises(EstimationError) as select_error:
        select_model(data)
    assert type(select_error.value) is type(fit_error.value)
    assert str(select_error.value) == str(fit_error.value) == "no failures observed"


@pytest.mark.parametrize("candidates", [(W, G, L), (G, L), (L,)])
def test_stacked_selection_drops_where_select_model_raises(data12, candidates):
    # rows: twelve records that rank Weibull over Gompertz and exclude Lomax;
    # the same twelve all censored (every fit raises); twelve Lomax draws
    # that rank Lomax over Weibull and exclude Gompertz
    lomax = from_bivariate(sample(BvfParams(L, 0.85, 0.57, 0.74, 0.69), 12, seed=2))
    rows = [(T12, D12), ([1.5] * 12, [3] * 12), (lomax.t, lomax.delta)]
    t = np.array([r[0] for r in rows])
    delta = np.array([r[1] for r in rows], dtype=np.int8)
    want = []
    for times, deltas in rows:
        try:
            want.append(select_model(CompetingRisksData(times, deltas), candidates).chosen)
        except BvfError:
            want.append(None)
    assert _select_stack(t, delta, candidates) == want
    assert want[1] is None
    assert want[2] is L


def test_boundary_fits_still_rank():
    p = BvfParams(W, 0.0, 1.17, 0.86, 0.91)
    data = from_bivariate(sample(p, 2000, seed=41))
    res = select_model(data, candidates=(W, G))
    best_fit = res.ranked[0][1]
    assert best_fit.status in (FitStatus.CONVERGED, FitStatus.BOUNDARY_ALPHA_ZERO)
    assert best_fit.params_hat.alpha0 == 0.0


def test_deterministic(data12):
    a = select_model(data12)
    b = select_model(data12)
    assert [kind for kind, _ in a.ranked] == [kind for kind, _ in b.ranked]
    assert a.ranked[0][1].loglik_max == b.ranked[0][1].loglik_max


def test_json_shape(data12):
    d = select_model(data12).to_json_dict()
    assert d["chosen"] == "Weibull"
    kinds = [row["kind"] for row in d["table"]]
    assert kinds == ["Weibull", "Gompertz", "Lomax"]
    statuses = {row["kind"]: row["status"] for row in d["table"]}
    assert statuses["Lomax"] == "NoMleMonotoneProfile"


def test_weibull_parent_wins_repeatedly():
    # two-candidate race on moderate samples from a Weibull parent
    p = BvfParams(W, 1.34, 1.17, 0.86, 0.91)
    wins = 0
    reps = 120
    from numpy.random import SeedSequence

    for child in SeedSequence(77).spawn(reps):
        data = from_bivariate(sample(p, 300, seed=child))
        res = select_model(data, candidates=(W, G))
        wins += res.chosen is W
    assert wins / reps >= 0.8
