"""Model choice across baseline kinds by maximized likelihood."""

import pytest

from bvf import (
    BaselineKind,
    BvfParams,
    CompetingRisksData,
    FitStatus,
    SelectionError,
    ValidationError,
    aic,
    from_bivariate,
    sample,
    select_model,
)

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


def test_all_candidates_failing_is_an_error():
    data = CompetingRisksData([1.0, 1.0, 1.0], [0, 1, 2])
    with pytest.raises(SelectionError):
        select_model(data)


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
