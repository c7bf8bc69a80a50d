"""Likelihood-based choice among the three baseline kinds.

Every candidate spends the same four parameters, so the best candidate is
the one with the largest maximized log-likelihood; each candidate's AIC is
reported alongside. Candidates whose profile has no maximum are excluded
from the ranking rather than failing the whole selection.

There is one selection path and one ranking rule (:func:`_rank`). Every
candidate kind is fitted on its stacks of datasets in one engine call, and
the candidates of every row are ranked at once, in kind order, by a stable
argsort of their negated log-likelihoods, with per row a count of those
that rank (0 where the row has no choice). :func:`select_model` is row 0
of the dataset's own one-row stacks; a selection study runs the same rule
on stacks of its datasets, one per sample size, all candidates at every
size in one call (:func:`_select_stacks`).
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .baselines import BaselineKind
from .data_model import CompetingRisksData
from .errors import SelectionError, ValidationError
from .inference import (
    _BOUNDARY,
    _NO_MLE_LIMIT,
    FitResult,
    FitStatus,
    _fit_result,
    _fit_stacks,
    _fitted_logliks,
    _Stack,
    _tally,
    _workspace,
)
# fit_mle is not called here (candidates are fitted in stacks), but stays a
# name of this module: perfbench's tracer rebinds it in every namespace
# that held it
from .inference import fit_mle  # noqa: F401

__all__ = [
    "N_PARAMS",
    "SelectionResult",
    "aic",
    "select_model",
]

N_PARAMS = 4

_MONOTONE = "profile log-likelihood is monotone over the search bracket"


def aic(loglik: float) -> float:
    """Akaike information criterion of a bivariate fit,
    2 * N_PARAMS - 2 * loglik (smaller is better)."""
    return 2.0 * N_PARAMS - 2.0 * loglik


@dataclass(frozen=True)
class SelectionResult:
    """Ranking produced by :func:`select_model`.

    ``ranked`` holds (kind, fit) pairs best-first; ``excluded`` holds
    (kind, reason) for candidates without an MLE.
    """

    ranked: tuple[tuple[BaselineKind, FitResult], ...]
    excluded: tuple[tuple[BaselineKind, str], ...]

    @property
    def chosen(self) -> BaselineKind:
        return self.ranked[0][0]

    def to_json_dict(self) -> dict:
        table = []
        for kind, fit in self.ranked:
            table.append(
                {
                    "kind": kind.value,
                    "loglik": fit.loglik_max,
                    "aic": aic(fit.loglik_max),
                    "params": fit.params_hat.to_json_dict(),
                    "status": fit.status.value,
                }
            )
        for kind, _reason in self.excluded:
            table.append(
                {
                    "kind": kind.value,
                    "loglik": None,
                    "aic": None,
                    "params": None,
                    "status": FitStatus.NO_MLE_MONOTONE_PROFILE.value,
                }
            )
        return {"chosen": self.chosen.value, "table": table}


def select_model(
    data: CompetingRisksData,
    candidates: Iterable[BaselineKind] = tuple(BaselineKind),
) -> SelectionResult:
    """Fit every candidate kind and rank the converged fits.

    Ranking is by maximized log-likelihood, descending. Exact likelihood
    ties (a probability-zero event) break by the fixed kind order Weibull <
    Gompertz < Lomax, for reproducibility. This is the one-row case of the
    stacked selection a study runs on many datasets at once: the candidates
    are fitted on the dataset's one-row stacks in one engine call, each fit
    is the one :func:`fit_mle` returns, and the candidates are ranked by
    the rule a study applies to every row (:func:`_rank`).

    Raises
    ------
    EstimationError, DegenerateDataError
        The error of the first candidate, in kind order, whose fit ends in
        one (as :func:`fit_mle` raises it).
    SelectionError
        If every candidate is excluded.
    ValidationError
        If the candidates are empty, repeat a kind, or are not all
        BaselineKind members.
    """
    kinds = sorted(_check_candidates(candidates), key=lambda k: k.order)
    stacks = [_workspace(data, kind) for kind in kinds]
    fits = _fit_stacks(stacks)
    logliks, order, count = _rank(stacks, fits)
    # in kind order, so the first candidate whose fit ends in an error raises
    results = [
        _fit_result(kind, f, 0, ll) for kind, f, ll in zip(kinds, fits, logliks[:, 0].tolist())
    ]
    excluded = [r.kind for r in results if r.status is FitStatus.NO_MLE_MONOTONE_PROFILE]
    if not count[0]:
        raise SelectionError(
            "all candidate fits failed: "
            + "; ".join(f"{kind.value}: {_MONOTONE}" for kind in excluded)
        )
    return SelectionResult(
        ranked=tuple((kinds[k], results[k]) for k in order[: count[0], 0].tolist()),
        excluded=tuple((kind, _MONOTONE) for kind in excluded),
    )


def _check_candidates(candidates: Iterable[BaselineKind]) -> tuple:
    """The candidates as a tuple, in the order given: non-empty, every entry
    a BaselineKind, no kind twice; a ValidationError otherwise."""
    kinds = tuple(candidates)
    if not kinds:
        raise ValidationError("candidate set must be non-empty")
    for kind in kinds:
        if not isinstance(kind, BaselineKind):
            raise ValidationError(f"candidates must be BaselineKind members, got {kind!r}")
    if len(set(kinds)) != len(kinds):
        raise ValidationError("candidate kinds must be distinct")
    return kinds


def _rank(stacks: list, fits: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one ranking rule, on the fits of one record stack's candidates in
    kind order: per candidate and row, its maximized log-likelihood (-inf
    for a candidate without estimates); the candidates of each row ranked
    best-first (a stable argsort of -log-likelihood, so an exact tie, a
    probability-zero event, goes to the earlier kind in the fixed order
    Weibull < Gompertz < Lomax, and candidates without estimates come
    last); and per row how many of them rank: 0 where a candidate's fit
    ends in an error or every candidate is excluded (no MLE)."""
    logliks = np.stack([_fitted_logliks(stack, f) for stack, f in zip(stacks, fits)])
    codes = np.stack([f.code for f in fits])
    count = np.count_nonzero(codes <= _BOUNDARY, axis=0)
    count[(codes > _NO_MLE_LIMIT).any(axis=0)] = 0
    return logliks, np.argsort(-logliks, axis=0, kind="stable"), count


def _select_stacks(records: list, candidates: Iterable[BaselineKind]) -> list[np.ndarray]:
    """For each (t, delta) pair of ``records``, a (R, n) record stack (n
    may differ from pair to pair), per row the index among the candidates
    in kind order of the one :func:`select_model` chooses, or -1 where it
    raises: a candidate's fit ends in an error, or every candidate is
    excluded. Every candidate kind over every record stack is fitted in
    one engine call, each row bit for bit as it is fitted alone, and each
    record stack's rows are ranked at once by select_model's rule
    (:func:`_rank`). The candidates over one record stack share its
    failure counts (:func:`_tally`)."""
    kinds = sorted(_check_candidates(candidates), key=lambda k: k.order)
    stacks = []
    for t, delta in records:
        tally = _tally(delta)
        stacks += [_Stack(kind, t, delta, tally) for kind in kinds]
    fits = _fit_stacks(stacks)
    chosen = []
    for i in range(0, len(stacks), len(kinds)):
        _, order, count = _rank(stacks[i : i + len(kinds)], fits[i : i + len(kinds)])
        chosen.append(np.where(count > 0, order[0], -1))
    return chosen
