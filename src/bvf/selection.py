"""Likelihood-based choice among the three baseline kinds.

Every candidate spends the same four parameters, so the best candidate is
the one with the largest maximized log-likelihood; each candidate's AIC is
reported alongside. Candidates whose profile has no maximum are excluded
from the ranking rather than failing the whole selection.

There is one selection path. Each candidate kind is fitted on a stack of
equal-length datasets in one engine call (:func:`_fit_candidates`), and each
row is decided by one rule (:func:`_rank_row`). :func:`select_model` is the
one-row case, on the dataset's own one-row stacks; a selection study runs
the same two functions on a stack of its datasets (:func:`_select_stack`).
"""

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .baselines import BaselineKind
from .data_model import CompetingRisksData
from .errors import BvfError, SelectionError, ValidationError
from .inference import (
    FitResult,
    FitStatus,
    _fit_result,
    _fit_stack,
    _fitted_logliks,
    _Stack,
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
    stacked selection a study runs on many datasets at once: each candidate
    is fitted on the dataset's one-row stack, and each fit is the one
    :func:`fit_mle` returns.

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
    fits, logliks = _fit_candidates(_workspace(data, kind) for kind in kinds)
    ranked, excluded = _rank_row(kinds, fits, logliks, 0)
    results = {
        kind: _fit_result(kind, f, 0, ll[0]) for kind, f, ll in zip(kinds, fits, logliks)
    }
    return SelectionResult(
        ranked=tuple((kind, results[kind]) for kind in ranked),
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


def _fit_candidates(stacks: Iterable[_Stack]) -> tuple[list, list]:
    """Each stack's fits, one engine call per stack, and per row its
    maximized log-likelihood (None for a row without estimates). The stacks
    are taken one at a time, so a generator holds only one alive."""
    fits, logliks = [], []
    for stack in stacks:
        fits.append(_fit_stack(stack))
        logliks.append(_fitted_logliks(stack, fits[-1]))
    return fits, logliks


def _rank_row(kinds: list, fits: list, logliks: list, r: int) -> tuple[list, list]:
    """The ranked and the excluded kinds of row ``r``, given the candidate
    kinds in kind order with their fits and log-likelihoods.

    A kind whose profile is monotone is excluded. The rest rank best-first
    by maximized log-likelihood; an exact tie (a probability-zero event)
    goes to the earlier kind in the fixed order Weibull < Gompertz < Lomax,
    for reproducibility. Raises the error of the first kind whose fit ended
    in one, or a SelectionError if every kind is excluded.
    """
    scored, excluded = [], []
    for kind, f, ll in zip(kinds, fits, logliks):
        outcome = f.outcome[r]
        if isinstance(outcome, BvfError):
            raise outcome
        if outcome is FitStatus.NO_MLE_MONOTONE_PROFILE:
            excluded.append(kind)
        else:
            scored.append((kind, ll[r]))
    if not scored:
        raise SelectionError(
            "all candidate fits failed: "
            + "; ".join(f"{kind.value}: {_MONOTONE}" for kind in excluded)
        )
    scored.sort(key=lambda kl: (-kl[1], kl[0].order))
    return [kind for kind, _ in scored], excluded


def _select_stack(
    t: np.ndarray, delta: np.ndarray, candidates: Iterable[BaselineKind]
) -> list[Optional[BaselineKind]]:
    """The kind :func:`select_model` chooses for each row of a (R, n) record
    stack, or None for a row where it raises: a candidate's fit ends in an
    error, or every candidate is excluded. It runs select_model's own path,
    :func:`_fit_candidates` and :func:`_rank_row`, on the whole stack: each
    candidate kind is fitted on all rows in one engine call, each row bit
    for bit as it is fitted alone."""
    kinds = sorted(_check_candidates(candidates), key=lambda k: k.order)
    fits, logliks = _fit_candidates(_Stack(kind, t, delta) for kind in kinds)
    chosen: list = []
    for r in range(t.shape[0]):
        try:
            chosen.append(_rank_row(kinds, fits, logliks, r)[0][0])
        except BvfError:
            chosen.append(None)
    return chosen
