"""Likelihood-based choice among the three baseline kinds for one dataset.

Every candidate spends the same four parameters, so the best candidate is
the one with the largest maximized log-likelihood; each candidate's AIC is
reported alongside. Candidates whose profile has no maximum are excluded
from the ranking rather than failing the whole selection.
"""

from dataclasses import dataclass
from typing import Iterable

from .baselines import BaselineKind
from .data_model import CompetingRisksData
from .errors import SelectionError, ValidationError
from .inference import FitResult, FitStatus, fit_mle

__all__ = [
    "N_PARAMS",
    "SelectionResult",
    "aic",
    "select_model",
]

N_PARAMS = 4


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
    Gompertz < Lomax, for reproducibility.

    Raises
    ------
    SelectionError
        If no candidate produced a usable fit.
    ValidationError
        On an empty or duplicated candidate list.
    """
    kinds = list(candidates)
    if not kinds:
        raise ValidationError("candidate set must be non-empty")
    if len(set(kinds)) != len(kinds):
        raise ValidationError("candidate kinds must be distinct")

    ranked: list[tuple[BaselineKind, FitResult]] = []
    excluded: list[tuple[BaselineKind, str]] = []
    for kind in sorted(kinds, key=lambda k: k.order):
        fit = fit_mle(data, kind)
        if fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE:
            excluded.append(
                (kind, "profile log-likelihood is monotone over the search bracket")
            )
        else:
            ranked.append((kind, fit))
    if not ranked:
        raise SelectionError(
            "all candidate fits failed: "
            + "; ".join(f"{kind.value}: {reason}" for kind, reason in excluded)
        )
    ranked.sort(key=lambda kf: (-kf[1].loglik_max, kf[0].order))
    return SelectionResult(ranked=tuple(ranked), excluded=tuple(excluded))
