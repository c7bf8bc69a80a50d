"""Likelihood-based choice among the three baseline kinds.

Every candidate spends the same four parameters, so the best candidate is
the one with the largest maximized log-likelihood; each candidate's AIC is
reported alongside. Candidates whose profile has no maximum are excluded
from the ranking rather than failing the whole selection.

:func:`select_model` chooses for one dataset; a selection study chooses for
a stack of equal-length datasets at once (:func:`_select_stack`), with the
same ranking rule and one fitting-engine call per candidate kind.
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
    _fit_stack,
    _loglik_rows,
    _Stack,
    fit_mle,
)

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
    Gompertz < Lomax, for reproducibility. A selection study ranks each of
    its datasets by this same rule, fitted in stacks rather than through
    :func:`fit_mle`, so its choice for a dataset is the one made here.

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

    fits: dict[BaselineKind, FitResult] = {}
    excluded: list[tuple[BaselineKind, str]] = []
    for kind in sorted(kinds, key=lambda k: k.order):
        fit = fit_mle(data, kind)
        if fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE:
            excluded.append(
                (kind, "profile log-likelihood is monotone over the search bracket")
            )
        else:
            fits[kind] = fit
    if not fits:
        raise SelectionError(
            "all candidate fits failed: "
            + "; ".join(f"{kind.value}: {reason}" for kind, reason in excluded)
        )
    ranked = _rank([(kind, fit.loglik_max) for kind, fit in fits.items()])
    return SelectionResult(
        ranked=tuple((kind, fits[kind]) for kind, _ in ranked),
        excluded=tuple(excluded),
    )


def _rank(scored: list) -> list:
    """(kind, maximized log-likelihood) pairs, given in kind order, sorted
    best-first: by log-likelihood descending, an exact tie (a
    probability-zero event) going to the earlier kind in the fixed order
    Weibull < Gompertz < Lomax, for reproducibility."""
    return sorted(scored, key=lambda kl: (-kl[1], kl[0].order))


def _select_stack(
    t: np.ndarray, delta: np.ndarray, candidates: Iterable[BaselineKind]
) -> list[Optional[BaselineKind]]:
    """The kind :func:`select_model` chooses for each row of a (R, n) record
    stack, or None for a row where it raises: a candidate's fit ends in an
    error, or every candidate is excluded. Each candidate kind is fitted on
    all rows in one engine call, each row bit for bit as :func:`fit_mle`
    fits it alone, and its log-likelihood is :func:`log_likelihood`'s."""
    R = t.shape[0]
    scored: list[list] = [[] for _ in range(R)]
    failed = np.zeros(R, dtype=bool)
    for kind in sorted(candidates, key=lambda k: k.order):
        stack = _Stack(kind, t, delta)
        fits = _fit_stack(stack)
        failed |= [isinstance(o, BvfError) for o in fits.outcome]
        rows = np.flatnonzero(
            [o is FitStatus.CONVERGED or o is FitStatus.BOUNDARY_ALPHA_ZERO for o in fits.outcome]
        )
        logliks = _loglik_rows(stack, rows, fits.lam[rows], fits.alphas[:, rows])
        for r, loglik in zip(rows.tolist(), logliks):
            scored[r].append((kind, loglik))
    return [
        None if failed[r] or not scored[r] else _rank(scored[r])[0][0]
        for r in range(R)
    ]
