"""Likelihood-based choice among the three baseline kinds.

Every candidate spends the same four parameters, so the best candidate is
the one with the largest maximized log-likelihood; each candidate's AIC is
reported alongside. Candidates whose profile has no maximum are excluded
from the ranking rather than failing the whole selection.

There is one selection path. Every candidate kind is fitted on its stacks
of datasets in one engine call (:func:`_fit_candidates`), and each row is
decided by one rule (:func:`_rank_row`). :func:`select_model` is the
one-row case, one call on the dataset's own one-row stacks; a selection
study runs the same two functions on stacks of its datasets, one per
sample size, all candidates at every size in one call
(:func:`_select_stacks`).
"""

from dataclasses import dataclass
from typing import Iterable, Optional

from .baselines import BaselineKind
from .data_model import CompetingRisksData
from .errors import BvfError, SelectionError, ValidationError
from .inference import (
    FitResult,
    FitStatus,
    _fit_result,
    _fit_stacks,
    _fitted_logliks,
    _Stack,
    _status,
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
    are fitted on the dataset's one-row stacks in one engine call, and each
    fit is the one :func:`fit_mle` returns.

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
    fits, codes, logliks = _fit_candidates([_workspace(data, kind) for kind in kinds])
    ranked, excluded = _rank_row(kinds, fits, codes, logliks, 0)
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


def _fit_candidates(stacks: list) -> tuple[list, list, list]:
    """Each stack's fits, all in one engine call, and per row its outcome
    code and its maximized log-likelihood (None for a row without
    estimates), as lists."""
    fits = _fit_stacks(stacks)
    codes = [f.code.tolist() for f in fits]
    return fits, codes, [_fitted_logliks(stack, f) for stack, f in zip(stacks, fits)]


def _rank_row(kinds: list, fits: list, codes: list, logliks: list, r: int) -> tuple[list, list]:
    """The ranked and the excluded kinds of row ``r``, given the candidate
    kinds in kind order with their fits, codes and log-likelihoods.

    A kind whose profile is monotone is excluded. The rest rank best-first
    by maximized log-likelihood; an exact tie (a probability-zero event)
    goes to the earlier kind in the fixed order Weibull < Gompertz < Lomax,
    for reproducibility. Raises the error of the first kind whose fit ended
    in one, or a SelectionError if every kind is excluded.
    """
    scored, excluded = [], []
    for kind, f, code, ll in zip(kinds, fits, codes, logliks):
        if _status(code[r], f, r) is FitStatus.NO_MLE_MONOTONE_PROFILE:
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


def _select_stacks(
    records: list, candidates: Iterable[BaselineKind]
) -> list[list[Optional[BaselineKind]]]:
    """For each (t, delta) pair of ``records``, a (R, n) record stack (n
    may differ from pair to pair), the kind :func:`select_model` chooses
    for each row, or None for a row where it raises: a candidate's fit ends
    in an error, or every candidate is excluded. It runs select_model's own
    path, :func:`_fit_candidates` and :func:`_rank_row`, on every row at
    once: every candidate kind over every record stack is fitted in one
    engine call, each row bit for bit as it is fitted alone. The candidates
    over one record stack share its failure counts (:func:`_tally`)."""
    kinds = sorted(_check_candidates(candidates), key=lambda k: k.order)
    stacks = []
    for t, delta in records:
        tally = _tally(delta)
        stacks += [_Stack(kind, t, delta, tally) for kind in kinds]
    fits, codes, logliks = _fit_candidates(stacks)
    chosen: list = []
    for i, (t, _) in enumerate(records):
        cut = slice(i * len(kinds), (i + 1) * len(kinds))
        row_chosen = []
        for r in range(t.shape[0]):
            try:
                row_chosen.append(_rank_row(kinds, fits[cut], codes[cut], logliks[cut], r)[0][0])
            except BvfError:
                row_chosen.append(None)
        chosen.append(row_chosen)
    return chosen
