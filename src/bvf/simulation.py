"""Monte Carlo harnesses: estimator performance and model selection.

Every replication's RNG stream is a fixed child of the study's one root
``SeedSequence``, named by its spawn key: replication i's data come from
key (i, 0) and its bootstrap resample b from key (i, 1, b) in an
estimation study; replication r at the c-th sample size of a selection
study has key (c * replications + r,). These are the children that
spawning the root (and spawning each child twice, for estimation) would
make, so a study is reproducible bit-for-bit under any worker count or
scheduling order. No child object is built: a chunk hashes all its rows'
seeds in one NumPy pass (:func:`_child_states`).

A work item is a contiguous chunk of replication indices: a module-level
chunk function bound to the study's config and root (and, for selection,
the sample size) by ``functools.partial``, applied to the indices. The
chunk's datasets are drawn as one stack. An estimation chunk fits the stack
in one engine call; a selection chunk runs :func:`select_model`'s own path
on it, which fits each candidate kind on the whole stack in one engine
call; there is no second selection rule for studies. With ``workers = 1``
each cell is one chunk, run in this process; with ``workers > 1`` each
cell is split into that many chunks, and the chunks of all of a study's
cells run in one process pool.
"""

import functools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import BaselineKind
# sample, from_bivariate, fit_mle, asymptotic_ci, bootstrap_ci and
# select_model are not called here (studies draw, fit, take intervals and
# select in stacks), but stay names of this module: perfbench's tracer
# rebinds them in every namespace that held them
from .bvf_model import (  # noqa: F401
    BvfParams,
    _check_count,
    _child_states,
    _seed_sequence,
    censoring_threshold,
    sample,
)
from .data_model import from_bivariate  # noqa: F401
from .errors import (
    BvfError,
    DomainError,
    EstimationError,
    SingularMatrixError,
    ValidationError,
)
from .inference import (  # noqa: F401
    PARAM_NAMES,
    FitStatus,
    _bootstrap_intervals,
    _draw_stack,
    _fit_stack,
    _reason,
    _Stack,
    _wald_intervals,
    _wald_variances,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
)
from .selection import _check_candidates, _select_stack, select_model  # noqa: F401

__all__ = [
    "EstimationStudyConfig",
    "IntervalSummary",
    "ParameterSummary",
    "EstimationStudyReport",
    "SelectionStudyConfig",
    "SelectionStudyReport",
    "relative_metrics",
    "run_estimation_study",
    "run_selection_study",
]


def relative_metrics(estimates, truth: float) -> tuple[float, float]:
    """Relative MSE and relative bias of estimates against a known truth:
    MSE / truth**2 and (mean - truth) / truth.

    Raises
    ------
    DomainError
        If truth is 0 (the normalizations are undefined).
    ValidationError
        If no estimates are given.
    """
    truth = float(truth)
    if truth == 0.0:
        raise DomainError("relative metrics are undefined for truth = 0")
    est = np.asarray(estimates, dtype=np.float64)
    if est.size == 0:
        raise ValidationError("no estimates")
    mse = float(np.mean((est - truth) ** 2))
    bias = float(np.mean(est)) - truth
    return mse / truth**2, bias / truth


def _check_seed_and_workers(config) -> None:
    """A study config's last checks: its seed and its worker count."""
    # reports echo the seed as a JSON integer
    if isinstance(config.seed, np.random.SeedSequence):
        raise ValidationError("seed must be None or an integer >= 0")
    _seed_sequence(config.seed)
    if config.workers < 1:
        raise ValidationError("workers must be >= 1")


@dataclass(frozen=True)
class EstimationStudyConfig:
    """One cell of an estimator-performance study.

    ``censored_fraction = 0`` means complete data; otherwise Type-I
    censoring at the fixed threshold with that expected fraction.
    ``bootstrap_B = 0`` skips the bootstrap intervals entirely (the
    asymptotic ones are always computed).
    """

    true_params: BvfParams
    n: int
    replications: int
    censored_fraction: float = 0.0
    ci_level: float = 0.95
    bootstrap_B: int = 500
    seed: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        for name in ("n", "replications", "bootstrap_B", "workers"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        if self.n < 10:
            raise ValidationError(f"n must be >= 10, got {self.n}")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        for name in ("censored_fraction", "ci_level"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a number, got {value!r}")
        if not (0.0 <= self.censored_fraction < 1.0):
            raise ValidationError("censored_fraction must lie in [0, 1)")
        if self.censored_fraction:
            c = censoring_threshold(self.true_params, self.censored_fraction)
            if not 0.0 < c < math.inf:
                # from_bivariate would reject every dataset censored at C
                raise ValidationError(
                    f"censored_fraction {self.censored_fraction!r} puts the "
                    f"censoring time C at {c!r}, outside (0, inf)"
                )
        if not (0.0 < self.ci_level < 1.0):
            raise ValidationError("ci_level must lie in (0, 1)")
        if self.bootstrap_B < 0:
            raise ValidationError("bootstrap_B must be >= 0")
        _check_seed_and_workers(self)


@dataclass(frozen=True)
class IntervalSummary:
    avg_length: float
    coverage: float


@dataclass(frozen=True)
class ParameterSummary:
    relative_mse: float
    relative_bias: float
    asymptotic: Optional[IntervalSummary]
    bootstrap: Optional[IntervalSummary]


@dataclass(frozen=True)
class EstimationStudyReport:
    config: EstimationStudyConfig
    parameters: dict[str, ParameterSummary]
    replications_used: int
    failed_replications: int

    def to_json_dict(self) -> dict:
        cfg = self.config
        out = {
            "study": "estimation",
            "true_params": cfg.true_params.to_json_dict(),
            "n": cfg.n,
            "censored_fraction": cfg.censored_fraction,
            "replications": cfg.replications,
            "replications_used": self.replications_used,
            "failed_replications": self.failed_replications,
            "ci_level": cfg.ci_level,
            "bootstrap_B": cfg.bootstrap_B,
            "seed": cfg.seed,
            "parameters": {},
        }
        for name, summary in self.parameters.items():
            entry = {
                "relative_mse": summary.relative_mse,
                "relative_bias": summary.relative_bias,
            }
            for method, ci in (
                ("asymptotic", summary.asymptotic),
                ("bootstrap", summary.bootstrap),
            ):
                entry[method] = (
                    None
                    if ci is None
                    else {"avg_length": ci.avg_length, "coverage": ci.coverage}
                )
            out["parameters"][name] = entry
        return out

    def to_csv_rows(self) -> list[dict]:
        """The ``parameters`` of :meth:`to_json_dict` in the classical
        study-table layout: one row per parameter, interval summaries as
        columns (blank when disabled)."""
        rows = []
        for name, entry in self.to_json_dict()["parameters"].items():
            row = {
                "parameter": name,
                "relative_mse": entry["relative_mse"],
                "relative_bias": entry["relative_bias"],
            }
            for method, prefix in (("asymptotic", "asym"), ("bootstrap", "boot")):
                ci = entry[method] or {}
                row[f"{prefix}_avg_length"] = ci.get("avg_length", "")
                row[f"{prefix}_coverage"] = ci.get("coverage", "")
            rows.append(row)
        return rows


def _interval_stats(rows, truth) -> list[IntervalSummary]:
    arr = np.asarray(rows, dtype=np.float64)  # (reps, 4, 2)
    lengths = arr[:, :, 1] - arr[:, :, 0]
    covered = (arr[:, :, 0] <= truth) & (truth <= arr[:, :, 1])
    return [
        IntervalSummary(
            avg_length=float(np.mean(lengths[:, j])),
            coverage=float(np.mean(covered[:, j])),
        )
        for j in range(4)
    ]


def _estimation_chunk(config: EstimationStudyConfig, root, replicates) -> list:
    """Per replication i of ``replicates``, its estimate and interval dicts
    (None without bootstrap), or the reason it has none (a FitStatus value
    or an error class name), as fit_mle, asymptotic_ci and bootstrap_ci
    give them on its dataset alone, with its data drawn from child (i, 0)
    of ``root`` and its bootstrap resample b from child (i, 1, b). The
    datasets are drawn as one stack and fitted in one engine call, the Wald
    variances of all converged rows take one more pass over that stack, and
    each bootstrap's B seeds are hashed in one pass."""
    p, B, level = config.true_params, config.bootstrap_B, float(config.ci_level)
    c = censoring_threshold(p, config.censored_fraction) if config.censored_fraction else None
    index = np.asarray(replicates, dtype=np.uint64)
    data_keys = np.column_stack((index, np.zeros_like(index)))
    rows, t, delta, results = _draw_stack(p, config.n, _child_states(root, data_keys), c)
    stack = _Stack(p.kind, t, delta)
    fits = _fit_stack(stack)
    for j, r in enumerate(rows.tolist()):
        if fits.outcome[j] is not FitStatus.CONVERGED:
            results[r] = _reason(fits.outcome[j])
    conv = np.flatnonzero([o is FitStatus.CONVERGED for o in fits.outcome])
    lam, alphas = fits.lam[conv], fits.alphas[:, conv]
    variances = _wald_variances(stack, conv, lam, alphas)
    resample = np.arange(B, dtype=np.uint64)
    estimates = zip(alphas.T.tolist(), lam.tolist())
    for r, (alpha, lam_r), var in zip(rows[conv].tolist(), estimates, variances):
        if np.isnan(var).any():
            results[r] = SingularMatrixError.__name__
            continue
        theta = (*alpha, lam_r)
        boot = None
        if B:
            keys = np.column_stack((np.full(B, index[r]), np.ones_like(resample), resample))
            try:
                boot = _bootstrap_intervals(
                    BvfParams(p.kind, *theta), config.n, c, level, _child_states(root, keys)
                )[0]
            except BvfError as exc:
                results[r] = type(exc).__name__
                continue
        results[r] = theta, _wald_intervals(theta, var, level), boot
    return results


def _run_chunks(cells, workers: int) -> list:
    """For each cell of a study, a (worker, replicates) pair, ``worker``
    applied to ``workers`` contiguous chunks of the cell's replicate
    indices (a range or a list); returns each cell's per-replication
    results, concatenated in order. When every cell is one chunk they run
    in this process; otherwise all chunks of all cells share one process
    pool."""
    jobs = []
    for i, (worker, replicates) in enumerate(cells):
        bounds = [len(replicates) * j // workers for j in range(workers + 1)]
        jobs += [(i, worker, replicates[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    results: list = [[] for _ in cells]
    if len(jobs) == len(cells):
        for i, worker, chunk in jobs:
            results[i] += worker(chunk)
        return results
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [(i, pool.submit(worker, chunk)) for i, worker, chunk in jobs]
        for i, future in futures:
            results[i] += future.result()
    return results


def run_estimation_study(config: EstimationStudyConfig) -> EstimationStudyReport:
    """Sample -> censor -> fit -> intervals, replicated; aggregate relative
    MSE/bias per parameter and average length/coverage per interval method.

    A chunk of replications is fitted in one engine call, and the Wald
    variances of its converged fits take one more stacked pass; each
    converged fit's bootstrap refits resamples drawn at its own estimate.
    A replication that fails anywhere is excluded from every average and
    counted in ``failed_replications``. Hard failures (degenerate data,
    boundary estimates, singular information, bootstrap breakdown) above
    10% abort the study as a misconfiguration signal; a monotone profile is
    a documented no-MLE outcome and only excluded, since under 40%
    censoring it occurs at rates a sound study still has to absorb.
    """
    reps = config.replications
    root = np.random.SeedSequence(config.seed)
    worker = functools.partial(_estimation_chunk, config, root)
    (results,) = _run_chunks([(worker, range(reps))], config.workers)
    kept = [r for r in results if not isinstance(r, str)]
    failed = reps - len(kept)
    hard = failed - results.count(FitStatus.NO_MLE_MONOTONE_PROFILE.value)
    if hard > 0.10 * reps:
        raise EstimationError(
            f"{hard} of {reps} replications failed; study configuration "
            "looks unsound"
        )
    if not kept:
        raise EstimationError(
            f"all {reps} replications failed to produce an estimate"
        )

    estimates = np.asarray([r[0] for r in kept], dtype=np.float64)
    truth = (
        config.true_params.alpha0,
        config.true_params.alpha1,
        config.true_params.alpha2,
        config.true_params.lam,
    )
    truth_arr = np.asarray(truth)
    asym_stats = _interval_stats(
        [[r[1][name] for name in PARAM_NAMES] for r in kept], truth_arr
    )
    if config.bootstrap_B > 0:
        boot_stats = _interval_stats(
            [[r[2][name] for name in PARAM_NAMES] for r in kept], truth_arr
        )
    else:
        boot_stats = [None] * 4

    parameters = {}
    for j, name in enumerate(PARAM_NAMES):
        rel_mse, rel_bias = relative_metrics(estimates[:, j], truth[j])
        parameters[name] = ParameterSummary(
            relative_mse=rel_mse,
            relative_bias=rel_bias,
            asymptotic=asym_stats[j],
            bootstrap=boot_stats[j],
        )
    return EstimationStudyReport(
        config=config,
        parameters=parameters,
        replications_used=len(kept),
        failed_replications=failed,
    )


@dataclass(frozen=True)
class SelectionStudyConfig:
    """Model-selection study: data from ``parent_params`` at each n, each
    replication selecting among ``candidates``."""

    parent_params: BvfParams
    candidates: tuple[BaselineKind, ...]
    n_grid: tuple[int, ...]
    replications: int
    seed: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(
            self, "n_grid", tuple(_check_count("n", n) for n in self.n_grid)
        )
        for name in ("replications", "workers"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        if len(self.candidates) not in (2, 3):
            raise ValidationError("candidate set must have size 2 or 3")
        _check_candidates(self.candidates)
        if self.parent_params.kind not in self.candidates:
            raise ValidationError("parent kind must be among the candidates")
        if not self.n_grid or any(n < 10 for n in self.n_grid):
            raise ValidationError("n_grid must be non-empty with every n >= 10")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        _check_seed_and_workers(self)


@dataclass(frozen=True)
class SelectionStudyRow:
    n: int
    probabilities: dict[str, float]
    replications_used: int
    dropped: int


@dataclass(frozen=True)
class SelectionStudyReport:
    config: SelectionStudyConfig
    rows: tuple[SelectionStudyRow, ...]

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "study": "selection",
            "parent_params": cfg.parent_params.to_json_dict(),
            "candidates": [k.value for k in cfg.candidates],
            "replications": cfg.replications,
            "seed": cfg.seed,
            "rows": [
                {
                    "n": row.n,
                    "probabilities": dict(row.probabilities),
                    "replications_used": row.replications_used,
                    "dropped": row.dropped,
                }
                for row in self.rows
            ],
        }

    def to_csv_rows(self) -> list[dict]:
        out = []
        for row in self.rows:
            record = {"n": row.n}
            for kind in self.config.candidates:
                record[f"p_{kind.value.lower()}"] = row.probabilities[kind.value]
            record["dropped"] = row.dropped
            out.append(record)
        return out


def _selection_chunk(config: SelectionStudyConfig, n: int, root, replicates) -> list:
    """The kind each replication j of ``replicates`` selects, or None where
    it is dropped: what :func:`select_model` returns on
    ``from_bivariate(sample(parent, n, seed))``, seeded with child (j,) of
    ``root``, or None where that raises. All the chunk's seeds are hashed in
    one pass and its datasets drawn as one stack, and select_model's own
    path runs on it (:func:`_select_stack`); module-level so process pools
    can pickle it."""
    keys = np.asarray(replicates, dtype=np.uint64)[:, None]
    rows, t, delta, _ = _draw_stack(config.parent_params, n, _child_states(root, keys), None)
    chosen: list = [None] * len(replicates)
    for r, kind in zip(rows.tolist(), _select_stack(t, delta, config.candidates)):
        chosen[r] = kind
    return chosen


def run_selection_study(config: SelectionStudyConfig) -> SelectionStudyReport:
    """Empirical probability that each candidate is selected, per sample
    size; within a row the probabilities sum to 1 over the candidates.

    Each replication chooses by :func:`select_model`'s own path, run on a
    stack of the cell's datasets: one engine call per candidate kind and
    chunk, not one ``select_model`` call per dataset. A
    replication is dropped, and counted, where ``select_model`` would
    raise: its data are invalid, a candidate's fit ends in an error, or
    every candidate is excluded. More than 10% dropped at any n aborts the
    study as a misconfiguration signal."""
    reps = config.replications
    root = np.random.SeedSequence(config.seed)
    cells = [
        (functools.partial(_selection_chunk, config, n, root), range(i * reps, (i + 1) * reps))
        for i, n in enumerate(config.n_grid)
    ]
    rows = []
    for n, chosen in zip(config.n_grid, _run_chunks(cells, config.workers)):
        kept = [c for c in chosen if c is not None]
        dropped = reps - len(kept)
        if dropped > 0.10 * reps:
            raise EstimationError(
                f"{dropped} of {reps} replications dropped at n={n}; study "
                "configuration looks unsound"
            )
        total = len(kept) if kept else 1
        probabilities = {
            kind.value: sum(1 for c in kept if c is kind) / total
            for kind in config.candidates
        }
        rows.append(
            SelectionStudyRow(
                n=n,
                probabilities=probabilities,
                replications_used=len(kept),
                dropped=dropped,
            )
        )
    return SelectionStudyReport(config=config, rows=tuple(rows))
