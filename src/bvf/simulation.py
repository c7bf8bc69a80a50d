"""Monte Carlo harnesses: estimator performance and model selection.

Both studies draw replication RNG streams up front from one seed
(SeedSequence spawning), so a study is reproducible bit-for-bit under any
worker count or scheduling order. A work item is a contiguous chunk of
replications: a module-level chunk function bound to the study's config
(and, for selection, the sample size) by ``functools.partial``, applied to
the chunk's streams. An estimation chunk runs its replications one by one;
a selection chunk draws all its datasets as one stack and fits each
candidate kind on the whole stack in one engine call. With ``workers = 1``
each cell is one chunk, run in this process; with ``workers > 1`` each cell
is split into that many chunks, and the chunks of all of a study's cells
run in one process pool.
"""

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import BaselineKind
from .bvf_model import (
    BvfParams,
    _check_count,
    _seed_sequence,
    censoring_threshold,
    sample,
)
from .data_model import from_bivariate
from .errors import (
    BvfError,
    DomainError,
    EstimationError,
    ValidationError,
)
from .inference import (
    PARAM_NAMES,
    FitStatus,
    _draw_stack,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
)
# select_model is not called here (studies select in stacks), but stays a
# name of this module: perfbench's tracer rebinds it in every namespace
# that held it
from .selection import _select_stack, select_model  # noqa: F401

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
        if not (0.0 <= self.censored_fraction < 1.0):
            raise ValidationError("censored_fraction must lie in [0, 1)")
        if not (0.0 < self.ci_level < 1.0):
            raise ValidationError("ci_level must lie in (0, 1)")
        if self.bootstrap_B < 0:
            raise ValidationError("bootstrap_B must be >= 0")
        # reports echo the seed as a JSON integer
        if isinstance(self.seed, np.random.SeedSequence):
            raise ValidationError("seed must be None or an integer >= 0")
        _seed_sequence(self.seed)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


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


def _estimation_replicate(config: EstimationStudyConfig, child):
    """One replication: None if it failed, "no_mle" if its fit found no MLE,
    else its estimate and its interval dicts."""
    true_params = config.true_params
    streams = child.spawn(2)
    try:
        pairs = sample(true_params, config.n, np.random.default_rng(streams[0]))
        c = (
            censoring_threshold(true_params, config.censored_fraction)
            if config.censored_fraction > 0.0
            else None
        )
        data = from_bivariate(pairs, c)
        fit = fit_mle(data, true_params.kind)
        if fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE:
            # Documented non-existence: heavy censoring routinely pushes the
            # shape profile onto its boundary. Excluded from averages but not
            # read as misconfiguration.
            return "no_mle"
        if fit.status is not FitStatus.CONVERGED:
            return None
        q = fit.params_hat
        estimate = (q.alpha0, q.alpha1, q.alpha2, q.lam)
        asym = asymptotic_ci(fit, data, config.ci_level)
        boot = (
            bootstrap_ci(
                fit, data, B=config.bootstrap_B, level=config.ci_level, seed=streams[1]
            )
            if config.bootstrap_B > 0
            else None
        )
    except BvfError:
        return None
    return estimate, asym.intervals, None if boot is None else boot.intervals


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


def _estimation_chunk(config: EstimationStudyConfig, children) -> list:
    """The replications of ``children``, one by one; module-level so
    process pools can pickle it."""
    return [_estimation_replicate(config, child) for child in children]


def _run_chunks(cells, workers: int) -> list:
    """For each cell of a study, a (worker, streams) pair, ``worker``
    applied to ``workers`` contiguous chunks of the cell's streams; returns
    each cell's per-replication results, concatenated in order. When every
    cell is one chunk they run in this process; otherwise all chunks of
    all cells share one process pool."""
    jobs = []
    for i, (worker, children) in enumerate(cells):
        bounds = [len(children) * j // workers for j in range(workers + 1)]
        jobs += [(i, worker, children[lo:hi]) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
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

    A replication that fails anywhere is excluded from every average and
    counted in ``failed_replications``. Hard failures (degenerate data,
    boundary estimates, singular information, bootstrap breakdown) above 10%
    abort the study as a misconfiguration signal; a monotone profile is a
    documented no-MLE outcome and only excluded, since under 40% censoring
    it occurs at rates a sound study still has to absorb.
    """
    reps = config.replications
    children = np.random.SeedSequence(config.seed).spawn(reps)
    worker = functools.partial(_estimation_chunk, config)
    (results,) = _run_chunks([(worker, children)], config.workers)
    kept = [r for r in results if r is not None and r != "no_mle"]
    failed = reps - len(kept)
    hard = failed - sum(1 for r in results if r == "no_mle")
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
        if len(set(self.candidates)) != len(self.candidates):
            raise ValidationError("candidate kinds must be distinct")
        if self.parent_params.kind not in self.candidates:
            raise ValidationError("parent kind must be among the candidates")
        if not self.n_grid or any(n < 10 for n in self.n_grid):
            raise ValidationError("n_grid must be non-empty with every n >= 10")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        # reports echo the seed as a JSON integer
        if isinstance(self.seed, np.random.SeedSequence):
            raise ValidationError("seed must be None or an integer >= 0")
        _seed_sequence(self.seed)
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")


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


def _selection_chunk(config: SelectionStudyConfig, n: int, children) -> list:
    """The kind each replication of ``children`` selects, or None where it
    is dropped: what ``select_model(from_bivariate(sample(parent, n,
    default_rng(child))), candidates)`` returns, or None where that raises.
    All the chunk's datasets are drawn as one stack and each candidate kind
    is fitted on it in one engine call; module-level so process pools can
    pickle it."""
    t, delta, failures = _draw_stack(config.parent_params, n, children, None)
    ok = np.flatnonzero([f is None for f in failures])
    chosen: list = [None] * len(children)
    if ok.size:
        for r, kind in zip(ok.tolist(), _select_stack(t[ok], delta[ok], config.candidates)):
            chosen[r] = kind
    return chosen


def run_selection_study(config: SelectionStudyConfig) -> SelectionStudyReport:
    """Empirical probability that each candidate is selected, per sample
    size; within a row the probabilities sum to 1 over the candidates.

    Each replication chooses as :func:`select_model` would on its dataset,
    but a cell's datasets are fitted as stacks, one engine call per
    candidate kind and chunk, not one ``select_model`` call per dataset. A
    replication is dropped, and counted, where ``select_model`` would
    raise: its data are invalid, a candidate's fit ends in an error, or
    every candidate is excluded. More than 10% dropped at any n aborts the
    study as a misconfiguration signal."""
    reps = config.replications
    children = np.random.SeedSequence(config.seed).spawn(reps * len(config.n_grid))
    cells = [
        (functools.partial(_selection_chunk, config, n), children[i * reps : (i + 1) * reps])
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
