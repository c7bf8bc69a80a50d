"""Monte Carlo harnesses: estimator performance and model selection.

Every replication's RNG stream is a fixed child of the study's one root
``SeedSequence``, named by its spawn key: replication i's data come from
key (i, 0) and its bootstrap resample b from key (i, 1, b) in an
estimation study; replication r at the c-th sample size of a selection
study has key (c * replications + r,). These are the children that
spawning the root (and spawning each child twice, for estimation) would
make, so a study is reproducible bit-for-bit under any worker count or
scheduling order. No child object is built: a part hashes all its rows'
seeds in one NumPy pass (:func:`_child_states`).

Both kinds of study split their replications into parts by one rule
(:func:`_run_chunks`): consecutive replication indices, at most as many
per part as fit in ``_CALL_RECORDS`` (65536) records, and at least as many
parts as workers. A part is a module-level chunk function bound to the
study's config and root by ``functools.partial``, applied to its indices.
An estimation part draws its datasets as one stack and fits it in one
engine call; it returns each replication's reason for having no result
(None where it has one) and one array of every replication's estimates
and Wald and bootstrap interval ends, which the study reduces by slices.
A selection part draws its datasets at every sample size of
the grid, one stack per size, and runs :func:`select_model`'s own path and
ranking rule on them, which fits every candidate kind at every size in one
engine call; there is no second selection rule for studies. So the
records alive in one engine call, and a study's memory, stay bounded
whatever the replications. With ``workers = 1``, or a single part, the
parts run in this process one after another; otherwise they share one
process pool.
"""

import functools
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
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
    _CONVERGED,
    _REASONS,
    PARAM_NAMES,
    FitStatus,
    _bootstrap_intervals,
    _draw_stack,
    _fit_stacks,
    _Stack,
    _variances_from_moments,
    _wald_intervals,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
)
from .selection import _check_candidates, _select_stacks, select_model  # noqa: F401

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
        if not isinstance(self.true_params, BvfParams):
            raise ValidationError(f"true_params must be a BvfParams, got {self.true_params!r}")
        for name in ("n", "replications", "bootstrap_B", "workers"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        if self.n < 10:
            raise ValidationError(f"n must be >= 10, got {self.n}")
        # replicate i and its resample b seed with spawn-key entries i and b,
        # which _child_states takes as one 32-bit word each
        if not 1 <= self.replications <= 2**32:
            raise ValidationError("replications must lie in [1, 2**32]")
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
        if not 0 <= self.bootstrap_B <= 2**32:
            raise ValidationError("bootstrap_B must lie in [0, 2**32]")
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
        return {
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
            "parameters": {
                name: asdict(summary) for name, summary in self.parameters.items()
            },
        }

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


def _interval_stats(ends: np.ndarray, truth: np.ndarray) -> list[IntervalSummary]:
    """Per parameter, the average length and coverage of the intervals
    whose lower and upper ends ``ends`` holds, shape (reps, 4, 2)."""
    lengths = ends[:, :, 1] - ends[:, :, 0]
    covered = (ends[:, :, 0] <= truth) & (truth <= ends[:, :, 1])
    return [
        IntervalSummary(
            avg_length=float(np.mean(lengths[:, j])),
            coverage=float(np.mean(covered[:, j])),
        )
        for j in range(4)
    ]


def _estimation_chunk(config: EstimationStudyConfig, root, replicates) -> tuple:
    """Per replication i of ``replicates``, with its data drawn from child
    (i, 0) of ``root`` and its bootstrap resample b from child (i, 1, b),
    what fit_mle, asymptotic_ci and bootstrap_ci give on its dataset alone.
    Returns ``(reasons, values)``: ``reasons`` holds per replication None
    when it has an estimate and every interval, else the reason it has
    none (a FitStatus value or an error class name); ``values`` is one
    (R, 4, 5) array holding per parameter, in ``PARAM_NAMES`` order, the
    estimate, the Wald lower and upper ends and the bootstrap lower and
    upper ends, NaN where there is none. The datasets are drawn as one
    stack and fitted in one engine call, into one array of draw and fit
    codes. The Wald variances of all converged rows come from the sums
    their last Newton pass kept at lambda-hat (no further pass over the
    stack), and each bootstrap's B seeds are hashed in one pass."""
    p, B, level = config.true_params, config.bootstrap_B, float(config.ci_level)
    c = censoring_threshold(p, config.censored_fraction) if config.censored_fraction else None
    index = np.asarray(replicates, dtype=np.uint64)
    data_keys = np.column_stack((index, np.zeros_like(index)))
    rows, t, delta, code = _draw_stack(p, config.n, _child_states(root, data_keys), c)
    stack = _Stack(p.kind, t, delta)
    (fits,) = _fit_stacks([stack])
    code[rows] = fits.code
    # the converged rows' reasons are replaced below
    reasons = [_REASONS[k] for k in code.tolist()]
    values = np.full((len(index), 4, 5), np.nan)
    conv = np.flatnonzero(fits.code == _CONVERGED)
    at, alphas = rows[conv], fits.alphas[:, conv]
    variances = _variances_from_moments(
        stack.counts[:, conv], alphas, fits.a1[conv], fits.a2[conv], fits.c2[conv]
    )
    values[at, :3, 0] = alphas.T
    values[at, 3, 0] = fits.lam[conv]
    values[at, :, 1:3] = _wald_intervals(values[at, :, 0], variances, level)
    resample = np.arange(B, dtype=np.uint64)
    for r, var in zip(at.tolist(), variances):
        if np.isnan(var).any():
            reasons[r] = SingularMatrixError.__name__
            continue
        if B:
            keys = np.column_stack((np.full(B, index[r]), np.ones_like(resample), resample))
            p_hat = BvfParams(p.kind, *values[r, :, 0].tolist())
            try:
                values[r, :, 3:] = _bootstrap_intervals(
                    p_hat, config.n, c, level, _child_states(root, keys)
                )[0]
            except BvfError as exc:
                reasons[r] = type(exc).__name__
                continue
        reasons[r] = None
    return reasons, values


# The most records a study part draws and fits in one engine call (over
# the whole grid of a selection study), unless one replicate alone holds
# more. Every stack over them is alive in that call, so a study of more
# replications than this allows is split into such parts: its memory then
# stays bounded whatever the replications.
_CALL_RECORDS = 1 << 16


def _run_chunks(worker, replicates: range, workers: int, per: int) -> list:
    """The one rule that splits a study into parts: ``worker`` applied to
    consecutive parts of the replicate indices ``replicates``, of about
    equal size and at most ``per`` replicates each, and no fewer parts than
    ``workers`` where there are that many replicates; returns the parts'
    results in order. The parts run here, one after another, with one
    worker or one part; otherwise one pool of as many processes as there
    are workers, or parts if fewer, maps them."""
    count = max(-(-len(replicates) // per), min(workers, len(replicates)))
    bounds = [len(replicates) * j // count for j in range(count + 1)]
    parts = [replicates[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1 or count == 1:
        return [worker(part) for part in parts]
    with ProcessPoolExecutor(max_workers=min(workers, count)) as pool:
        return list(pool.map(worker, parts))


def run_estimation_study(config: EstimationStudyConfig) -> EstimationStudyReport:
    """Sample -> censor -> fit -> intervals, replicated; aggregate relative
    MSE/bias per parameter and average length/coverage per interval method.

    The replications run in parts of at most ``_CALL_RECORDS`` records, by
    the rule selection studies share (:func:`_run_chunks`). A part's
    datasets are fitted in one engine call, which also gives the Wald
    variances of its converged fits at no further pass; each
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
    per = max(1, _CALL_RECORDS // config.n)
    reasons, values = zip(*_run_chunks(worker, range(reps), config.workers, per))
    reasons = [r for part in reasons for r in part]
    kept = np.concatenate(values)[[r is None for r in reasons]]
    failed = reps - len(kept)
    hard = failed - reasons.count(FitStatus.NO_MLE_MONOTONE_PROFILE.value)
    if hard > 0.10 * reps:
        raise EstimationError(
            f"{hard} of {reps} replications failed; study configuration "
            "looks unsound"
        )
    if not len(kept):
        raise EstimationError(
            f"all {reps} replications failed to produce an estimate"
        )

    p = config.true_params
    truth = np.array([p.alpha0, p.alpha1, p.alpha2, p.lam])
    asym_stats = _interval_stats(kept[:, :, 1:3], truth)
    boot_stats = _interval_stats(kept[:, :, 3:], truth) if config.bootstrap_B else [None] * 4
    parameters = {
        name: ParameterSummary(
            *relative_metrics(kept[:, j, 0], truth[j]), asym_stats[j], boot_stats[j]
        )
        for j, name in enumerate(PARAM_NAMES)
    }
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
        if not isinstance(self.parent_params, BvfParams):
            raise ValidationError(f"parent_params must be a BvfParams, got {self.parent_params!r}")
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
        # replicate i at the k-th n seeds with the spawn-key entry
        # k * replications + i, one 32-bit word in _child_states
        if self.replications * len(self.n_grid) > 2**32:
            raise ValidationError("replications * len(n_grid) must be <= 2**32")
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
            "rows": [asdict(row) for row in self.rows],
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


def _selection_chunk(config: SelectionStudyConfig, root, replicates) -> np.ndarray:
    """Per replication j of ``replicates`` (a row) and n of the grid (a
    column, in grid order), the index among the candidates in kind order of
    the one it selects: at the c-th n, what :func:`select_model` chooses on
    ``from_bivariate(sample(parent, n, seed))``, seeded with child
    (c * replications + j,) of ``root``, or -1 where that raises. All their
    seeds at every n are hashed in one pass, their datasets at each n drawn
    as one stack, and select_model's own path fits every candidate on the
    stacks of every n in one engine call (:func:`_select_stacks`);
    module-level so process pools can pickle it."""
    index = np.asarray(replicates, dtype=np.uint64)
    grid = np.arange(len(config.n_grid), dtype=np.uint64)[:, None]
    keys = grid * config.replications + index
    states = _child_states(root, keys.reshape(-1, 1)).reshape(*keys.shape, 4)
    draws = [
        _draw_stack(config.parent_params, n, states[c], None)
        for c, n in enumerate(config.n_grid)
    ]
    picks = _select_stacks([(t, delta) for _, t, delta, _ in draws], config.candidates)
    chosen = np.full((len(replicates), len(draws)), -1)
    for c, ((rows, *_), pick) in enumerate(zip(draws, picks)):
        chosen[rows, c] = pick
    return chosen


def run_selection_study(config: SelectionStudyConfig) -> SelectionStudyReport:
    """Empirical probability that each candidate is selected, per sample
    size; within a row the probabilities sum to 1 over the candidates.

    Each replication chooses by :func:`select_model`'s own path and ranking
    rule, run on stacks of the study's datasets: the replications run in
    parts of at most ``_CALL_RECORDS`` records over the grid, by the rule
    estimation studies share (:func:`_run_chunks`), and a part draws its
    datasets at every n and fits every candidate kind at every n in one
    engine call, not one ``select_model`` call per dataset. A replication
    is dropped at an n, and counted, where ``select_model`` would raise:
    its data are invalid, a candidate's fit ends in an error, or every
    candidate is excluded. One ``np.bincount`` per n counts the dropped
    replications and each kind's choices. More than 10% dropped at any n
    aborts the study as a misconfiguration signal."""
    reps = config.replications
    root = np.random.SeedSequence(config.seed)
    worker = functools.partial(_selection_chunk, config, root)
    per = max(1, _CALL_RECORDS // sum(config.n_grid))
    chosen = np.concatenate(_run_chunks(worker, range(reps), config.workers, per))
    kinds = sorted(config.candidates, key=lambda k: k.order)
    rows = []
    for i, n in enumerate(config.n_grid):
        # count 0 is of the dropped replications, count k + 1 of kind k's
        dropped, *counts = np.bincount(chosen[:, i] + 1, minlength=len(kinds) + 1).tolist()
        if dropped > 0.10 * reps:
            raise EstimationError(
                f"{dropped} of {reps} replications dropped at n={n}; study "
                "configuration looks unsound"
            )
        kept = reps - dropped
        selected = dict(zip(kinds, counts))
        probabilities = {
            kind.value: selected[kind] / (kept or 1) for kind in config.candidates
        }
        rows.append(
            SelectionStudyRow(
                n=n,
                probabilities=probabilities,
                replications_used=kept,
                dropped=dropped,
            )
        )
    return SelectionStudyReport(config=config, rows=tuple(rows))
