"""The benchmark's workloads: inputs from a seed, timed passes, output checks
and reference values.

Every workload runs closed loop, one unit at a time, in this process
(``workers=1``). A pass is a fixed amount of work that a user would run as
one piece; the benchmark repeats passes, each with inputs derived from the
workload seed and the pass index, until its time is up. Package functions
are always looked up through their module (``simulation.run_...``,
``inference.fit_mle``) so that a traced run sees the rebound names.
"""

import contextlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from bvf import bvf_model, data_model, inference, selection, simulation
from bvf.baselines import BaselineKind
from bvf.bvf_model import BvfParams
from bvf.errors import BvfError

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX

# the paper's caption parameters, one parent per baseline kind
CAPTION = {
    W: BvfParams(W, 1.34, 1.17, 0.86, 0.91),
    G: BvfParams(G, 1.13, 0.96, 0.79, 1.05),
    L: BvfParams(L, 0.85, 0.57, 0.74, 0.69),
}
CANDIDATES = (W, G, L)

# entropy words that keep warm-up and reference inputs apart from pass inputs
WARM_UP = 1 << 30
REFERENCE_SEED = 2206_09138

# interior-maximum test of the profile (relative step around lambda-hat)
PROFILE_STEP = 1e-4
ALPHA_RTOL = 1e-12
PROBABILITY_ATOL = 1e-12


def sub_seed(*entropy: int) -> int:
    """An independent 32-bit seed for the given integer path."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


@dataclass
class PassResult:
    """Outcome of one pass.

    ``failed`` counts units that raised, returned no usable estimate or
    failed the output check; ``problems`` describes every raise and check
    failure (any problem makes the run incorrect). ``unit_ms`` holds the
    time of each unit the benchmark timed on its own; where a study harness
    drives the units it stays empty, and the pass time per unit stands in.
    """

    units: int = 0
    failed: int = 0
    wall_s: float = 0.0
    unit_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _finite_nonneg(x) -> bool:
    return x is not None and math.isfinite(x) and x >= 0.0


def _is_count(share: float, total: int) -> bool:
    return abs(share * total - round(share * total)) <= 1e-9 * max(1, total)


def check_estimation_report(report, B: int) -> list:
    """Invariants of one estimation-study report."""
    cfg = report.config
    out = []
    if report.replications_used + report.failed_replications != cfg.replications:
        out.append(
            f"replications_used {report.replications_used} + failed "
            f"{report.failed_replications} != replications {cfg.replications}"
        )
    used = report.replications_used
    for name, summary in report.parameters.items():
        if not (_finite_nonneg(summary.relative_mse) and math.isfinite(summary.relative_bias)):
            out.append(f"{name}: relative MSE/bias not finite")
        methods = [("asymptotic", summary.asymptotic)]
        if B > 0:
            methods.append(("bootstrap", summary.bootstrap))
        for method, ci in methods:
            if ci is None:
                out.append(f"{name}: {method} summary missing")
                continue
            if not (_finite_nonneg(ci.avg_length) and ci.avg_length > 0.0):
                out.append(f"{name}: {method} average length {ci.avg_length!r}")
            if not (0.0 <= ci.coverage <= 1.0 and _is_count(ci.coverage, used)):
                out.append(f"{name}: {method} coverage {ci.coverage!r} of {used}")
    return out


def check_selection_report(report) -> list:
    """Invariants of one selection-study report, row by row."""
    reps = report.config.replications
    out = []
    for row in report.rows:
        if row.replications_used + row.dropped != reps:
            out.append(
                f"n={row.n}: used {row.replications_used} + dropped "
                f"{row.dropped} != replications {reps}"
            )
        probs = list(row.probabilities.values())
        if row.replications_used and abs(sum(probs) - 1.0) > PROBABILITY_ATOL:
            out.append(f"n={row.n}: probabilities sum to {sum(probs)!r}")
        if not all(0.0 <= p <= 1.0 and _is_count(p, row.replications_used) for p in probs):
            out.append(f"n={row.n}: probabilities {probs!r} are not shares of "
                       f"{row.replications_used} replicates")
    return out


def check_fit_and_ci(fit, ci, data) -> list:
    """Invariants of one converged fit and its asymptotic intervals."""
    p = fit.params_hat
    lam = p.lam
    out = []
    p_hat = inference.profile_loglik(lam, data, fit.kind)
    for lam_near in (lam * (1.0 - PROFILE_STEP), lam * (1.0 + PROFILE_STEP)):
        p_near = inference.profile_loglik(lam_near, data, fit.kind)
        if p_near > p_hat:
            out.append(f"profile at {lam_near!r} ({p_near!r}) above lambda-hat ({p_hat!r})")
    expected = inference.alphas_given_lambda(lam, data, fit.kind)
    for name, got, want in zip(("alpha0", "alpha1", "alpha2"), (p.alpha0, p.alpha1, p.alpha2), expected):
        if not math.isclose(got, want, rel_tol=ALPHA_RTOL):
            out.append(f"{name} {got!r} != alphas_given_lambda {want!r}")
    for name, value in zip(inference.PARAM_NAMES, (p.alpha0, p.alpha1, p.alpha2, lam)):
        lo, hi = ci.intervals[name]
        if not lo <= value <= hi:
            out.append(f"{name} estimate {value!r} outside its interval [{lo!r}, {hi!r}]")
    return out


def flatness_gap(fit, data) -> float:
    """Relative gap between the profile at lambda-hat and at the nearer-valued
    end of the search bracket: the quantity ``fit_mle``'s flatness guard
    compares against its threshold before declaring a monotone profile."""
    p_hat = inference.profile_loglik(fit.params_hat.lam, data, fit.kind)
    ends = [inference.profile_loglik(x, data, fit.kind) for x in inference.FitOptions().bracket]
    return (p_hat - max(ends)) / (1.0 + abs(p_hat))


def _min_or_none(values):
    finite = [v for v in values if math.isfinite(v)]
    return min(finite) if finite else None


class Workload:
    """Interface: ``prepare`` builds inputs from the seed, ``warm_up`` runs
    one unit on separate inputs, ``run_pass`` runs pass ``i`` with checks
    under ``guard`` (which lifts tracing), and ``reference`` returns values,
    decision margins and problems for the fixed reference inputs."""

    name = ""
    nominal_pass_s = 1.0  # baseline pass time, sizes the traced run
    # host probe that tracks this workload's speed: "interp" where per-call
    # interpreter work dominates, "vector" where the kernel's array sums do
    probe = "interp"

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def warm_up(self) -> list:
        raise NotImplementedError

    def run_pass(self, i: int, guard=contextlib.nullcontext) -> PassResult:
        raise NotImplementedError

    def reference(self) -> tuple[dict, dict, list]:
        raise NotImplementedError


class BootStudy(Workload):
    """Estimation study on the Weibull caption parameters with bootstrap
    intervals: the shape of acceptance criterion 5, scaled down."""

    name = "boot-study"
    nominal_pass_s = 0.2

    def __init__(self, replications=2, B=100, n=400):
        self.replications = replications
        self.B = B
        self.n = n

    def _config(self, replications, seed):
        return simulation.EstimationStudyConfig(
            true_params=CAPTION[W],
            n=self.n,
            replications=replications,
            bootstrap_B=self.B,
            seed=seed,
            workers=1,
        )

    def _study(self, replications, seed, guard):
        cfg = self._config(replications, seed)
        t0 = time.perf_counter()
        try:
            report = simulation.run_estimation_study(cfg)
        except BvfError as exc:
            wall = time.perf_counter() - t0
            return None, wall, [f"seed {seed}: {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        with guard():
            problems = check_estimation_report(report, self.B)
        return report, wall, problems

    def warm_up(self):
        return self._study(1, sub_seed(self.seed, WARM_UP), contextlib.nullcontext)[2]

    def run_pass(self, i, guard=contextlib.nullcontext):
        reps = self.replications
        report, wall, problems = self._study(reps, sub_seed(self.seed, i), guard)
        if report is None or problems:
            failed = reps
        else:
            failed = report.failed_replications
        return PassResult(reps, failed, wall, problems=problems)

    def reference(self):
        report, _, problems = self._study(3, REFERENCE_SEED, contextlib.nullcontext)
        values = {}
        if report is not None:
            used = report.replications_used
            values["replications_used"] = used
            values["failed_replications"] = report.failed_replications
            for name, s in report.parameters.items():
                values[f"{name}.relative_mse"] = s.relative_mse
                values[f"{name}.relative_bias"] = s.relative_bias
                for method, ci in (("asymptotic", s.asymptotic), ("bootstrap", s.bootstrap)):
                    values[f"{name}.{method}.avg_length"] = ci.avg_length
                    values[f"{name}.{method}.covered"] = round(ci.coverage * used)
        return values, {}, problems


class SelectStudy(Workload):
    """Selection studies among all three kinds for each caption parent: the
    shape of acceptance criterion 8. No intervals are computed."""

    name = "select-study"
    nominal_pass_s = 0.2

    reference_datasets = 4  # per parent and n

    def __init__(self, replications=10, n_grid=(50, 150, 300)):
        self.replications = replications
        self.n_grid = tuple(n_grid)

    def _study(self, parent, replications, seed, guard):
        cfg = simulation.SelectionStudyConfig(
            parent_params=parent,
            candidates=CANDIDATES,
            n_grid=self.n_grid,
            replications=replications,
            seed=seed,
            workers=1,
        )
        t0 = time.perf_counter()
        try:
            report = simulation.run_selection_study(cfg)
        except BvfError as exc:
            wall = time.perf_counter() - t0
            return None, wall, [f"seed {seed}: {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - t0
        with guard():
            problems = check_selection_report(report)
        return report, wall, problems

    def warm_up(self):
        problems = []
        for j, parent in enumerate(CAPTION.values()):
            problems += self._study(parent, 1, sub_seed(self.seed, WARM_UP, j), contextlib.nullcontext)[2]
        return problems

    def run_pass(self, i, guard=contextlib.nullcontext):
        result = PassResult()
        per_call = self.replications * len(self.n_grid)
        for j, parent in enumerate(CAPTION.values()):
            report, wall, problems = self._study(
                parent, self.replications, sub_seed(self.seed, i, j), guard
            )
            result.units += per_call
            if report is None or problems:
                result.failed += per_call
            else:
                result.failed += sum(row.dropped for row in report.rows)
            result.wall_s += wall
            result.problems += problems
        return result

    def reference(self):
        values, problems = {}, []
        top_gaps, flat_gaps = {}, []
        for j, (kind, parent) in enumerate(CAPTION.items()):
            tag = kind.value.lower()
            report, _, study_problems = self._study(parent, 5, sub_seed(REFERENCE_SEED, j), contextlib.nullcontext)
            problems += study_problems
            for row in report.rows if report is not None else ():
                values[f"study.{tag}.n{row.n}.dropped"] = row.dropped
                for name, share in row.probabilities.items():
                    values[f"study.{tag}.n{row.n}.chosen.{name.lower()}"] = round(
                        share * row.replications_used
                    )
            for n in self.n_grid:
                for k in range(self.reference_datasets):
                    key = f"{tag}.n{n}.{k}"
                    pairs = bvf_model.sample(parent, n, np.random.default_rng(sub_seed(REFERENCE_SEED, j, n, k)))
                    data = data_model.from_bivariate(pairs)
                    try:
                        result = selection.select_model(data, CANDIDATES)
                    except BvfError as exc:
                        problems.append(f"{key}: {type(exc).__name__}: {exc}")
                        continue
                    values[f"{key}.chosen"] = result.chosen.value
                    values[f"{key}.excluded"] = ",".join(c.value for c, _ in result.excluded)
                    for cand, fit in result.ranked:
                        values[f"{key}.loglik.{cand.value.lower()}"] = fit.loglik_max
                        values[f"{key}.lambda.{cand.value.lower()}"] = fit.params_hat.lam
                        flat_gaps.append(flatness_gap(fit, data))
                    if len(result.ranked) > 1:
                        top_gaps[key] = result.ranked[0][1].loglik_max - result.ranked[1][1].loglik_max
        margins = {"flatness_rel_gap_min": _min_or_none(flat_gaps)}
        if top_gaps:
            closest = min(top_gaps, key=top_gaps.get)
            margins["top_two_loglik_gap_min"] = top_gaps[closest]
            margins["top_two_loglik_gap_dataset"] = closest
        return values, margins, problems


class LargeNFit(Workload):
    """Single fits plus asymptotic intervals on large datasets of every kind,
    complete and Type-I censored, generated in set-up. A pass is one sweep
    over the pool; each unit wraps the pool arrays in a new
    ``CompetingRisksData``, so every timed fit pays the per-dataset
    workspace build as a user's first fit does."""

    name = "large-n-fit"
    nominal_pass_s = 0.6
    probe = "vector"
    censored_fraction = 0.3
    separate_n = 20000  # warm-up and reference datasets

    def __init__(self, sizes=(20000, 50000), per_combo=4):
        self.sizes = tuple(sizes)
        self.per_combo = per_combo

    def _dataset(self, kind, censored, n, seed):
        parent = CAPTION[kind]
        c = bvf_model.censoring_threshold(parent, self.censored_fraction) if censored else None
        pairs = bvf_model.sample(parent, n, np.random.default_rng(seed))
        return data_model.from_bivariate(pairs, c)

    def _combos(self):
        return [(kind, censored, n) for n in self.sizes for censored in (False, True) for kind in CANDIDATES]

    def prepare(self, seed):
        super().prepare(seed)
        self.pool = None  # release the previous pool before drawing a new one
        pool = []
        for j, (kind, censored, n) in enumerate(self._combos() * self.per_combo):
            data = self._dataset(kind, censored, n, sub_seed(seed, j))
            pool.append((kind, data.t, data.delta, data.censoring_time))
        self.pool = pool
        self.first_outputs = [None] * len(pool)

    def _unit(self, kind, data, guard):
        """Time fit_mle then asymptotic_ci on ``data``; returns (fit, ci,
        seconds, problems), with fit and ci None if either call raised."""
        t0 = time.perf_counter()
        try:
            fit = inference.fit_mle(data, kind)
            ci = inference.asymptotic_ci(fit, data)
        except BvfError as exc:
            return None, None, time.perf_counter() - t0, [f"{kind.value} n={data.n}: {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
        with guard():
            problems = [f"{kind.value} n={data.n}: {p}" for p in check_fit_and_ci(fit, ci, data)]
        return fit, ci, seconds, problems

    def warm_up(self):
        problems = []
        for k, kind in enumerate(CANDIDATES):
            data = self._dataset(kind, False, self.separate_n, sub_seed(self.seed, WARM_UP, k))
            problems += self._unit(kind, data, contextlib.nullcontext)[3]
        return problems

    def run_pass(self, i, guard=contextlib.nullcontext):
        result = PassResult()
        for j, (kind, t, delta, c) in enumerate(self.pool):
            data = data_model.CompetingRisksData(t, delta, c)
            fit, ci, seconds, problems = self._unit(kind, data, guard)
            result.units += 1
            result.wall_s += seconds
            result.unit_ms.append(seconds * 1e3)
            if fit is not None:
                # every sweep fits the same arrays: outputs must repeat bit for bit
                output = (fit.status, fit.params_hat, fit.loglik_max, ci.intervals)
                if self.first_outputs[j] is None:
                    self.first_outputs[j] = output
                elif output != self.first_outputs[j]:
                    problems.append(f"pool dataset {j}: refit on a new object gave different outputs")
            if fit is None or problems:
                result.failed += 1
            result.problems += problems
        return result

    def reference(self):
        values, problems, flat_gaps = {}, [], []
        combos = [(kind, censored) for censored in (False, True) for kind in CANDIDATES]
        for j, (kind, censored) in enumerate(combos):
            key = f"{kind.value.lower()}.{'censored' if censored else 'complete'}"
            data = self._dataset(kind, censored, self.separate_n, sub_seed(REFERENCE_SEED, j))
            fit, ci, _, unit_problems = self._unit(kind, data, contextlib.nullcontext)
            problems += unit_problems
            if fit is None:
                continue
            values[f"{key}.status"] = fit.status.value
            p = fit.params_hat
            for name, value in zip(inference.PARAM_NAMES, (p.alpha0, p.alpha1, p.alpha2, p.lam)):
                values[f"{key}.{name}"] = value
                values[f"{key}.{name}.ci_lo"], values[f"{key}.{name}.ci_hi"] = ci.intervals[name]
            values[f"{key}.loglik"] = fit.loglik_max
            flat_gaps.append(flatness_gap(fit, data))
        return values, {"flatness_rel_gap_min": _min_or_none(flat_gaps)}, problems


WORKLOADS = {w.name: w for w in (BootStudy, SelectStudy, LargeNFit)}
