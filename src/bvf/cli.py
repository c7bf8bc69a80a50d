"""Command-line front-end.

Subcommands: generate, fit, ci, select, sim-estimate, sim-select,
profile-curve, density-grid, km-compare. JSON reports go to stdout unless
``--out`` redirects them; CSV emitters behave the same. Exit codes: 0
success, 1 validation/usage error, 2 numerical failure (no MLE, singular
information, bootstrap breakdown). Stochastic subcommands require --seed.
"""

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from ._km import kaplan_meier, km_survival_at
from .baselines import BaselineKind, log_s0, s0_inv
from .bvf_model import BvfParams, _seed_sequence, censoring_threshold, jpdf_ac, sample
from .data_model import FailureMode, _csv_text, from_bivariate, load_csv
from .errors import BvfError, DomainError, EstimationError, ValidationError
from .inference import (
    FitStatus,
    _check_bootstrap,
    _check_level,
    asymptotic_ci,
    bootstrap_ci,
    fit_mle,
    profile_loglik,
)
from .selection import select_model
from .simulation import (
    EstimationStudyConfig,
    SelectionStudyConfig,
    run_estimation_study,
    run_selection_study,
)

__all__ = ["main"]

_KIND_CHOICES = ("weibull", "gompertz", "lomax")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the documented validation code is 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: Optional[str]) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _emit_csv(header: Sequence[str], rows, out_path: Optional[str]) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", out_path)


def _emit_table(report, out_path: Optional[str]) -> None:
    """Write a study report's per-row table as CSV, if a path is given."""
    if out_path:
        rows = report.to_csv_rows()
        header = list(rows[0].keys())
        _emit_csv(header, [[r[k] for k in header] for r in rows], out_path)


def _params_from_args(args) -> BvfParams:
    return BvfParams(
        kind=BaselineKind.parse(args.kind),
        alpha0=args.alpha0,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        lam=args.lam,
    )


def _add_param_flags(parser):
    parser.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    parser.add_argument("--alpha0", type=float, required=True)
    parser.add_argument("--alpha1", type=float, required=True)
    parser.add_argument("--alpha2", type=float, required=True)
    parser.add_argument("--lambda", dest="lam", type=float, required=True)


def cmd_generate(args) -> int:
    params = _params_from_args(args)
    if args.n < 1:
        raise ValidationError(f"--n must be >= 1, got {args.n}")
    if not (0.0 <= args.censor_frac < 1.0):
        raise ValidationError(f"--censor-frac must lie in [0, 1), got {args.censor_frac}")
    pairs = sample(params, args.n, args.seed)
    censoring = None
    if args.censor_frac > 0.0:
        censoring = censoring_threshold(params, args.censor_frac)
    data = from_bivariate(pairs, censoring)
    counts_line = (
        f"n={data.n} m0={data.m0} m1={data.m1} m2={data.m2} m3={data.m3}\n"
    )
    _emit(_csv_text(data), args.out)
    (sys.stdout if args.out else sys.stderr).write(counts_line)
    return 0


def cmd_fit(args) -> int:
    data = load_csv(args.data)
    kind = BaselineKind.parse(args.kind)
    fit = fit_mle(data, kind)
    _emit_json(fit.to_json_dict(), args.out)
    if fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE:
        sys.stderr.write("bvf: no MLE: profile log-likelihood is monotone\n")
        return 2
    return 0


def cmd_ci(args) -> int:
    # the interval options are checked before the data are read and fitted,
    # in the order the interval functions check them
    if args.method == "asymptotic":
        _check_level(args.level)
    elif args.seed is None:
        raise ValidationError("--seed is required for bootstrap intervals")
    else:
        _check_bootstrap(args.boot_B, args.level)
        _seed_sequence(args.seed)
    data = load_csv(args.data)
    kind = BaselineKind.parse(args.kind)
    fit = fit_mle(data, kind)
    if fit.status is not FitStatus.CONVERGED:
        _emit_json({"fit": fit.to_json_dict()}, args.out)
        sys.stderr.write(
            f"bvf: intervals unavailable: fit status {fit.status.value}\n"
        )
        return 2
    if args.method == "asymptotic":
        ci = asymptotic_ci(fit, data, args.level)
    else:
        ci = bootstrap_ci(fit, data, B=args.boot_B, level=args.level, seed=args.seed)
    out = ci.to_json_dict()
    out["fit"] = fit.to_json_dict()
    _emit_json(out, args.out)
    return 0


def cmd_select(args) -> int:
    data = load_csv(args.data)
    kinds = [BaselineKind.parse(k) for k in args.candidates.split(",") if k.strip()]
    result = select_model(data, kinds)
    _emit_json(result.to_json_dict(), args.out)
    return 0


def cmd_sim_estimate(args) -> int:
    config = EstimationStudyConfig(
        true_params=_params_from_args(args),
        n=args.n,
        replications=args.reps,
        censored_fraction=args.censor_frac,
        ci_level=args.level,
        bootstrap_B=args.boot_B,
        seed=args.seed,
        workers=args.workers,
    )
    report = run_estimation_study(config)
    _emit_json(report.to_json_dict(), args.out)
    _emit_table(report, args.table_out)
    return 0


def cmd_sim_select(args) -> int:
    kinds = [BaselineKind.parse(k) for k in args.candidates.split(",") if k.strip()]
    try:
        n_grid = [int(v) for v in str(args.n).split(",") if v.strip()]
    except ValueError:
        raise ValidationError(
            f"--n must be comma-separated integers, got {args.n!r}"
        ) from None
    config = SelectionStudyConfig(
        parent_params=_params_from_args(args),
        candidates=tuple(kinds),
        n_grid=tuple(n_grid),
        replications=args.reps,
        seed=args.seed,
        workers=args.workers,
    )
    report = run_selection_study(config)
    _emit_json(report.to_json_dict(), args.out)
    _emit_table(report, args.table_out)
    return 0


def cmd_profile_curve(args) -> int:
    data = load_csv(args.data)
    kind = BaselineKind.parse(args.kind)
    if not (0.0 < args.lambda_min < args.lambda_max):
        raise ValidationError("need 0 < --lambda-min < --lambda-max")
    if args.points < 2:
        raise ValidationError("--points must be >= 2")
    grid = np.geomspace(args.lambda_min, args.lambda_max, args.points)
    rows = [(lam, profile_loglik(lam, data, kind)) for lam in grid]
    _emit_csv(("lambda", "profile_loglik"), rows, args.out)
    return 0


def _axis_max(given, params: BvfParams, rate: float, axis: str) -> float:
    """The bound ``given`` for the ``axis`` coordinate, else the time it
    outlives with probability 0.005, its rates summing to ``rate``. With
    rate 0 it never fails, and its bound must be given."""
    if given is not None:
        return given
    if rate == 0.0:
        raise ValidationError(f"{axis} never fails (its rates sum to 0); give --{axis}-max")
    return s0_inv(params.kind, 0.005 ** (1.0 / rate), params.lam)


def cmd_density_grid(args) -> int:
    params = _params_from_args(args)
    if args.grid_n < 2:
        raise ValidationError("--grid-n must be >= 2")
    x_max = _axis_max(args.x_max, params, params.alpha0 + params.alpha1, "x")
    y_max = _axis_max(args.y_max, params, params.alpha0 + params.alpha2, "y")
    xs = np.linspace(x_max / args.grid_n, x_max, args.grid_n)
    ys = np.linspace(y_max / args.grid_n, y_max, args.grid_n)
    rows = []
    for x in xs:
        for y in ys:
            density = math.nan if x == y else jpdf_ac(params, float(x), float(y))
            rows.append((float(x), float(y), density))
    _emit_csv(("x", "y", "density"), rows, args.out)
    return 0


def cmd_km_compare(args) -> int:
    if args.grid_points < 1:
        raise ValidationError("--grid-points must be >= 1")
    data = load_csv(args.data)
    explicit = [args.alpha0, args.alpha1, args.alpha2, args.lam]
    if all(v is not None for v in explicit):
        params = _params_from_args(args)
    elif any(v is not None for v in explicit):
        raise ValidationError(
            "give all of --alpha0/--alpha1/--alpha2/--lambda or none (to fit)"
        )
    else:
        fit = fit_mle(data, BaselineKind.parse(args.kind))
        if fit.status is FitStatus.NO_MLE_MONOTONE_PROFILE:
            raise EstimationError("no MLE for the requested kind; supply parameters")
        params = fit.params_hat
    events = data.delta != FailureMode.CENSORED
    event_times, km = kaplan_meier(data.t, events)
    t_max = float(data.t.max())
    grid = np.union1d(event_times, np.linspace(t_max / args.grid_points, t_max, args.grid_points))
    km_vals = km_survival_at(grid, event_times, km)
    total = params.alpha_sum()
    model_vals = [math.exp(total * log_s0(params.kind, float(t), params.lam)) for t in grid]
    rows = list(zip(grid.tolist(), km_vals.tolist(), model_vals))
    _emit_csv(("t", "km_survival", "model_survival"), rows, args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bvf", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample competing-risks data to CSV")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--censor-frac", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="maximum-likelihood fit for one kind")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ci", help="confidence intervals (fits first)")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--method", choices=("asymptotic", "bootstrap"), default="asymptotic")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--boot-B", dest="boot_B", type=int, default=500)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("select", help="rank baseline kinds by likelihood")
    p.add_argument("--data", required=True)
    p.add_argument("--candidates", default="weibull,gompertz,lomax")
    p.add_argument("--out")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("sim-estimate", help="estimator performance study")
    _add_param_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--censor-frac", type=float, default=0.0)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--boot-B", dest="boot_B", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--table-out", help="also write the per-parameter CSV table")
    p.set_defaults(func=cmd_sim_estimate)

    p = sub.add_parser("sim-select", help="model-selection probability study")
    _add_param_flags(p)
    p.add_argument("--candidates", default="weibull,gompertz,lomax")
    p.add_argument("--n", required=True, help="sample sizes, comma-separated (e.g. 50,150,300)")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--table-out")
    p.set_defaults(func=cmd_sim_select)

    p = sub.add_parser("profile-curve", help="profile log-likelihood on a lambda grid")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--lambda-min", dest="lambda_min", type=float, default=1e-3)
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=1e3)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile_curve)

    p = sub.add_parser("density-grid", help="joint density on a rectangular grid")
    _add_param_flags(p)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--y-max", dest="y_max", type=float)
    p.add_argument("--grid-n", dest="grid_n", type=int, default=60)
    p.add_argument("--out")
    p.set_defaults(func=cmd_density_grid)

    p = sub.add_parser("km-compare", help="Kaplan-Meier vs fitted minimum-lifetime survival")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", choices=_KIND_CHOICES, required=True)
    p.add_argument("--alpha0", type=float)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--alpha2", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(func=cmd_km_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        sys.stderr.write(f"bvf: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"bvf: error: {exc}\n")
        return 1
    except BvfError as exc:
        sys.stderr.write(f"bvf: numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
