"""The outputs every change must keep, and their committed reference.

``outputs()`` computes a fixed set of bvf outputs as plain JSON values:

- estimation and selection studies shaped like acceptance criteria 5-8, at
  reduced replication counts, and a selection and an estimation study of
  between one and two times ``simulation._CALL_RECORDS`` records, each at
  ``workers`` 1 and 2;
- ``fit_mle``, ``asymptotic_ci`` and ``bootstrap_ci`` (B = 0, 10 and 50)
  on censored and uncensored datasets, and a bootstrap whose resamples fail
  for two reasons; ``asymptotic_ci`` and ``observed_fisher`` at each
  estimate on the fitted dataset object and on a new one over its records;
- ``profile_loglik``, ``alphas_given_lambda``, ``log_likelihood`` and
  ``observed_fisher`` at the clamps of the search range, at ladder rungs
  and off the ladder, on those datasets, on one longer than a block of the
  engine, and on records whose survival sums overflow;
- the ``generate``, ``fit``, ``ci`` (both methods), ``select``,
  ``sim-select``, ``sim-estimate`` (with and without a bootstrap),
  ``profile-curve``, ``km-compare`` and ``density-grid`` commands of the
  CLI: exit code, stdout and stderr, and the ``--table-out`` CSV of both
  study commands; ``fit``, ``ci`` and ``select`` also on complete Lomax
  records one row longer than a block of the engine, and ``fit`` and
  ``ci --method asymptotic`` on the same draws 30% censored.

An output that raises is recorded as its error class and message. Dict keys
keep their order, so a reordered report reads as a change.
``tests/test_equivalence.py`` compares ``outputs()`` with the reference.

Run ``python tests/equivalence.py`` from the repository root to rewrite
the reference ``tests/data/equivalence.json`` from the current source. Only
a change that moves values on purpose regenerates it, and it lists every
moved key in CHANGES.md. ``python tests/equivalence.py --diff`` writes
nothing: it prints, output by output, each key whose values moved from the
reference (a path into the output, list positions left out), how many
moved and the largest relative move among them, and, for a key that is
not a float or whose move is infinite, its first old and new value.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from bvf import (
    BaselineKind,
    BvfError,
    BvfParams,
    CompetingRisksData,
    EstimationStudyConfig,
    SelectionStudyConfig,
    alphas_given_lambda,
    asymptotic_ci,
    bootstrap_ci,
    censoring_threshold,
    fit_mle,
    from_bivariate,
    log_likelihood,
    observed_fisher,
    profile_loglik,
    run_estimation_study,
    run_selection_study,
    sample,
    select_model,
)
from bvf.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "equivalence.json")

W, G, L = BaselineKind.WEIBULL, BaselineKind.GOMPERTZ, BaselineKind.LOMAX
CAPTION = {
    W: BvfParams(W, 1.34, 1.17, 0.86, 0.91),
    G: BvfParams(G, 1.13, 0.96, 0.79, 1.05),
    L: BvfParams(L, 0.85, 0.57, 0.74, 0.69),
}


def _plain(value):
    """``value`` as plain JSON values: tuples and arrays become lists, NumPy
    scalars Python numbers."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _guarded(make):
    """``make()`` as plain JSON values, or its error as class and message."""
    try:
        return _plain(make())
    except BvfError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _studies(out: dict) -> None:
    def both(name, config_class, **kwargs):
        estimation = config_class is EstimationStudyConfig
        run = run_estimation_study if estimation else run_selection_study
        for workers in (1, 2):
            config = config_class(**kwargs, workers=workers)
            out[f"study/{name}/workers{workers}"] = _guarded(lambda: run(config).to_json_dict())

    estimation = dict(ci_level=0.95)
    both("crit5", EstimationStudyConfig, true_params=CAPTION[W], n=400, replications=6,
         bootstrap_B=20, seed=20260517, **estimation)
    both("crit6", EstimationStudyConfig, true_params=CAPTION[G], n=100, replications=40,
         bootstrap_B=0, seed=4101, **estimation)
    for kind, offset in ((W, 0), (G, 3), (L, 6)):
        for i, frac in enumerate((0.0, 0.2, 0.4)):
            both(f"crit7/{kind.value}/{frac}", EstimationStudyConfig, true_params=CAPTION[kind],
                 n=200, replications=12, censored_fraction=frac, bootstrap_B=0,
                 seed=9300 + offset + i, **estimation)
    # draws that from_bivariate rejects: the valid datasets are gathered
    tiny = BvfParams(W, 0.048, 0.048, 0.048, 0.008)
    both("invalid-draws", EstimationStudyConfig, true_params=tiny, n=10, replications=60,
         bootstrap_B=20, seed=4, **estimation)
    for kind in CAPTION:
        both(f"crit8/{kind.value}", SelectionStudyConfig, parent_params=CAPTION[kind],
             candidates=(W, G, L), n_grid=(50, 150, 300), replications=20,
             seed=8800 + kind.order)
    # more records than simulation._CALL_RECORDS, and fewer than twice as many
    both("parts/selection", SelectionStudyConfig, parent_params=CAPTION[L],
         candidates=(W, G, L), n_grid=(50, 150, 300), replications=140, seed=8810)
    both("parts/estimation", EstimationStudyConfig, true_params=CAPTION[W], n=1000,
         replications=70, censored_fraction=0.2, bootstrap_B=0, seed=4102, **estimation)


def _datasets() -> dict:
    """Small generated datasets of every kind, complete and censored."""
    out = {}
    for kind, params in CAPTION.items():
        for frac in (0.0, 0.3):
            c = censoring_threshold(params, frac) if frac else None
            out[f"{kind.value}/{frac}"] = from_bivariate(sample(params, 60, 7 + kind.order), c)
    return out


def _inference(out: dict) -> None:
    for name, data in _datasets().items():
        for kind in CAPTION:
            fit = fit_mle(data, kind)
            key = f"fit/{name}/{kind.value}"
            out[key] = _plain(fit.to_json_dict())
            out[f"{key}/asymptotic"] = _guarded(lambda: asymptotic_ci(fit, data).to_json_dict())
            if fit.params_hat is not None:
                # the fit's kept sums, then a pass on a new dataset object
                fresh = CompetingRisksData(data.t, data.delta, data.censoring_time)
                out[f"{key}/fisher"] = _guarded(lambda: observed_fisher(fit.params_hat, data))
                out[f"{key}/fresh/fisher"] = _guarded(
                    lambda: observed_fisher(fit.params_hat, fresh)
                )
                out[f"{key}/fresh/asymptotic"] = _guarded(
                    lambda: asymptotic_ci(fit, fresh).to_json_dict()
                )
            for B in (0, 10, 50):
                out[f"{key}/bootstrap{B}"] = _guarded(
                    lambda: bootstrap_ci(fit, data, B=B, seed=B + 1).to_json_dict()
                )
    out["select"] = {
        name: _guarded(lambda: select_model(data).to_json_dict())
        for name, data in _datasets().items()
    }
    # resamples that fail for two reasons, counted in first-occurrence order
    data = from_bivariate(sample(BvfParams(W, 0.048, 0.048, 0.048, 0.0052), 8, 11))
    fit = fit_mle(data, W)
    out["bootstrap/failure_reasons"] = _guarded(
        lambda: bootstrap_ci(fit, data, B=200, seed=11).to_json_dict()
    )


# both clamps of the search range, rungs of the ladder (4**k), lambdas off
# it, and one past the range that only the evaluation functions accept
LAMBDAS = (1e-8, 4.0**-6, 0.37, 1.0, 2.9, 4.0**5, 1e8, 1e10)


def _evaluations(out: dict) -> None:
    sets = dict(_datasets())
    sets["long"] = from_bivariate(
        sample(CAPTION[G], 20000, 3), censoring_threshold(CAPTION[G], 0.3)
    )
    # a censored Gompertz exp(lam * t) and a censored Lomax lam * C past
    # double range
    sets["overflow/800"] = CompetingRisksData([0.5, 1.0, 2.0, 800.0], [0, 1, 2, 3])
    sets["overflow/1e300"] = CompetingRisksData([0.5, 1.0, 2.0, 1e300], [0, 1, 2, 3])
    for name, data in sets.items():
        for kind, params in CAPTION.items():
            for lam in LAMBDAS:
                key = f"eval/{name}/{kind.value}/{lam!r}"
                out[f"{key}/profile"] = _guarded(lambda: profile_loglik(lam, data, kind))
                alphas = out[f"{key}/alphas"] = _guarded(
                    lambda: alphas_given_lambda(lam, data, kind)
                )
                if not (isinstance(alphas, list) and min(alphas) > 0.0):
                    alphas = [params.alpha0, params.alpha1, params.alpha2]
                point = BvfParams(kind, *alphas, lam)
                out[f"{key}/loglik"] = _guarded(lambda: log_likelihood(point, data))
                out[f"{key}/fisher"] = _guarded(lambda: observed_fisher(point, data))


def _parsed(text: str):
    """CLI stdout as JSON if it is, else as CSV cells, numbers as floats."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    rows = []
    for line in text.splitlines():
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return rows


def run_cli(argv: list) -> dict:
    """``bvf`` with ``argv`` in this process: its exit code, its parsed
    stdout and its stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"code": code, "stdout": _parsed(stdout.getvalue()), "stderr": stderr.getvalue()}


def _cli(out: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for kind, frac, n in (("weibull", 0.0, 80), ("gompertz", 0.25, 60), ("lomax", 0.0, 40)):
            params = CAPTION[BaselineKind.parse(kind)]
            path = os.path.join(tmp, f"{kind}.csv")
            generate = [
                "generate", "--kind", kind, "--alpha0", str(params.alpha0),
                "--alpha1", str(params.alpha1), "--alpha2", str(params.alpha2),
                "--lambda", str(params.lam), "--n", str(n), "--seed", "5",
                "--censor-frac", str(frac),
            ]
            out[f"cli/generate/{kind}"] = run_cli(generate)
            run_cli(generate + ["--out", path])
            for fit_kind in ("weibull", "gompertz", "lomax"):
                key = f"cli/{kind}/{fit_kind}"
                common = ["--data", path, "--kind", fit_kind]
                out[f"{key}/fit"] = run_cli(["fit", *common])
                out[f"{key}/ci"] = run_cli(["ci", *common])
                out[f"{key}/ci-bootstrap"] = run_cli(
                    ["ci", *common, "--method", "bootstrap", "--boot-B", "40", "--seed", "3"]
                )
            out[f"cli/{kind}/select"] = run_cli(["select", "--data", path])
            out[f"cli/{kind}/profile-curve"] = run_cli([
                "profile-curve", "--data", path, "--kind", kind, "--lambda-min", "1e-8",
                "--lambda-max", "1e8", "--points", "33",
            ])
            out[f"cli/{kind}/km-compare"] = run_cli(
                ["km-compare", "--data", path, "--kind", kind, "--grid-points", "20"]
            )
            out[f"cli/{kind}/km-compare/given"] = run_cli([
                "km-compare", "--data", path, "--kind", kind, "--alpha0", "0.8",
                "--alpha1", "0.6", "--alpha2", "0.7", "--lambda", "1.2", "--grid-points", "20",
            ])

        # complete Lomax records, one row longer than a block of the engine
        params = CAPTION[L]
        path = os.path.join(tmp, "lomax-long.csv")
        generate = [
            "generate", "--kind", "lomax", "--alpha0", str(params.alpha0),
            "--alpha1", str(params.alpha1), "--alpha2", str(params.alpha2),
            "--lambda", str(params.lam), "--n", "20000", "--seed", "6",
        ]
        run_cli(generate + ["--out", path])
        common = ["--data", path, "--kind", "lomax"]
        out["cli/lomax-long/lomax/fit"] = run_cli(["fit", *common])
        out["cli/lomax-long/lomax/ci"] = run_cli(["ci", *common, "--method", "asymptotic"])
        out["cli/lomax-long/select"] = run_cli(["select", "--data", path])
        # the same draws 30% censored
        path = os.path.join(tmp, "lomax-long-censored.csv")
        run_cli(generate + ["--censor-frac", "0.3", "--out", path])
        common = ["--data", path, "--kind", "lomax"]
        out["cli/lomax-long-censored/lomax/fit"] = run_cli(["fit", *common])
        out["cli/lomax-long-censored/lomax/ci"] = run_cli(
            ["ci", *common, "--method", "asymptotic"]
        )

        def study(name, argv):
            # the table is written only by a study that succeeds
            table = os.path.join(tmp, f"{name.replace('/', '-')}.csv")
            out[f"cli/{name}"] = run_cli(argv + ["--table-out", table])
            if os.path.exists(table):
                with open(table, encoding="utf-8") as fh:
                    out[f"cli/{name}/table"] = _parsed(fh.read())

        study("sim-select", [
            "sim-select", "--kind", "lomax", "--alpha0", "0.85", "--alpha1", "0.57",
            "--alpha2", "0.74", "--lambda", "0.69", "--n", "30,60", "--reps", "15",
            "--seed", "8",
        ])
        study("sim-estimate", [
            "sim-estimate", "--kind", "lomax", "--alpha0", "0.85", "--alpha1", "0.57",
            "--alpha2", "0.74", "--lambda", "0.69", "--n", "50", "--reps", "12",
            "--boot-B", "0", "--seed", "12",
        ])
        study("sim-estimate/bootstrap", [
            "sim-estimate", "--kind", "weibull", "--alpha0", "1.34", "--alpha1", "1.17",
            "--alpha2", "0.86", "--lambda", "0.91", "--n", "50", "--reps", "4",
            "--censor-frac", "0.2", "--boot-B", "20", "--seed", "13",
        ])
        # a study that aborts: every bootstrap breaks down, since one failed
        # resample in 15 is past the 5% a bootstrap allows
        study("sim-estimate/unsound", [
            "sim-estimate", "--kind", "gompertz", "--alpha0", "1.13", "--alpha1", "0.96",
            "--alpha2", "0.79", "--lambda", "1.05", "--n", "40", "--reps", "4",
            "--censor-frac", "0.2", "--boot-B", "15", "--seed", "13",
        ])
        for kind, bounds in (("gompertz", []), ("lomax", ["--x-max", "3", "--y-max", "2.5"])):
            params = CAPTION[BaselineKind.parse(kind)]
            out[f"cli/density-grid/{kind}"] = run_cli([
                "density-grid", "--kind", kind, "--alpha0", str(params.alpha0),
                "--alpha1", str(params.alpha1), "--alpha2", str(params.alpha2),
                "--lambda", str(params.lam), "--grid-n", "5", *bounds,
            ])


def outputs() -> dict:
    """Every output of the suite, by name."""
    out: dict = {}
    _studies(out)
    _inference(out)
    _evaluations(out)
    _cli(out)
    return out


def _moves(got, want, path, out) -> None:
    """Add to ``out``, per key of ``want`` at ``path`` whose value in ``got``
    differs (its path, list positions as []), the values moved, the largest
    relative move (inf where a value changed type, length or keys, or is
    not a number) and the first old and new value."""
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        for key in want:
            _moves(got[key], want[key], f"{path}/{key}", out)
        return
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for g, w in zip(got, want):
            _moves(g, w, f"{path}[]", out)
        return
    if got == want or got != got and want != want:
        return
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, want))
    if numbers and math.isfinite(got) and math.isfinite(want):
        rel = abs(got - want) / max(abs(got), abs(want))
    else:
        rel = math.inf
    count, worst, first = out.get(path, (0, 0.0, (want, got)))
    out[path] = (count + 1, max(worst, rel), first)


def print_moves(got: dict, want: dict) -> None:
    """Every key of ``got`` moved from ``want``, output by output (see the
    module docstring); outputs only one of them has are named as such."""
    for name in sorted(set(got) | set(want), key=lambda k: (k not in want, k)):
        if name not in got or name not in want:
            sys.stdout.write(f"{name}: only in the {'reference' if name in want else 'source'}\n")
            continue
        moved = {}
        _moves(got[name], want[name], "", moved)
        if moved:
            sys.stdout.write(f"{name}\n")
        for path, (count, worst, (old, new)) in moved.items():
            line = f"  {path or '/'}: {count} moved, largest relative move {worst:.3g}"
            if math.isinf(worst) or not isinstance(old, float) or not isinstance(new, float):
                line += f" (first {old!r} -> {new!r})"
            sys.stdout.write(line + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        with open(REFERENCE, encoding="utf-8") as fh:
            print_moves(json.loads(json.dumps(outputs())), json.load(fh))
        sys.exit(0)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(outputs(), fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {REFERENCE}\n")
