"""Command-line surface: round trips, formats, exit codes."""

import csv
import json
import math

import pytest

from bvf import (
    BaselineKind,
    fit_mle,
    load_csv,
    profile_loglik,
    select_model,
)
from bvf.cli import main

W = BaselineKind.WEIBULL

GEN = [
    "generate", "--kind", "weibull", "--alpha0", "1.34", "--alpha1", "1.17",
    "--alpha2", "0.86", "--lambda", "0.91",
]


def run(argv, capsys):
    # argparse usage errors leave main() via SystemExit rather than a return
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def dataset(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code, _, _ = run(GEN + ["--n", "200", "--seed", "11", "--censor-frac", "0.25",
                            "--out", str(path)], capsys)
    assert code == 0
    return path


class TestGenerate:
    def test_writes_file_and_prints_counts(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        code, out, err = run(GEN + ["--n", "50", "--seed", "3", "--out", str(path)], capsys)
        assert code == 0
        assert out.startswith("n=50 m0=")
        data = load_csv(path)
        assert data.n == 50

    def test_stdout_mode_emits_csv(self, tmp_path, capsys):
        code, out, err = run(GEN + ["--n", "5", "--seed", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,delta"
        assert len(lines) == 6
        assert err.startswith("n=5 ")

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(GEN + ["--n", "30", "--seed", "9", "--out", str(a)], capsys)
        run(GEN + ["--n", "30", "--seed", "9", "--out", str(b)], capsys)
        assert a.read_text() == b.read_text()

    def test_mode_counts_follow_rates(self, tmp_path, capsys):
        code, out, _ = run(GEN + ["--n", "2000", "--seed", "5", "--out",
                                  str(tmp_path / "d.csv")], capsys)
        counts = dict(kv.split("=") for kv in out.split())
        # tie share 1.34/3.37, five-sigma slack
        frac = int(counts["m0"]) / 2000
        assert abs(frac - 1.34 / 3.37) < 5 * math.sqrt(0.4 * 0.6 / 2000)

    def test_zero_n_is_usage_error(self, capsys):
        code, _, err = run(GEN + ["--n", "0", "--seed", "3"], capsys)
        assert code == 1
        assert "error" in err

    def test_seed_required(self, capsys):
        code, _, err = run(GEN + ["--n", "10"], capsys)
        assert code == 1

    def test_censoring_fraction_out_of_range(self, capsys):
        code, _, err = run(GEN + ["--n", "10", "--seed", "1", "--censor-frac", "1.0"],
                           capsys)
        assert code == 1

    def test_negative_censoring_fraction_exits_one(self, capsys):
        code, out, err = run(GEN + ["--n", "10", "--seed", "1", "--censor-frac", "-0.3"],
                             capsys)
        assert code == 1
        assert out == ""
        assert "--censor-frac" in err


class TestFit:
    def test_json_matches_library(self, dataset, capsys):
        code, out, _ = run(["fit", "--data", str(dataset), "--kind", "weibull"], capsys)
        assert code == 0
        d = json.loads(out)
        fit = fit_mle(load_csv(dataset), W)
        assert d["status"] == "Converged"
        assert d["lambda"] == pytest.approx(fit.params_hat.lam, rel=1e-15)
        assert d["loglik"] == pytest.approx(fit.loglik_max, rel=1e-15)
        assert set(d) == {"kind", "status", "alpha0", "alpha1", "alpha2",
                          "lambda", "loglik", "n_evals"}

    def test_out_file(self, dataset, tmp_path, capsys):
        path = tmp_path / "fit.json"
        code, out, _ = run(["fit", "--data", str(dataset), "--kind", "weibull",
                            "--out", str(path)], capsys)
        assert code == 0
        d = json.loads(path.read_text())
        assert d["kind"] == "Weibull"

    def test_no_mle_still_writes_report(self, dataset, tmp_path, capsys):
        # decreasing-hazard data: the Gompertz profile is monotone, no MLE
        path = tmp_path / "fit.json"
        code, _, err = run(["fit", "--data", str(dataset), "--kind", "gompertz",
                            "--out", str(path)], capsys)
        assert code == 2
        assert "no MLE" in err
        d = json.loads(path.read_text())
        assert d["status"] == "NoMleMonotoneProfile"
        assert d["alpha0"] is None and d["loglik"] is None

    @pytest.mark.parametrize("kind", ["gompertz", "lomax"])
    def test_overflowing_rates_exit_two(self, kind, tmp_path, capsys):
        # subnormal times: the rate denominator at lambda-hat is itself
        # subnormal, so the closed-form rates overflow
        path = tmp_path / "tiny.csv"
        path.write_text("t,delta\n5e-324,1\n5e-324,2\n5e-324,0\n5e-324,1\n"
                        "1e-320,2\n1e-320,1\n")
        code, out, err = run(["fit", "--data", str(path), "--kind", kind], capsys)
        assert code == 2
        assert out == ""
        assert "numerical failure" in err

    def test_no_mle_exits_two_with_json(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("t,delta\n1.0,0\n1.0,1\n1.0,2\n")
        code, out, err = run(["fit", "--data", str(path), "--kind", "weibull"], capsys)
        assert code == 2
        d = json.loads(out)
        assert d["status"] == "NoMleMonotoneProfile"
        assert "monotone" in err

    def test_all_censored_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cens.csv"
        path.write_text("t,delta\n2.0,3\n2.0,3\n")
        code, _, err = run(["fit", "--data", str(path), "--kind", "weibull"], capsys)
        assert code == 2
        assert "no failures" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run(["fit", "--data", "/nonexistent.csv", "--kind", "weibull"],
                           capsys)
        assert code == 1

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t,delta\nbogus,1\n")
        code, _, err = run(["fit", "--data", str(path), "--kind", "weibull"], capsys)
        assert code == 1
        assert "line 2" in err


class TestCi:
    def test_asymptotic_json(self, dataset, capsys):
        code, out, _ = run(["ci", "--data", str(dataset), "--kind", "weibull"], capsys)
        assert code == 0
        d = json.loads(out)
        assert d["method"] == "Asymptotic"
        assert set(d["intervals"]) == {"alpha0", "alpha1", "alpha2", "lambda"}
        assert d["fit"]["status"] == "Converged"
        for lo, hi in d["intervals"].values():
            assert lo < hi

    def test_bootstrap_requires_seed(self, dataset, capsys):
        code, _, err = run(["ci", "--data", str(dataset), "--kind", "weibull",
                            "--method", "bootstrap", "--boot-B", "20"], capsys)
        assert code == 1
        assert "seed" in err

    def test_bootstrap_deterministic(self, dataset, capsys):
        argv = ["ci", "--data", str(dataset), "--kind", "weibull",
                "--method", "bootstrap", "--boot-B", "15", "--seed", "4"]
        code_a, out_a, _ = run(argv, capsys)
        code_b, out_b, _ = run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        d = json.loads(out_a)
        assert d["method"] == "Bootstrap"
        assert d["B"] == 15

    @pytest.mark.parametrize("kind", ["weibull", "lomax"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--method", "bootstrap"], "--seed is required for bootstrap intervals"),
            (["--level", "1.5"], "level must lie in (0, 1), got 1.5"),
            (["--method", "bootstrap", "--seed", "1", "--boot-B", "0"], "B must be >= 1, got 0"),
        ],
        ids=["no-seed", "level", "boot-B"],
    )
    def test_options_are_checked_before_the_fit(self, tmp_path, capsys, kind, options, message):
        # Weibull fits these records; Lomax's profile is monotone on them,
        # and the options are rejected all the same
        path = tmp_path / "five.csv"
        path.write_text("t,delta\n0.3,1\n0.8,1\n1.1,2\n2.0,0\n1.7,2\n")
        code, out, err = run(["ci", "--data", str(path), "--kind", kind] + options, capsys)
        assert (code, out, err) == (1, "", f"bvf: error: {message}\n")

    def test_no_mle_exits_two(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("t,delta\n1.0,0\n1.0,1\n1.0,2\n")
        code, out, err = run(["ci", "--data", str(path), "--kind", "lomax"], capsys)
        assert code == 2
        assert "unavailable" in err


class TestSelect:
    def test_choice_matches_library(self, dataset, capsys):
        code, out, _ = run(["select", "--data", str(dataset)], capsys)
        assert code == 0
        d = json.loads(out)
        res = select_model(load_csv(dataset))
        assert d["chosen"] == res.chosen.value
        assert len(d["table"]) == 3

    def test_candidate_subset(self, dataset, capsys):
        code, out, _ = run(["select", "--data", str(dataset),
                            "--candidates", "weibull,gompertz"], capsys)
        assert code == 0
        d = json.loads(out)
        assert {row["kind"] for row in d["table"]} == {"Weibull", "Gompertz"}

    def test_unknown_candidate_exits_one(self, dataset, capsys):
        code, _, err = run(["select", "--data", str(dataset),
                            "--candidates", "weibull,normal"], capsys)
        assert code == 1

    def test_all_failing_exits_two(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("t,delta\n1.0,0\n1.0,1\n1.0,2\n")
        code, _, err = run(["select", "--data", str(path)], capsys)
        assert code == 2


class TestSimEstimate:
    def test_small_study_json_and_table(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, out, _ = run(
            ["sim-estimate", "--kind", "weibull", "--alpha0", "1.34",
             "--alpha1", "1.17", "--alpha2", "0.86", "--lambda", "0.91",
             "--n", "60", "--reps", "4", "--boot-B", "0", "--seed", "12",
             "--table-out", str(table)],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert d["study"] == "estimation"
        assert d["replications_used"] + d["failed_replications"] == 4
        with open(table) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["parameter"] for r in rows] == ["alpha0", "alpha1", "alpha2", "lambda"]
        assert rows[0]["boot_coverage"] == ""

    def test_unsound_study_exits_two(self, capsys):
        code, _, err = run(
            ["sim-estimate", "--kind", "weibull", "--alpha0", "1.34",
             "--alpha1", "1.17", "--alpha2", "0.86", "--lambda", "0.91",
             "--n", "10", "--reps", "20", "--censor-frac", "0.9",
             "--boot-B", "0", "--seed", "7"],
            capsys,
        )
        assert code == 2
        assert "numerical failure" in err

    def test_censoring_time_out_of_range_exits_one(self, capsys):
        # at 1% censoring this Lomax model's C overflows to inf
        code, out, err = run(
            ["sim-estimate", "--kind", "lomax", "--alpha0", "0.002",
             "--alpha1", "0.002", "--alpha2", "0.002", "--lambda", "1",
             "--n", "10", "--reps", "10", "--censor-frac", "0.01",
             "--boot-B", "0", "--seed", "0"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("bvf: error: ") and "censoring time C" in err


class TestSimSelect:
    def test_comma_separated_sizes(self, capsys):
        code, out, _ = run(
            ["sim-select", "--kind", "weibull", "--alpha0", "1.34",
             "--alpha1", "1.17", "--alpha2", "0.86", "--lambda", "0.91",
             "--candidates", "weibull,gompertz", "--n", "40,60",
             "--reps", "6", "--seed", "8"],
            capsys,
        )
        assert code == 0
        d = json.loads(out)
        assert [row["n"] for row in d["rows"]] == [40, 60]
        for row in d["rows"]:
            assert sum(row["probabilities"].values()) == pytest.approx(1.0)

    def test_table_out(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        code, out, _ = run(
            ["sim-select", "--kind", "weibull", "--alpha0", "1.34",
             "--alpha1", "1.17", "--alpha2", "0.86", "--lambda", "0.91",
             "--candidates", "weibull,lomax", "--n", "30,50",
             "--reps", "4", "--seed", "8", "--table-out", str(table)],
            capsys,
        )
        assert code == 0
        with open(table) as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["n", "p_weibull", "p_lomax", "dropped"]
        assert [int(r["n"]) for r in rows] == [30, 50]
        for r, row in zip(rows, json.loads(out)["rows"]):
            assert float(r["p_weibull"]) == row["probabilities"]["Weibull"]
            assert int(r["dropped"]) == row["dropped"]

    def test_bad_n_list_exits_one(self, capsys):
        code, _, _ = run(
            ["sim-select", "--kind", "weibull", "--alpha0", "1.34",
             "--alpha1", "1.17", "--alpha2", "0.86", "--lambda", "0.91",
             "--n", "forty", "--reps", "5", "--seed", "8"],
            capsys,
        )
        assert code == 1


class TestProfileCurve:
    def test_grid_values_match_library(self, dataset, capsys):
        code, out, _ = run(
            ["profile-curve", "--data", str(dataset), "--kind", "weibull",
             "--lambda-min", "0.5", "--lambda-max", "2.0", "--points", "7"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 7
        data = load_csv(dataset)
        for row in rows:
            lam = float(row["lambda"])
            assert float(row["profile_loglik"]) == pytest.approx(
                profile_loglik(lam, data, W), rel=1e-12
            )
        lams = [float(r["lambda"]) for r in rows]
        assert lams[0] == pytest.approx(0.5) and lams[-1] == pytest.approx(2.0)

    def test_default_grid(self, dataset, capsys):
        code, out, _ = run(["profile-curve", "--data", str(dataset), "--kind", "weibull"],
                           capsys)
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 200
        assert float(rows[0]["lambda"]) == 1e-3
        assert float(rows[-1]["lambda"]) == 1e3

    def test_bad_range_exits_one(self, dataset, capsys):
        code, _, _ = run(
            ["profile-curve", "--data", str(dataset), "--kind", "weibull",
             "--lambda-min", "2.0", "--lambda-max", "0.5"],
            capsys,
        )
        assert code == 1


class TestDensityGrid:
    def test_header_and_diagonal(self, capsys):
        code, out, _ = run(
            ["density-grid", "--kind", "weibull", "--alpha0", "1.34",
             "--alpha1", "1.17", "--alpha2", "0.86", "--lambda", "0.91",
             "--x-max", "2.0", "--y-max", "2.0", "--grid-n", "5"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 25
        diag = [r for r in rows if r["x"] == r["y"]]
        assert len(diag) == 5
        assert all(math.isnan(float(r["density"])) for r in diag)
        off = [r for r in rows if r["x"] != r["y"]]
        assert all(float(r["density"]) >= 0 for r in off)

    @pytest.mark.parametrize(
        "alphas, axis",
        [(("0", "0", "1"), "x"), (("0", "1", "0"), "y")],
    )
    def test_coordinate_that_never_fails_needs_its_bound(self, alphas, axis, capsys):
        argv = ["density-grid", "--kind", "weibull", "--alpha0", alphas[0],
                "--alpha1", alphas[1], "--alpha2", alphas[2], "--lambda", "1",
                "--grid-n", "3"]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("bvf: error: ") and f"--{axis}-max" in err
        code, out, _ = run(argv + [f"--{axis}-max", "2.0"], capsys)
        assert code == 0
        assert len(list(csv.DictReader(out.splitlines()))) == 9


class TestKmCompare:
    def test_explicit_params(self, dataset, capsys):
        code, out, _ = run(
            ["km-compare", "--data", str(dataset), "--kind", "weibull",
             "--alpha0", "1.34", "--alpha1", "1.17", "--alpha2", "0.86",
             "--lambda", "0.91"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert set(rows[0]) == {"t", "km_survival", "model_survival"}
        km = [float(r["km_survival"]) for r in rows]
        assert all(0 <= v <= 1 for v in km)

    def test_fitted_params_by_default(self, dataset, capsys):
        code, out, _ = run(
            ["km-compare", "--data", str(dataset), "--kind", "weibull"], capsys
        )
        assert code == 0

    def test_partial_params_exit_one(self, dataset, capsys):
        code, _, err = run(
            ["km-compare", "--data", str(dataset), "--kind", "weibull",
             "--alpha0", "1.0"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_nonpositive_grid_points_exit_one(self, dataset, points, capsys):
        code, out, err = run(
            ["km-compare", "--data", str(dataset), "--kind", "weibull",
             "--grid-points", points],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "--grid-points" in err

    def test_model_tracks_km_at_truth(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        code, _, _ = run(GEN + ["--n", "50000", "--seed", "21", "--out", str(big)],
                         capsys)
        assert code == 0
        code, out, _ = run(
            ["km-compare", "--data", str(big), "--kind", "weibull",
             "--alpha0", "1.34", "--alpha1", "1.17", "--alpha2", "0.86",
             "--lambda", "0.91"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        gaps = [abs(float(r["km_survival"]) - float(r["model_survival"]))
                for r in rows if r["km_survival"] != ""]
        assert max(gaps) < 0.02


@pytest.mark.parametrize(
    "argv",
    [
        GEN + ["--n", "10", "--seed", "-1"],
        ["ci", "--kind", "weibull", "--method", "bootstrap", "--boot-B", "20",
         "--seed", "-1"],
        ["sim-estimate", "--kind", "weibull", "--alpha0", "1.34", "--alpha1", "1.17",
         "--alpha2", "0.86", "--lambda", "0.91", "--n", "60", "--reps", "4",
         "--boot-B", "0", "--seed", "-1"],
        ["sim-select", "--kind", "weibull", "--alpha0", "1.34", "--alpha1", "1.17",
         "--alpha2", "0.86", "--lambda", "0.91", "--n", "40", "--reps", "4",
         "--seed", "-2"],
    ],
    ids=["generate", "ci", "sim-estimate", "sim-select"],
)
def test_negative_seed_exits_one(argv, dataset, capsys):
    if argv[0] == "ci":
        argv = argv + ["--data", str(dataset)]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert "seed" in err


class TestParserBehavior:
    def test_no_command_exits_one(self, capsys):
        assert run([], capsys)[0] == 1

    def test_unknown_command_exits_one(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert run(["fit", "--data", "x.csv", "--kind", "weibull", "--bogus"],
                   capsys)[0] == 1
