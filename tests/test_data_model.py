"""Observed-data container: classification, counts, CSV round trips."""

import math

import numpy as np
import pytest

from bvf import (
    BaselineKind,
    BvfParams,
    CompetingRisksData,
    DomainError,
    FailureMode,
    ParseError,
    ValidationError,
    from_bivariate,
    load_csv,
    sample,
    save_csv,
    tie_probability,
)
from bvf.data_model import _first_failure


def test_failure_mode_codes():
    assert FailureMode.TIE == 0
    assert FailureMode.RISK1_FIRST == 1
    assert FailureMode.RISK2_FIRST == 2
    assert FailureMode.CENSORED == 3


class TestFromBivariate:
    def test_uncensored_classification(self):
        xy = [(1.0, 2.0), (3.0, 3.0), (5.0, 4.0)]
        data = from_bivariate(xy)
        assert data.t.tolist() == [1.0, 3.0, 4.0]
        assert data.delta.tolist() == [1, 0, 2]
        assert (data.m0, data.m1, data.m2, data.m3) == (1, 1, 1, 0)
        assert data.censoring_time is None

    def test_censoring_cuts_late_pairs(self):
        xy = [(1.0, 2.0), (3.0, 3.0), (5.0, 4.0)]
        data = from_bivariate(xy, censoring_time=2.5)
        assert data.t.tolist() == [1.0, 2.5, 2.5]
        assert data.delta.tolist() == [1, 3, 3]
        assert (data.m0, data.m1, data.m2, data.m3) == (0, 1, 0, 2)
        assert data.censoring_time == 2.5

    def test_minimum_exactly_at_threshold_is_a_failure(self):
        data = from_bivariate([(2.5, 3.0)], censoring_time=2.5)
        assert data.delta.tolist() == [1]
        assert data.t.tolist() == [2.5]

    def test_censored_output_passes_validation(self):
        p = BvfParams(BaselineKind.GOMPERTZ, 1.13, 0.96, 0.79, 1.05)
        xy = sample(p, 3000, seed=3)
        for c in (0.05, 0.4, float(np.min(xy)), float(np.max(np.min(xy, axis=1)))):
            data = from_bivariate(xy, censoring_time=c)
            assert np.all(data.t[data.delta != FailureMode.CENSORED] <= c)

    def test_counts_partition_sample(self):
        p = BvfParams(BaselineKind.WEIBULL, 1.34, 1.17, 0.86, 0.91)
        xy = sample(p, 5000, seed=2)
        data = from_bivariate(xy, censoring_time=0.8)
        assert data.m0 + data.m1 + data.m2 + data.m3 == data.n == 5000
        assert data.n_failures == data.m0 + data.m1 + data.m2

    def test_mode_fractions_match_ordering_probabilities(self):
        p = BvfParams(BaselineKind.LOMAX, 0.85, 0.57, 0.74, 0.69)
        n = 100_000
        data = from_bivariate(sample(p, n, seed=6))
        pr = tie_probability(p)
        for count, want in ((data.m0, pr.tie), (data.m1, pr.x_first), (data.m2, pr.y_first)):
            sd = math.sqrt(want * (1 - want) / n)
            assert abs(count / n - want) < 3 * sd

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(DomainError):
            from_bivariate([(0.0, 1.0)])
        with pytest.raises(DomainError):
            from_bivariate([(1.0, -2.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            from_bivariate(np.empty((0, 2)))

    @pytest.mark.parametrize("c", [None, 0.7])
    def test_first_failure_matches_the_selection_rule(self, c):
        # (x, y) blocks as a stacked draw holds them, and strided columns as
        # from_bivariate passes them; a third of the pairs are ties
        rng = np.random.default_rng(8)
        x = rng.choice([0.3, 0.7, 1.1, 0.5], size=(40, 90))
        y = np.where(rng.random((40, 90)) < 0.33, x, rng.uniform(0.1, 1.5, size=(40, 90)))
        pairs = np.stack([x.ravel(), y.ravel()], axis=1)
        for xs, ys in ((x, y), (pairs[:, 0], pairs[:, 1])):
            t, delta = _first_failure(xs, ys, c)
            want_t = np.minimum(xs, ys)
            want_delta = np.where(xs < ys, 1, np.where(ys < xs, 2, 0)).astype(np.int8)
            if c is not None:
                want_delta[want_t > c] = FailureMode.CENSORED
                want_t = np.where(want_t > c, c, want_t)
            assert delta.dtype == np.int8 and t.dtype == np.float64
            assert t.tobytes() == want_t.tobytes()
            assert delta.tolist() == want_delta.tolist()
            assert set(delta.ravel().tolist()) == ({0, 1, 2} if c is None else {0, 1, 2, 3})


class TestContainer:
    def test_counts_and_views(self):
        data = CompetingRisksData([0.5, 1.0, 1.5, 2.0], [0, 1, 2, 3])
        assert (data.m0, data.m1, data.m2, data.m3) == (1, 1, 1, 1)
        assert data.n == 4
        assert data.n_failures == 3
        assert data.censoring_time == 2.0

    def test_explicit_censoring_time_checked(self):
        with pytest.raises(ValidationError):
            CompetingRisksData([1.0, 2.0], [1, 3], censoring_time=1.5)
        ok = CompetingRisksData([1.0, 2.0], [1, 3], censoring_time=2.0)
        assert ok.censoring_time == 2.0

    def test_censored_times_must_agree(self):
        with pytest.raises(ValidationError, match="censored times differ"):
            CompetingRisksData([5.0, 7.0], [3, 3])

    def test_censoring_time_without_censored_records(self):
        data = CompetingRisksData([1.0, 2.0], [1, 2], censoring_time=9.0)
        assert data.censoring_time == 9.0

    def test_failure_after_censoring_time_rejected(self):
        with pytest.raises(ValidationError, match="after the censoring time"):
            CompetingRisksData([5.0, 1.0], [1, 3])
        with pytest.raises(ValidationError, match="after the censoring time"):
            CompetingRisksData([1.0, 9.5], [2, 0], censoring_time=9.0)

    def test_failure_at_censoring_time_accepted(self):
        data = CompetingRisksData([1.0, 1.0, 0.5], [2, 3, 0])
        assert data.censoring_time == 1.0
        assert (data.m0, data.m2, data.m3) == (1, 1, 1)

    def test_immutable(self):
        data = CompetingRisksData([1.0], [1])
        with pytest.raises(AttributeError):
            data.m0 = 5
        with pytest.raises(ValueError):
            data.t[0] = 2.0

    def test_rejects_bad_delta(self):
        with pytest.raises(ValidationError):
            CompetingRisksData([1.0], [4])
        with pytest.raises(ValidationError):
            CompetingRisksData([1.0], [-1])

    @pytest.mark.parametrize(
        "delta",
        [np.array([256, 1]), [1.5, 2.0], [1.7, 2], [math.nan, 1], ["1", "2"]],
        ids=["wraps-to-tie", "fraction", "truncates", "nan", "strings"],
    )
    def test_rejects_delta_the_int8_cast_would_change(self, delta):
        with pytest.raises(ValidationError, match="delta values"):
            CompetingRisksData([1.0, 2.0], delta)

    def test_accepts_integral_float_delta(self):
        data = CompetingRisksData([1.0, 2.0], [1.0, 2.0])
        assert data.delta.tolist() == [1, 2]
        assert data.delta.dtype == np.int8

    def test_rejects_bad_times(self):
        with pytest.raises(ValidationError):
            CompetingRisksData([0.0], [1])
        with pytest.raises(ValidationError):
            CompetingRisksData([math.nan], [1])
        with pytest.raises(ValidationError):
            CompetingRisksData([math.inf], [1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            CompetingRisksData([1.0, 2.0], [1])


class TestCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        p = BvfParams(BaselineKind.GOMPERTZ, 1.13, 0.96, 0.79, 1.05)
        data = from_bivariate(sample(p, 200, seed=8), censoring_time=0.8)
        assert data.m3 > 0  # C is carried by the delta=3 rows
        path = tmp_path / "d.csv"
        save_csv(data, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.t, data.t)
        np.testing.assert_array_equal(back.delta, data.delta)
        assert back.censoring_time == data.censoring_time

    def test_load_counts_modes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,delta\n843.0,1\n1010.0,2\n1267.0,0\n")
        data = load_csv(path)
        assert data.n == 3
        assert (data.m0, data.m1, data.m2, data.m3) == (1, 1, 1, 0)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# generated\nt,delta\n\n1.0,1\n# mid comment\n2.0,3\n")
        data = load_csv(path)
        assert data.n == 2

    def test_header_spaces_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(" t , delta \n1.0,1\n")
        assert load_csv(path).n == 1

    def test_missing_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n1.0,1\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,delta\n1.0,1\nbogus,1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_bad_delta_reports_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,delta\n1.0,7\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_no_records_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,delta\n")
        with pytest.raises(ValidationError, match="no records"):
            load_csv(path)

    def test_failure_after_censoring_time_rejected_at_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,delta\n5.0,1\n1.0,3\n")
        with pytest.raises(ValidationError, match="after the censoring time"):
            load_csv(path)

    def test_inconsistent_censored_times_rejected_at_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,delta\n5.0,3\n7.0,3\n")
        with pytest.raises(ValidationError, match="censored times differ"):
            load_csv(path)
