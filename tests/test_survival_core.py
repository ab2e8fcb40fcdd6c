"""Step functions, dataset validation, and risk-set timeline bookkeeping.

Reference values in this file are hand integrations of piecewise-constant
functions on explicit grids; each is rederivable with pencil and paper.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_dataset
from hazlasso import (
    DataValidationError,
    StepFunction,
    SurvivalDataset,
    build_gram,
    build_timeline,
    check_orthogonality,
    compute_weights,
    fit,
    linear_dictionary,
    load_dataset,
    write_dataset,
)
from hazlasso.survival import MIN_FOLLOW_UP, take_rows

FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
)


class TestStepFunction:
    def test_left_continuous_evaluation(self):
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 3.0]))
        # value on [0, 0.5) is 2; at the breakpoint the left limit rules
        assert f(0.0) == 2.0
        assert f(0.49) == 2.0
        assert f(0.5) == 2.0
        assert f(0.51) == 3.0
        assert f(1.0) == 3.0

    def test_vectorized_call(self):
        f = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([1.0, -1.0]))
        assert_allclose(f(np.array([0.1, 0.25, 0.3])), [1.0, 1.0, -1.0])

    def test_constant(self):
        f = StepFunction.constant(4.0)
        assert f(0.0) == 4.0 and f(1.0) == 4.0
        assert_allclose(f.breakpoints, [0.0, 1.0])

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.1, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.9]), np.array([1.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))


class TestSurvivalDataset:
    def test_basic_properties(self):
        ds = SurvivalDataset(
            times=np.array([0.3, 1.0]),
            status=np.array([True, False]),
            covariates=np.array([[1.0, 2.0], [3.0, 4.0]]),
        )
        assert ds.n == 2 and ds.d == 2
        assert ds.labels == ["x1", "x2"]

    def test_rejects_bad_times(self):
        with pytest.raises(DataValidationError, match="record 1"):
            SurvivalDataset(
                times=np.array([0.5, 0.0]),
                status=np.array([True, True]),
                covariates=np.zeros((2, 1)),
            )
        with pytest.raises(DataValidationError):
            SurvivalDataset(
                times=np.array([0.5, 1.2]),
                status=np.array([True, True]),
                covariates=np.zeros((2, 1)),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_times(self, bad):
        # NaN fails every comparison, so a range test written as
        # `times <= 0 | times > 1` would let it through
        with pytest.raises(DataValidationError, match="record 0: time"):
            SurvivalDataset(
                times=np.array([bad, 0.5]),
                status=np.array([True, False]),
                covariates=np.array([[1.0], [2.0]]),
            )

    @pytest.mark.parametrize(
        "times, named",
        [
            ([1e-200, 3e-200], "largest follow-up time 3e-200 is below 2^-500"),
            ([[0.5, 1.0], [1e-160, 2e-160]], "replication 1: largest follow-up time 2e-160 is"),
        ],
        ids=["single", "batch"],
    )
    def test_rejects_a_largest_time_below_2_to_the_minus_500(self, times, named):
        shape = np.shape(times)
        with pytest.raises(DataValidationError, match=re.escape(named)):
            SurvivalDataset(times=times, status=np.ones(shape), covariates=np.zeros(shape + (1,)))
        # the bound itself is taken
        SurvivalDataset(times=[2.0**-501, 2.0**-500], status=[1, 0], covariates=np.zeros((2, 1)))

    @pytest.mark.parametrize(
        "status, named",
        [
            ([2, 0.5, np.nan], "record 0: status 2.0 is not 0 or 1"),
            ([1, 0, np.nan], "record 2: status nan is not 0 or 1"),
            ([[1, 0, 1], [0, -1, 1]], "replication 1, record 1: status -1 is not 0 or 1"),
            (["1", "0", "1"], "record 0: status '1' is not 0 or 1"),
        ],
        ids=["two-and-half", "nan", "batch", "strings"],
    )
    def test_rejects_status_other_than_0_or_1(self, status, named):
        shape = np.shape(status)
        with pytest.raises(DataValidationError, match=re.escape(named)):
            SurvivalDataset(
                times=np.full(shape, 0.5), status=status, covariates=np.zeros(shape + (1,))
            )

    def test_status_of_0_and_1_in_any_dtype_becomes_bool(self):
        for status in ([1, 0, 1], [1.0, 0.0, 1.0], np.array([1, 0, 1], dtype=np.int8)):
            ds = SurvivalDataset(times=[0.2, 0.5, 0.9], status=status, covariates=np.zeros((3, 1)))
            assert ds.status.dtype == bool and ds.status.tolist() == [True, False, True]

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(DataValidationError):
            SurvivalDataset(
                times=np.array([]), status=np.array([]), covariates=np.zeros((0, 1))
            )
        with pytest.raises(DataValidationError):
            SurvivalDataset(
                times=np.array([0.5]),
                status=np.array([True]),
                covariates=np.array([[np.nan]]),
            )

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=17, d=3)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert_allclose(back.times, ds.times, rtol=0, atol=0)
        assert np.array_equal(back.status, ds.status)
        assert_allclose(back.covariates, ds.covariates, rtol=0, atol=0)
        assert back.labels == ds.labels
        # the covariates are columns of the parsed block, not a copy of them
        assert not back.covariates.flags.owndata

    def test_load_rescales_raw_times(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("time,status,x1\n2.0,1,0.5\n8.0,0,1.5\n")
        ds = load_dataset(path)
        assert ds.time_scale == 8.0
        assert_allclose(ds.times, [0.25, 1.0])

    def test_load_errors_name_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,x1\n0.5,1,1.0\n0.7,2,1.0\n")
        with pytest.raises(DataValidationError, match="line 3"):
            load_dataset(path)
        path.write_text("when,status,x1\n0.5,1,1.0\n")
        with pytest.raises(DataValidationError, match="header"):
            load_dataset(path)


class TestLoadDatasetSyntax:
    """What the CSV loader accepts and how it names a bad line; each case
    pins the behaviour of the row-by-row ``csv.reader`` loader."""

    HEADER = "time,status,x1\n"

    def _load(self, tmp_path, body, newline="\n"):
        path = tmp_path / "data.csv"
        path.write_bytes((self.HEADER + body).replace("\n", newline).encode())
        return load_dataset(path)

    def _rejects(self, tmp_path, body, message):
        with pytest.raises(DataValidationError, match=message):
            self._load(tmp_path, body)

    def test_blank_lines_count_as_lines(self, tmp_path):
        self._rejects(tmp_path, "0.5,1,1.0\n\n0.7,2,1.0\n", "line 4: status must be 0 or 1")
        ds = self._load(tmp_path, "\n0.5,1,1.0\n\n\n0.7,0,2.0\n\n")
        assert_allclose(ds.covariates, [[1.0], [2.0]], rtol=0, atol=0)

    def test_crlf_line_endings(self, tmp_path):
        ds = self._load(tmp_path, "0.5,1,1.0\n0.7,0,2.0\n", newline="\r\n")
        assert_allclose(ds.times, [0.5, 0.7], rtol=0, atol=0)
        assert list(ds.status) == [True, False]

    def test_quoted_and_padded_numbers(self, tmp_path):
        ds = self._load(tmp_path, '"0.5","1","-2.5"\n 0.7 , 0 ,\t3 \n')
        assert_allclose(ds.times, [0.5, 0.7], rtol=0, atol=0)
        assert list(ds.status) == [True, False]
        assert_allclose(ds.covariates, [[-2.5], [3.0]], rtol=0, atol=0)

    def test_quoted_comma_is_one_bad_field(self, tmp_path):
        self._rejects(tmp_path, '0.5,1,"1,0"\n', "line 2: bad covariate value")

    @pytest.mark.parametrize("status", ["1.0", "2", "", "true", "-0"])
    def test_status_must_be_exactly_0_or_1(self, tmp_path, status):
        self._rejects(tmp_path, f"0.5,1,1.0\n0.6,{status},1.0\n", "line 3: status must be 0 or 1")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_values(self, tmp_path, value):
        self._rejects(tmp_path, f"0.5,1,1.0\n0.6,0,{value}\n", "line 3: non-finite value in column x1")
        self._rejects(tmp_path, f"{value},1,1.0\n", "line 2: time must be finite and > 0")

    def test_time_must_be_positive(self, tmp_path):
        self._rejects(tmp_path, "0.5,1,1.0\n-0.0,1,1.0\n", "line 3: time must be finite and > 0")
        self._rejects(tmp_path, "abc,1,1.0\n", "line 2: bad time 'abc'")

    def test_field_count(self, tmp_path):
        self._rejects(tmp_path, "0.5,1,1.0,\n", "line 2: expected 3 fields, got 4")
        self._rejects(tmp_path, "0.5,1,1.0\n0.5,1\n", "line 3: expected 3 fields, got 2")
        self._rejects(tmp_path, "0.5,1,1.0\n   \n", "line 3: expected 3 fields, got 1")

    def test_no_comments(self, tmp_path):
        self._rejects(tmp_path, "0.5,1,1.0 # c\n", "line 2: bad covariate value")

    def test_underscore_digits_are_rejected(self, tmp_path):
        # Python's float() reads "1_0" as 10, numpy's reader does not
        self._rejects(tmp_path, "0.5,1,1_0\n", "line 2: bad covariate value")
        self._rejects(tmp_path, "0.5,1,1.0\n1_0,1,1.0\n", "line 3: bad time '1_0'")

    def test_first_bad_line_wins(self, tmp_path):
        self._rejects(tmp_path, "0.5,1,1.0\n0.5,1,oops\n0.5,3,1.0\n", "line 3: bad covariate value")

    def test_empty_and_header_only_files(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError, match="empty file"):
            load_dataset(path)
        for body in ("", "\n\n"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataValidationError, match="no data rows"):
                    self._load(tmp_path, body)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                st.booleans(),
                st.lists(FINITE, min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_write_then_load_is_bit_exact(self, tmp_path, rows):
        times, status, covariates = (np.array(col) for col in zip(*rows))
        if times.max() < MIN_FOLLOW_UP:  # too short for the arithmetic
            with pytest.raises(DataValidationError, match="largest follow-up time"):
                SurvivalDataset(times=times, status=status, covariates=covariates)
            return
        ds = SurvivalDataset(times=times, status=status, covariates=covariates)
        path = tmp_path / "round.csv"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert back.time_scale == 1.0
        assert back.times.tobytes() == ds.times.tobytes()
        assert back.covariates.tobytes() == ds.covariates.tobytes()
        assert np.array_equal(back.status, ds.status)

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), c=st.floats(min_value=1.0, max_value=1e6, exclude_min=True))
    def test_rescaled_raw_times_give_the_same_fit(self, tmp_path, seed, c):
        ds = random_dataset(np.random.default_rng(seed), n=30, d=4)
        ds.times[0] = 1.0  # the longest follow-up fixes the scale
        lines = ["time,status," + ",".join(ds.labels)]
        for t, s, x in zip(ds.times, ds.status, ds.covariates):
            lines.append(",".join([repr(c * float(t)), str(int(s))] + [repr(float(v)) for v in x]))
        path = tmp_path / "raw.csv"
        path.write_text("\n".join(lines) + "\n")
        back = load_dataset(path)
        assert back.time_scale == c
        assert_allclose(back.times, ds.times, rtol=1e-15, atol=0)
        assert back.covariates.tobytes() == ds.covariates.tobytes()
        assert np.array_equal(back.status, ds.status)

        def fitted(data):
            dictionary = linear_dictionary(data)
            system = build_gram(data, dictionary)
            weights = compute_weights(system)
            return fit(system, weights, tol=1e-13, weight_scale=0.05).beta

        expected = fitted(ds)
        assert_allclose(fitted(back), expected, rtol=0, atol=1e-12 * max(1.0, np.abs(expected).max()))


def stable_sort_timeline(z, status) -> dict:
    """The timeline's arrays from two stable sorts of the times, ascending
    and descending: ties keep record order in both."""
    n = z.shape[-1]
    ascending = np.argsort(z, axis=-1, kind="stable")
    zasc = np.take_along_axis(z, ascending, axis=-1)
    tie_start = np.ones(z.shape, dtype=bool)
    tie_start[..., 1:] = zasc[..., 1:] != zasc[..., :-1]
    first = np.maximum.accumulate(np.where(tie_start, np.arange(n), 0), axis=-1)
    end_interval = np.empty_like(first)
    np.put_along_axis(end_interval, ascending, first, axis=-1)
    breakpoints = np.concatenate([np.zeros(z.shape[:-1] + (1,)), zasc], axis=-1)
    return {
        "breakpoints": breakpoints,
        "lengths": np.diff(breakpoints, axis=-1),
        "at_risk": n - first,
        "desc_order": np.argsort(-z, axis=-1, kind="stable"),
        "status": status,
        "end_interval": end_interval,
    }


@st.composite
def tied_batches(draw):
    """Times of R <= 4 replications of n >= 1 records on a coarse grid
    k / levels, with a run of 1.0 (the end of follow-up) in each, and
    event flags: ties everywhere."""
    R, n, levels = draw(st.integers(1, 4)), draw(st.integers(1, 60)), draw(st.integers(1, 8))
    grid = st.lists(st.integers(1, levels), min_size=R * n, max_size=R * n)
    times = np.array(draw(grid), dtype=float).reshape(R, n) / levels
    for r in range(R):
        start = draw(st.integers(0, n - 1))
        times[r, start:start + draw(st.integers(1, n - start))] = 1.0
    status = np.array(draw(st.lists(st.booleans(), min_size=R * n, max_size=R * n)))
    return times, status.reshape(R, n)


class TestTimeline:
    def test_micro_instance_bookkeeping(self, micro_dataset):
        tl = build_timeline(micro_dataset)
        assert_allclose(tl.breakpoints, [0.0, 0.5, 1.0])
        assert_allclose(tl.lengths, [0.5, 0.5])
        # at risk on (0, 0.5]: both; on (0.5, 1]: only the second record
        assert list(tl.at_risk) == [2, 1]
        # follow-up times and last at-risk interval of the event records
        assert list(tl.follow_up[tl.status]) == [0.5, 1.0]
        assert list(tl.end_interval[tl.status]) == [0, 1]

    def test_at_risk_counts_match_definition(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            ds = random_dataset(rng)
            tl = build_timeline(ds)
            for k in range(len(tl.lengths)):
                mid = 0.5 * (tl.breakpoints[k] + tl.breakpoints[k + 1])
                assert tl.at_risk[k] == int(np.sum(ds.times >= mid))

    def test_prefix_sums_equal_masked_sums(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            ds = random_dataset(rng)
            tl = build_timeline(ds)
            v = rng.standard_normal(ds.n)
            sums = tl.prefix_sums(v)
            for k in range(len(tl.lengths)):
                mask = ds.times >= tl.breakpoints[k + 1]
                assert sums[k] == pytest.approx(v[mask].sum(), rel=1e-12, abs=1e-12)

    def test_risk_set_mean_micro(self, micro_dataset):
        tl = build_timeline(micro_dataset)
        mean = StepFunction(tl.breakpoints, tl.prefix_sums(np.array([0.0, 1.0])) / tl.at_risk)
        assert mean(0.25) == pytest.approx(0.5)
        assert mean(0.75) == pytest.approx(1.0)

    def test_take_rows_is_the_row_gather(self):
        rng = np.random.default_rng(31)
        wide = rng.standard_normal((4, 30, 5))
        index = rng.integers(0, 30, size=(4, 12))
        # contiguous and strided values, with and without trailing axes
        for values in (wide, wide[..., 2:], wide[..., 0], wide[..., 0].copy()):
            want = values[np.arange(4)[:, None], index]
            assert np.array_equal(take_rows(values, index), want)
            out = np.empty(want.shape)
            assert take_rows(values, index, out) is out
            assert np.array_equal(out, want)
            assert np.array_equal(take_rows(values[1], index[1]), values[1][index[1]])

    @settings(max_examples=200, deadline=None)
    @given(batch=tied_batches())
    def test_timeline_equals_the_two_stable_sort_construction(self, batch):
        times, status = batch
        ds = SurvivalDataset(times=times, status=status, covariates=np.zeros(times.shape + (1,)))
        for data in (ds, ds[0]):
            tl, want = build_timeline(data), stable_sort_timeline(data.times, data.status)
            assert tl.n == data.n
            for name, value in want.items():
                got = getattr(tl, name)
                assert got.dtype == np.asarray(value).dtype, name
                assert np.array_equal(got, value), name


class TestOrthogonality:
    """The centered at-risk values integrate to zero against any step
    function of time; holds exactly, checked to 1e-10 relative."""

    def test_constant_phi(self, micro_dataset):
        tl = build_timeline(micro_dataset)
        res = check_orthogonality(tl, np.array([0.0, 1.0]), StepFunction.constant(1.0))
        assert abs(res) <= 1e-12

    def test_single_record(self):
        ds = SurvivalDataset(
            times=np.array([0.7]), status=np.array([True]), covariates=np.array([[2.0]])
        )
        tl = build_timeline(ds)
        res = check_orthogonality(tl, np.array([2.0]), StepFunction.constant(3.0))
        assert res == 0.0

    def test_random_suite(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            ds = random_dataset(rng, n=int(rng.integers(2, 200)))
            tl = build_timeline(ds)
            v = rng.standard_normal(ds.n) * float(rng.uniform(0.5, 20.0))
            cuts = np.unique(rng.uniform(0.05, 0.95, size=int(rng.integers(1, 6))))
            phi = StepFunction(
                np.concatenate([[0.0], cuts, [1.0]]),
                rng.standard_normal(len(cuts) + 1) * 5.0,
            )
            scale = max(np.abs(v).max() * np.abs(phi.values).max() * ds.n, 1.0)
            assert abs(check_orthogonality(tl, v, phi)) <= 1e-10 * scale
