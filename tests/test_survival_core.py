"""Step functions, dataset validation, and risk-set timeline bookkeeping.

Reference values in this file are hand integrations of piecewise-constant
functions on explicit grids; each is rederivable with pencil and paper.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_dataset
from hazlasso import (
    DataValidationError,
    StepFunction,
    SurvivalDataset,
    build_timeline,
    check_orthogonality,
    integrate_product,
    load_dataset,
    risk_set_mean,
    write_dataset,
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

    def test_integrate_product_exact(self):
        # int fg = 1*2*0.5 + 3*2*0.25 + 3*5*0.25 = 1 + 1.5 + 3.75
        f = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0]))
        g = StepFunction(np.array([0.0, 0.75, 1.0]), np.array([2.0, 5.0]))
        assert integrate_product(f, g) == pytest.approx(6.25, abs=1e-15)

    def test_integrate_product_with_weight(self):
        f = StepFunction.constant(2.0)
        g = StepFunction.constant(3.0)
        w = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.0]))
        assert integrate_product(f, g, w) == pytest.approx(3.0, abs=1e-15)


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


class TestTimeline:
    def test_micro_instance_bookkeeping(self, micro_dataset):
        tl = build_timeline(micro_dataset)
        assert_allclose(tl.breakpoints, [0.0, 0.5, 1.0])
        assert_allclose(tl.lengths, [0.5, 0.5])
        # at risk on (0, 0.5]: both; on (0.5, 1]: only the second record
        assert list(tl.at_risk) == [2, 1]
        assert list(tl.event_times) == [0.5, 1.0]
        assert list(tl.event_interval) == [0, 1]

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
        mean = risk_set_mean(build_timeline(micro_dataset), np.array([0.0, 1.0]))
        assert mean(0.25) == pytest.approx(0.5)
        assert mean(0.75) == pytest.approx(1.0)


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
