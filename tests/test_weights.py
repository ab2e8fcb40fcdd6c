"""Penalty weights: the union-level Bernstein bound, its log-log term,
scaling and shift laws, variance target.

Reference values were frozen from a 50-digit mpmath evaluation of the
closed-form expressions on the micro instance (n = 2, M = 1, vhat = 1/8,
half-range r = 1/2), where the weight is the bound at level x + log 1 = x:

    loglog argument (6 e n vhat + 56 e x r^2) / (112 r^2) = (1.5 + 14 x) e / 28
    micro weight at x = 1 = c1 sqrt(1/2 * 1/8) + c2 * 2/2 * 1/2
                            with lhat = 0 (argument 15.5 e / 28 < e, clamped)
                          = 5.3609339134584543
    micro log-log at x = 4 = 2 loglog(115 e / 56) = 1.0841606589152755
"""

import math
import warnings

import numpy as np
import pytest

from hazlasso import (
    DEFAULT_X,
    DictionaryMatrix,
    bound_empirical,
    build_gram,
    compute_weights,
    linear_dictionary,
)
from hazlasso.bernstein import PAPER_NUMERIC, half_range, loglog_correction
from hazlasso.simulate import default_config, noise_terms, simulate
from hazlasso.survival import SurvivalDataset

from conftest import random_dataset

MICRO_WEIGHT_X1 = 5.3609339134584543
MICRO_LOGLOG_X4 = 1.0841606589152755


def weights_of(ds, values, x=1.0):
    dic = DictionaryMatrix(values=values, labels=[f"h{j}" for j in range(values.shape[-1])])
    return compute_weights(build_gram(ds, dic), x=x)


class TestConstants:
    def test_closed_forms(self):
        # the weights use the paper's numeric Bernstein constants; c2 has
        # the closed forms 2 sqrt(56/3) + 2/3 = 4 sqrt(14/3) + 2/3, which
        # round at most one ulp apart
        assert PAPER_NUMERIC.c1 == 2.0 * math.sqrt(2.0)
        c2 = 4.0 * math.sqrt(14.0 / 3.0) + 2.0 / 3.0
        assert abs(PAPER_NUMERIC.c2 - c2) <= math.ulp(c2)
        assert DEFAULT_X == math.log(1.0 / 0.05)

    def test_same_as_the_paper_numeric_bernstein_constants(self):
        # the weight vector is the audited bound at the union level x + log M,
        # bit for bit
        rng = np.random.default_rng(6)
        for _ in range(10):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            system = build_gram(ds, dic)
            for x in (0.5, DEFAULT_X):
                wv = compute_weights(system, x=x)
                level = x + math.log(dic.M)
                r = half_range(dic.values)
                np.testing.assert_array_equal(wv.half_range, r)
                np.testing.assert_array_equal(
                    wv.w, bound_empirical(wv.vhat, r, level, ds.n, PAPER_NUMERIC)
                )
                np.testing.assert_array_equal(
                    wv.loglog, loglog_correction(wv.vhat, r, level, ds.n, PAPER_NUMERIC)
                )


class TestLoglogTerm:
    """The weights' log-log term, reported per column as ``loglog``."""

    def test_frozen_reference(self, micro_dataset):
        dic = linear_dictionary(micro_dataset)
        wv = compute_weights(build_gram(micro_dataset, dic), x=4.0)
        np.testing.assert_allclose(wv.loglog, [MICRO_LOGLOG_X4], rtol=1e-14)

    def test_clamps_to_zero_when_variance_vanishes(self):
        # no events: vhat = 0 leaves the argument at e (x + log M) / 2, which
        # the clamp holds at e for x + log M < 2; the weight is then the
        # jump term c2 (x + 1 + log M) / n * r alone
        ds = SurvivalDataset(times=[0.4, 0.9, 1.0], status=[0, 0, 0], covariates=[[1.0], [2.0], [4.0]])
        wv = weights_of(ds, ds.covariates, x=1.5)
        np.testing.assert_array_equal(wv.vhat, [0.0])
        np.testing.assert_array_equal(wv.loglog, [0.0])
        np.testing.assert_allclose(wv.w, [PAPER_NUMERIC.c2 * 2.5 / 3.0 * 1.5], rtol=1e-15)
        assert weights_of(ds, ds.covariates, x=2.5).loglog[0] > 0.0

    def test_dead_column_is_zero(self):
        ds = random_dataset(np.random.default_rng(12), n=25, d=2)
        for c in (0.0, 1e-3, 1.0 / 3.0, 1.0, 1e4 + 0.1, 1e8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the constant column warns
                wv = weights_of(ds, np.column_stack([ds.covariates, np.full(ds.n, c)]))
            assert wv.half_range[-1] == wv.loglog[-1] == wv.w[-1] == 0.0
            assert np.all(wv.w[:-1] > 0.0)

    def test_scale_invariance(self):
        # vhat / r^2 is what enters, so scaling a column leaves its term alone
        ds = random_dataset(np.random.default_rng(13), n=40, d=3)
        base = weights_of(ds, ds.covariates, x=3.0)
        scaled = weights_of(ds, ds.covariates * np.array([9.0, -0.25, 1e3]), x=3.0)
        assert np.any(base.loglog > 0.0)
        np.testing.assert_allclose(scaled.loglog, base.loglog, rtol=1e-12)

    def test_rejects_nonpositive_x(self, micro_dataset):
        dic = linear_dictionary(micro_dataset)
        system = build_gram(micro_dataset, dic)
        for x in (-2.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                compute_weights(system, x=x)


class TestComputeWeights:
    def test_micro_weight_frozen(self, micro_dataset):
        dic = linear_dictionary(micro_dataset)
        system = build_gram(micro_dataset, dic)
        wv = compute_weights(system, x=1.0)
        np.testing.assert_allclose(wv.vhat, [0.125], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(wv.half_range, [0.5])
        np.testing.assert_array_equal(wv.loglog, [0.0])
        np.testing.assert_allclose(wv.w, [MICRO_WEIGHT_X1], rtol=1e-15)
        assert wv.labels == ["x1"] and wv.n == 2 and wv.M == 1

    def test_dead_column_gets_zero_weight(self, micro_dataset):
        with pytest.warns(UserWarning):
            dic = DictionaryMatrix(
                values=np.column_stack([micro_dataset.covariates[:, 0], [0.0, 0.0]]),
                labels=["live", "dead"],
            )
        system = build_gram(micro_dataset, dic)
        wv = compute_weights(system, x=1.0)
        assert wv.w[1] == 0.0
        assert wv.w[0] > 0.0

    def test_live_columns_get_positive_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            live = np.ptp(dic.values, axis=0) > 0.0
            wv = compute_weights(build_gram(ds, dic), x=1.0)
            assert np.all(wv.w[live] > 0.0)
            assert np.all(wv.w[~live] == 0.0)

    def test_exact_absolute_homogeneity(self):
        # scaling a column by c scales vhat by c^2, r by |c|, lhat not at
        # all, so the weight scales exactly by |c|; a shift changes none
        # of them
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=30, d=3)
        dic = linear_dictionary(ds)
        base = compute_weights(build_gram(ds, dic), x=1.0)
        for c, shift in ((-4.0, 0.0), (1.0, 7.5), (-4.0, -1e3)):
            moved = DictionaryMatrix(values=c * dic.values + shift, labels=dic.labels)
            got = compute_weights(build_gram(ds, moved), x=1.0)
            np.testing.assert_allclose(got.w, abs(c) * base.w, rtol=1e-12)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=40, d=4)
        dic = linear_dictionary(ds)
        system = build_gram(ds, dic)
        grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        stack = np.array([compute_weights(system, x=x).w for x in grid])
        assert np.all(np.diff(stack, axis=0) >= 0.0)

    def test_rejects_nonpositive_x(self, micro_dataset):
        dic = linear_dictionary(micro_dataset)
        system = build_gram(micro_dataset, dic)
        with pytest.raises(ValueError, match="positive"):
            compute_weights(system, x=0.0)


class TestEmpiricalVariance:
    def test_no_events_means_zero(self):
        ds = SurvivalDataset(times=[0.4, 0.9], status=[0, 0], covariates=[[1.0], [2.0]])
        dic = linear_dictionary(ds)
        np.testing.assert_array_equal(build_gram(ds, dic).vhat, [0.0])

    def test_matches_literal_event_sum(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            system = build_gram(ds, dic)
            got = system.vhat
            want = np.zeros(ds.d)
            for i in np.flatnonzero(ds.status):
                at_risk = ds.times >= ds.times[i]
                mean = dic.values[at_risk].mean(axis=0)
                want += (dic.values[i] - mean) ** 2
            np.testing.assert_allclose(got, want / ds.n, rtol=0, atol=1e-12)

    def test_reads_the_gram_pass_bit_for_bit(self):
        # build_gram squares the event deviations it already computes for
        # hn; the weights read that, the separate centered pass bit for
        # bit, and the half-range the dictionary took, which is
        # bernstein.half_range's
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            system = build_gram(ds, dic)
            tl = system.timeline
            want = tl.event_moments(tl.centered(dic.values))[1] / ds.n
            wv = compute_weights(system)
            np.testing.assert_array_equal(wv.vhat, want)
            np.testing.assert_array_equal(wv.half_range, half_range(dic.values))

    def test_tracks_predictable_variation_as_n_grows(self):
        # vhat and the predictable variation estimate the same limit; their
        # relative gap should shrink along n = 100, 400, 1600 (seed-averaged
        # to keep the check stable)
        gaps = []
        for n in (100, 400, 1600):
            rel = []
            for seed in range(5):
                cfg = default_config(seed=300 + seed)
                cfg.n = n
                truth = simulate(cfg)
                ds = truth.dataset
                dic = linear_dictionary(ds)
                system = build_gram(ds, dic)
                vhat = system.vhat[0]
                v = noise_terms(truth, dic.values[:, 0], system.timeline)[2]
                rel.append(abs(vhat - v) / v)
            gaps.append(np.mean(rel))
        assert gaps[2] < gaps[0]
