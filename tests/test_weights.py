"""Penalty weights: frozen constants, clamping, scaling laws, variance target.

Reference values were frozen from a 50-digit mpmath evaluation of the
closed-form expressions:

    loglog_term(1, 1, 1, 100) = 2 loglog((600 e + 56) / 24)
                              = 2.8950775504782659
    micro weight at x = 1     = 2 sqrt(2) sqrt((1 + lhat) / 2 * 1/8)
                              + (4 sqrt(14/3) + 2/3) (2 + lhat) / 2
                                with lhat = 2 loglog((1.5 e + 56) / 24 or e) = 0
                              = 10.014761045730361
"""

import math

import numpy as np
import pytest

from hazlasso import (
    DEFAULT_X,
    DictionaryMatrix,
    build_gram,
    compute_weights,
    linear_dictionary,
)
from hazlasso.bernstein import PAPER_NUMERIC
from hazlasso.simulate import default_config, noise_terms, simulate
from hazlasso.survival import SurvivalDataset
from hazlasso.weights import C1, C2, loglog_term

from conftest import random_dataset

LOGLOG_REFERENCE = 2.8950775504782659
MICRO_WEIGHT_X1 = 10.014761045730361


class TestConstants:
    def test_closed_forms(self):
        assert C1 == 2.0 * math.sqrt(2.0)
        assert C2 == 4.0 * math.sqrt(14.0 / 3.0) + 2.0 / 3.0
        assert DEFAULT_X == math.log(1.0 / 0.05)

    def test_same_as_the_paper_numeric_bernstein_constants(self):
        # the weights carry their own copy of c1 and c2; the two spellings
        # of c2 (4 sqrt(14/3) + 2/3 here, 2 sqrt(56/3) + 2/3 in bernstein)
        # round one ulp apart, so either may replace the other
        assert C1 == PAPER_NUMERIC.c1
        assert abs(C2 - PAPER_NUMERIC.c2) <= math.ulp(PAPER_NUMERIC.c2)


class TestLoglogTerm:
    def test_frozen_reference(self):
        np.testing.assert_allclose(loglog_term(1.0, 1.0, 1.0, 100), LOGLOG_REFERENCE, rtol=1e-15)

    def test_clamps_to_zero_when_variance_vanishes(self):
        # vhat = 0 leaves argument 56/24 = 7/3 < e, clamped to e, loglog(e) = 0
        assert loglog_term(0.0, 1.0, 1.0, 100) == 0.0
        assert loglog_term(0.0, 2.0, 5.0, 7) == 0.0

    def test_dead_column_is_zero(self):
        assert loglog_term(0.0, 0.0, 1.0, 100) == 0.0
        out = loglog_term(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0, 100)
        np.testing.assert_allclose(out, [LOGLOG_REFERENCE, 0.0], rtol=1e-15)

    def test_scalar_in_scalar_out(self):
        assert isinstance(loglog_term(1.0, 1.0, 1.0, 100), float)

    def test_scale_invariance(self):
        # vhat / sup^2 is what enters, so (c^2 vhat, c sup) changes nothing
        a = loglog_term(0.7, 1.3, 2.0, 50)
        b = loglog_term(0.7 * 9.0, 1.3 * 3.0, 2.0, 50)
        np.testing.assert_allclose(a, b, rtol=1e-15)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError, match="positive"):
            loglog_term(1.0, 1.0, 0.0, 100)
        with pytest.raises(ValueError, match="positive"):
            loglog_term(1.0, 1.0, -2.0, 100)


class TestComputeWeights:
    def test_micro_weight_frozen(self, micro_dataset):
        dic = linear_dictionary(micro_dataset)
        system = build_gram(micro_dataset, dic)
        wv = compute_weights(micro_dataset, dic, system, x=1.0)
        np.testing.assert_allclose(wv.vhat, [0.125], rtol=0, atol=1e-15)
        np.testing.assert_array_equal(wv.sup, [1.0])
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
        wv = compute_weights(micro_dataset, dic, system, x=1.0)
        assert wv.w[1] == 0.0
        assert wv.w[0] > 0.0

    def test_live_columns_get_positive_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            live = np.any(dic.values != 0.0, axis=0)
            wv = compute_weights(ds, dic, build_gram(ds, dic), x=1.0)
            assert np.all(wv.w[live] > 0.0)

    def test_exact_absolute_homogeneity(self):
        # scaling a column by c scales vhat by c^2, sup by |c|, lhat not at
        # all, so the weight scales exactly by |c|
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=30, d=3)
        dic = linear_dictionary(ds)
        base = compute_weights(ds, dic, build_gram(ds, dic), x=1.0)
        c = -4.0
        scaled_dic = DictionaryMatrix(values=c * dic.values, labels=dic.labels)
        scaled = compute_weights(ds, scaled_dic, build_gram(ds, scaled_dic), x=1.0)
        np.testing.assert_allclose(scaled.w, abs(c) * base.w, rtol=1e-12)

    def test_monotone_in_x(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=40, d=4)
        dic = linear_dictionary(ds)
        system = build_gram(ds, dic)
        grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        stack = np.array([compute_weights(ds, dic, system, x=x).w for x in grid])
        assert np.all(np.diff(stack, axis=0) >= 0.0)

    def test_rejects_nonpositive_x(self, micro_dataset):
        dic = linear_dictionary(micro_dataset)
        system = build_gram(micro_dataset, dic)
        with pytest.raises(ValueError, match="positive"):
            compute_weights(micro_dataset, dic, system, x=0.0)


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
        # hn; the result must be the separate centered pass, bit for bit
        rng = np.random.default_rng(11)
        for _ in range(10):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            system = build_gram(ds, dic)
            tl = system.timeline
            want = (tl.event_deviations(tl.centered(dic.values)) ** 2).sum(axis=0) / ds.n
            np.testing.assert_array_equal(compute_weights(ds, dic, system).vhat, want)
        wider = DictionaryMatrix(
            values=np.hstack([dic.values, dic.values[:, :1]]), labels=dic.labels + ["extra"]
        )
        with pytest.raises(ValueError, match="columns"):
            compute_weights(ds, wider, system)

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
