"""Gram assembly against hand integration and a literal reference evaluator.

The micro-instance constants below are worked out in the micro_dataset
fixture docstring: H = [[1/8]], hn = [-1/4], risk-set means 1/2 then 1.
"""

import csv

import numpy as np
import pytest

from hazlasso import (
    DictionaryMatrix,
    build_gram,
    build_timeline,
    compute_weights,
    dump_gram,
    empirical_norm_sq,
    empirical_norm_sq_fn,
    linear_dictionary,
    objective,
)
from hazlasso.survival import SurvivalDataset

from conftest import literal_inner, literal_norm_sq, random_dataset

MICRO_H = 0.125
MICRO_HN = -0.25


class TestBuildGram:
    def test_micro_instance(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        np.testing.assert_allclose(system.matrix, [[MICRO_H]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(system.vector, [MICRO_HN], rtol=0, atol=1e-15)
        assert system.labels == ["x1"]
        assert system.n == 2 and system.M == 1

    def test_single_record_is_degenerate(self):
        # one subject is its own risk-set mean, so everything centers to zero
        ds = SurvivalDataset(times=[1.0], status=[1], covariates=[[3.0]])
        system = build_gram(ds, linear_dictionary(ds))
        assert system.matrix[0, 0] == 0.0
        assert system.vector[0] == 0.0

    def test_duplicate_columns_share_entries(self, micro_dataset):
        dic = DictionaryMatrix(
            values=np.column_stack([micro_dataset.covariates[:, 0]] * 2), labels=["a", "b"]
        )
        system = build_gram(micro_dataset, dic)
        h = system.matrix
        assert h[0, 0] == h[1, 1] == h[0, 1] == h[1, 0]
        assert system.vector[0] == system.vector[1]

    def test_constant_column_drops_out(self):
        ds = SurvivalDataset(
            times=[0.3, 0.7, 1.0],
            status=[1, 0, 1],
            covariates=[[5.0, 1.0], [5.0, -2.0], [5.0, 0.5]],
        )
        system = build_gram(ds, linear_dictionary(ds))
        np.testing.assert_allclose(system.matrix[0], 0.0, atol=1e-14)
        assert abs(system.vector[0]) <= 1e-14

    def test_symmetric_and_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds = random_dataset(rng)
            system = build_gram(ds, linear_dictionary(ds))
            np.testing.assert_array_equal(system.matrix, system.matrix.T)
            floor = -1e-10 * max(np.linalg.norm(system.matrix), 1.0)
            assert np.linalg.eigvalsh(system.matrix).min() >= floor

    def test_row_order_invariance(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, n=25, d=3)
        perm = rng.permutation(ds.n)
        shuffled = SurvivalDataset(
            times=ds.times[perm],
            status=ds.status[perm],
            covariates=ds.covariates[perm],
            labels=ds.labels,
        )
        a = build_gram(ds, linear_dictionary(ds))
        b = build_gram(shuffled, linear_dictionary(shuffled))
        np.testing.assert_allclose(a.matrix, b.matrix, rtol=0, atol=1e-13)
        np.testing.assert_allclose(a.vector, b.vector, rtol=0, atol=1e-13)
        # risk-set centering also ignores a constant shift of every covariate,
        # and raw-scale columns must not lose accuracy to it; the weights'
        # sup-norm term does move with the shift, their variance term must not
        vhat = compute_weights(ds, linear_dictionary(ds), a).vhat
        for offset in (1e4, 1e6):
            moved = SurvivalDataset(
                times=ds.times, status=ds.status, covariates=ds.covariates + offset
            )
            dic = linear_dictionary(moved)
            c = build_gram(moved, dic)
            pairs = [(c.matrix, a.matrix), (c.vector, a.vector)]
            pairs.append((compute_weights(moved, dic, c).vhat, vhat))
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_dictionary_row_mismatch_raises(self, micro_dataset):
        dic = DictionaryMatrix(values=np.ones((3, 1)), labels=["a"])
        with pytest.raises(ValueError, match="match"):
            build_gram(micro_dataset, dic)


class TestNorms:
    def test_quadratic_form_matches_direct_integration(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            ds = random_dataset(rng)
            dic = linear_dictionary(ds)
            system = build_gram(ds, dic)
            beta = rng.normal(size=ds.d)
            quad = empirical_norm_sq(system, beta)
            direct = empirical_norm_sq_fn(system.timeline, dic.values @ beta)
            literal = literal_norm_sq(ds, dic.values @ beta)
            scale = max(abs(quad), 1e-12)
            assert abs(quad - direct) <= 1e-10 * scale
            assert abs(quad - literal) <= 1e-10 * scale

    def test_quadratic_homogeneity(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        base = empirical_norm_sq(system, [1.0])
        np.testing.assert_allclose(empirical_norm_sq(system, [-3.0]), 9.0 * base, rtol=1e-15)

    def test_inner_product_matches_literal(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            ds = random_dataset(rng)
            tl = build_timeline(ds)
            u = rng.normal(size=ds.n)
            v = rng.normal(size=ds.n)
            got = tl.cross_moment(tl.centered(u), tl.centered(v))[0, 0]
            want = literal_inner(ds, u, v)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)
            # polarization: <u, v> recovered from the three squared norms
            polar = 0.5 * (
                empirical_norm_sq_fn(tl, u + v)
                - empirical_norm_sq_fn(tl, u)
                - empirical_norm_sq_fn(tl, v)
            )
            assert abs(got - polar) <= 1e-9 * max(abs(want), 1.0)

    def test_cross_products_reproduce_gram_columns(self):
        # H[:, j] is by definition the cross product of every column with column j
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, n=30, d=4)
        dic = linear_dictionary(ds)
        system = build_gram(ds, dic)
        tl = system.timeline
        for j in range(ds.d):
            col = tl.cross_moment(tl.centered(dic.values), tl.centered(dic.values[:, j]))[:, 0]
            np.testing.assert_allclose(col, system.matrix[:, j], rtol=0, atol=1e-12)


class TestObjective:
    def test_micro_values(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        np.testing.assert_allclose(objective(system, [1.0]), 0.625, rtol=0, atol=1e-15)
        # unpenalized minimum at beta = hn / H = -2 with value -hn^2 / H
        np.testing.assert_allclose(objective(system, [-2.0]), -0.5, rtol=0, atol=1e-15)

    def test_penalty_term(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        plain = objective(system, [-2.0])
        with_pen = objective(system, [-2.0], weights=[0.3], kappa=2.0)
        np.testing.assert_allclose(with_pen - plain, 2.0 * 0.3 * 2.0, rtol=1e-15)


class TestDumpGram:
    def test_round_trip_is_exact(self, tmp_path):
        # repr-formatted floats parse back bit for bit
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, n=20, d=3)
        system = build_gram(ds, linear_dictionary(ds))
        path = tmp_path / "gram.csv"
        dump_gram(system, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label"] + system.labels + ["hn"]
        assert [r[0] for r in rows[1:]] == system.labels
        matrix = np.array([[float(c) for c in r[1:-1]] for r in rows[1:]])
        vector = np.array([float(r[-1]) for r in rows[1:]])
        np.testing.assert_array_equal(matrix, system.matrix)
        np.testing.assert_array_equal(vector, system.vector)
