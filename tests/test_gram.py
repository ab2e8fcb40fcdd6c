"""Gram assembly against hand integration and a literal reference evaluator.

The micro-instance constants below are worked out in the micro_dataset
fixture docstring: H = [[1/8]], hn = [-1/4], risk-set means 1/2 then 1.
"""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hazlasso.survival import _BLOCK_ROWS, SurvivalDataset, build_timeline

from conftest import literal_inner, literal_norm_sq, random_dataset

MICRO_H = 0.125
MICRO_HN = -0.25


@st.composite
def literal_cases(draw):
    """A dataset with tied times, administrative censoring at 1 (zero-length
    intervals), possibly a single record and constant columns, and a
    second matrix of per-record values."""
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a coarse grid of times makes ties
    times = rng.choice([0.2, 0.45, 0.7, 1.0, rng.uniform(0.01, 1.0)], size=n)
    status = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    x = rng.standard_normal((n, d)) * draw(st.sampled_from([1.0, 1e3]))
    constant = rng.uniform(size=d) < draw(st.sampled_from([0.0, 0.5]))
    x[:, constant] = draw(st.sampled_from([0.0, 1.0, -250.0]))
    other = rng.standard_normal((n, 2)) + 7.0
    return SurvivalDataset(times=times, status=status, covariates=x), other


class TestBuildGram:
    def test_micro_instance(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        np.testing.assert_allclose(system.matrix, [[MICRO_H]], rtol=0, atol=1e-15)
        np.testing.assert_allclose(system.vector, [MICRO_HN], rtol=0, atol=1e-15)
        assert system.n == 2 and system.M == 1

    def test_single_record_is_degenerate(self):
        # one subject is its own risk-set mean, so everything centers to zero
        ds = SurvivalDataset(times=[1.0], status=[1], covariates=[[3.0]])
        with pytest.warns(UserWarning, match="constant dictionary column\\(s\\): x1"):
            dictionary = linear_dictionary(ds)
        system = build_gram(ds, dictionary)
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
        with pytest.warns(UserWarning, match="constant dictionary column\\(s\\): x1$"):
            dictionary = linear_dictionary(ds)
        system = build_gram(ds, dictionary)
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

    @pytest.mark.filterwarnings("ignore:constant dictionary column")
    @settings(max_examples=60, deadline=None)
    @given(case=literal_cases())
    def test_matches_literal_inner_products(self, case):
        ds, other = case
        x = ds.covariates
        system = build_gram(ds, linear_dictionary(ds))
        np.testing.assert_array_equal(system.matrix, system.matrix.T)
        want = np.array([[literal_inner(ds, a, b) for b in x.T] for a in x.T])
        # relative to the largest entry; the floor is the roundoff of
        # centering when every column is constant
        scale = np.abs(want).max() + 1e-12 * np.abs(x).max() ** 2
        np.testing.assert_allclose(system.matrix, want, rtol=0, atol=1e-12 * scale)
        tl = system.timeline
        got = tl.cross_moment(tl.centered(x), tl.centered(other))
        want = np.array([[literal_inner(ds, a, b) for b in other.T] for a in x.T])
        scale = np.abs(want).max() + 1e-12 * np.abs(x).max() * np.abs(other).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

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
        weights = compute_weights(a)
        np.testing.assert_allclose(compute_weights(b), weights, rtol=1e-13)
        # risk-set centering also ignores a constant shift of every covariate,
        # and raw-scale columns must not lose accuracy to it; neither may the
        # weights, whose variance and half-range terms ignore the shift too
        for offset in (1e4, 1e6):
            moved = SurvivalDataset(
                times=ds.times, status=ds.status, covariates=ds.covariates + offset
            )
            dic = linear_dictionary(moved)
            c = build_gram(moved, dic)
            moved_w = compute_weights(c)
            pairs = [(c.matrix, a.matrix), (c.vector, a.vector)]
            pairs += [(c.vhat, a.vhat), (moved_w, weights)]
            for got, want in pairs:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * np.abs(want).max())

    def test_dictionary_row_mismatch_raises(self, micro_dataset):
        with pytest.warns(UserWarning, match="constant dictionary column"):
            dic = DictionaryMatrix(values=np.ones((3, 1)), labels=["a"])
        with pytest.raises(ValueError, match="match"):
            build_gram(micro_dataset, dic)


def materialised_system(timeline, values):
    """H, hn and vhat with every (n, M) array made whole: the centered
    values, their running sums in decreasing follow-up, the event
    deviations and the Welford increments, with the arithmetic of the
    blocked build."""
    tl = timeline
    c = values - values.mean(axis=-2, keepdims=True)
    desc = np.take_along_axis(c, tl.desc_order[..., None], axis=-2)
    running = np.cumsum(desc, axis=-2)
    counts = np.take_along_axis(tl.at_risk, tl.end_interval, axis=-1)
    leading = np.take_along_axis(running, (counts - 1)[..., None], axis=-2)
    dev = c - leading / counts.astype(float)[..., None]
    dev[~tl.status] = 0.0
    before = np.arange(1.0, tl.n)
    scale = np.sqrt(tl.breakpoints[..., :0:-1][..., 1:] * (before / ((before + 1.0) * tl.n)))
    inc = np.zeros_like(desc)
    inc[..., 1:, :] = (desc[..., 1:, :] - running[..., :-1, :] / before[:, None]) * scale[..., None]
    matrix = np.swapaxes(inc, -1, -2) @ inc
    return matrix, dev.sum(axis=-2) / tl.n, (dev * dev).sum(axis=-2) / tl.n


def block_edge_records(rng, n, d):
    """Times, status and an (n, d + 2) block of values whose last d columns
    are the covariates. Half the times sit on a coarse grid, so the
    decreasing follow-up order has long tied runs; a tied run straddles
    every record block boundary, and the records on both sides of each
    boundary, the first and the last are censored."""
    times = rng.uniform(0.01, 1.0, size=n)
    coarse = rng.uniform(size=n) < 0.5
    times[coarse] = rng.choice([0.15, 0.4, 0.65, 1.0], size=coarse.sum())
    status = rng.uniform(size=n) < 0.7
    for edge in range(_BLOCK_ROWS, n, _BLOCK_ROWS):
        times[edge - 3:edge + 3] = rng.uniform(0.05, 0.95)
        status[[edge - 1, edge]] = False
    status[[0, n - 1]] = False
    return times, status, rng.standard_normal((n, d + 2)) + 3.0


class TestBlockedBuild:
    """build_gram reads the centered rows and makes the event deviations a
    block of rows at a time, and writes the increments of H over the
    running sums; it gives what the whole arrays give, bit for bit."""

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("d", [1, 2, 7])
    @pytest.mark.parametrize("n", [2 * _BLOCK_ROWS + 77, _BLOCK_ROWS + 1, _BLOCK_ROWS])
    def test_equals_the_materialised_route(self, n, d, batch):
        rng = np.random.default_rng(n + d)
        draws = [block_edge_records(rng, n, d) for _ in range(batch or 1)]
        times, status, block = (np.stack(arrays) for arrays in zip(*draws))
        if batch is None:
            times, status, block = times[0], status[0], block[0]
        # a strided view of the covariates, as load_dataset gives them
        ds = SurvivalDataset(times=times, status=status, covariates=block[..., 2:])
        system = build_gram(ds, linear_dictionary(ds))
        matrix, vector, vhat = materialised_system(system.timeline, ds.covariates)
        np.testing.assert_array_equal(system.matrix, matrix)
        np.testing.assert_array_equal(system.vector, vector)
        np.testing.assert_array_equal(system.vhat, vhat)

    def test_holds_one_full_size_array(self):
        n, d = 3000, 60
        ds = random_dataset(np.random.default_rng(5), n=n, d=d)
        dictionary, timeline = linear_dictionary(ds), build_timeline(ds)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build_gram(ds, dictionary, timeline)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the running sums are n * d * 8 bytes; blocks of rows add little
        assert peak < 1.5 * n * d * 8


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
        dump_gram(system, ds.labels, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label"] + ds.labels + ["hn"]
        assert [r[0] for r in rows[1:]] == ds.labels
        matrix = np.array([[float(c) for c in r[1:-1]] for r in rows[1:]])
        vector = np.array([float(r[-1]) for r in rows[1:]])
        np.testing.assert_array_equal(matrix, system.matrix)
        np.testing.assert_array_equal(vector, system.vector)
        with pytest.raises(ValueError, match="3 labels required, got 2"):
            dump_gram(system, ds.labels[:2], path)
