"""Active-set solver against closed forms and two independent references.

The grid oracle minimizes the penalized contrast by brute force over an
iteratively refined lattice, and the proximal-gradient (ISTA) reference
iterates a soft threshold on the full gradient; both are independent of
the solver's code, so agreement certifies it.
"""

import types
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hazlasso import (
    DictionaryMatrix,
    GramSystem,
    LassoFit,
    SimulationConfig,
    StepFunction,
    SurvivalDataset,
    active_kernel,
    build_gram,
    compute_weights,
    fit,
    fit_path,
    linear_dictionary,
    objective,
)
from hazlasso.simulate import GaussianCovariates, UniformCensoring, simulate
import hazlasso.solver as solver
from hazlasso.solver import _singular_direction as singular_direction
from hazlasso.solver import _fresh_factor as fresh_factor
from hazlasso.solver import _RCOND, CONSTRAINTS, kkt_violations
from hazlasso.solver import _gram_product

from conftest import random_dataset
from exact_lasso import exact_lasso

MICRO_SOFT_THRESHOLD = -1.6  # ST(-0.25, 0.05) / 0.125 on the micro instance


def grid_minimize(system, weights, kappa, constraint, rounds=6, points=21):
    """Brute-force minimizer over a shrinking lattice (M <= 3 only)."""
    H, hn, w = system.matrix, system.vector, weights
    M = len(hn)
    assert M <= 3
    unpen = np.linalg.lstsq(H, hn, rcond=None)[0]
    center = np.zeros(M)
    radius = 2.0 * (1.0 + np.abs(unpen).max())
    best = None
    for _ in range(rounds):
        axes = [np.linspace(center[j] - radius, center[j] + radius, points) for j in range(M)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, M)
        if constraint == "nonnegative":
            pts = np.maximum(pts, 0.0)
        vals = np.einsum("pj,jk,pk->p", pts, H, pts) - 2.0 * pts @ hn
        vals += kappa * np.abs(pts) @ w
        k = int(np.argmin(vals))
        center, best = pts[k], float(vals[k])
        radius *= 2.5 / (points - 1)  # keep a margin past the old spacing
    return center, best


def ista(system, penalties, constraint, tol=1e-12, max_iter=200_000):
    """Proximal-gradient minimizer, one column of `penalties` per problem.

    Iterates b <- prox(b - grad / L) with L = 2 lambda_max(H) until no
    coefficient moves by more than tol.
    """
    H, hn = system.matrix, system.vector
    step = 1.0 / (2.0 * np.linalg.eigvalsh(H)[-1])
    B = np.zeros(penalties.shape)
    for _ in range(max_iter):
        Z = B - step * 2.0 * (H @ B - hn[:, None])
        if constraint == "nonnegative":
            new = np.maximum(Z - step * penalties, 0.0)
        else:
            new = np.sign(Z) * np.maximum(np.abs(Z) - step * penalties, 0.0)
        moved = np.abs(new - B).max()
        B = new
        if moved <= tol:
            return B
    raise AssertionError("ISTA reference did not converge")


CORRELATED_GRID = np.geomspace(1.0, 0.01, 20)


def correlated(n, seed=909):
    """rho = 0.9 AR(1) covariates, n x 40, data-driven weights."""
    d = 40
    beta0 = np.zeros(d)
    beta0[[0, 1, 2]] = [1.0, 1.0, -0.5]
    config = SimulationConfig(
        n=n,
        d=d,
        beta0=beta0,
        baseline=StepFunction.constant(2.0),
        covariates=GaussianCovariates(rho=0.9, clip=3.0),
        censoring=UniformCensoring(c_max=2.5),
        seed=seed,
    )
    ds = simulate(config).dataset
    dic = linear_dictionary(ds)
    system = build_gram(ds, dic)
    return system, compute_weights(system)


@pytest.fixture(scope="module")
def correlated_problem():
    return correlated(150)


def assert_chained_cold_fits(system, weights, path, **options):
    """Each scale of a path equals a cold fit started from the previous
    scale's coefficients: the same steps, flags and active set, and beta
    to 1e-12, whatever the path carried from one scale to the next."""
    start = None
    for f in path:
        cold = fit(system, weights, weight_scale=f.weight_scale, start=start, **options)
        assert (f.sweeps, f.converged) == (cold.sweeps, cold.converged)
        np.testing.assert_array_equal(f.active_set, cold.active_set)
        np.testing.assert_allclose(f.beta, cold.beta, rtol=0, atol=1e-12)
        start = f.beta


class TestClosedForms:
    def test_micro_soft_threshold(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        f = fit(system, np.array([0.1]), tol=1e-12)
        assert f.converged
        np.testing.assert_allclose(f.beta, [MICRO_SOFT_THRESHOLD], rtol=1e-12)
        assert f.kkt_max_violation <= 1e-12

    def test_micro_unpenalized_limit(self, micro_dataset):
        # weights ~ 0 recover the least-squares solution hn / H = -2
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        f = fit(system, np.array([1e-14]), tol=1e-12)
        np.testing.assert_allclose(f.beta, [-2.0], rtol=1e-10)

    def test_micro_nonnegative_pins_at_zero(self, micro_dataset):
        # the unconstrained minimizer is negative, so the cone solution is 0
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        f = fit(system, np.array([0.1]), constraint="nonnegative")
        assert f.converged
        np.testing.assert_array_equal(f.beta, [0.0])

    def test_total_shrinkage(self, micro_dataset):
        # w >= |2 hn| / kappa makes 0 stationary
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        f = fit(system, np.array([0.6]))
        assert f.converged
        np.testing.assert_array_equal(f.beta, [0.0])


class TestAgainstGridOracle:
    @pytest.mark.parametrize("constraint", ["unconstrained", "nonnegative"])
    def test_thirty_instances(self, constraint):
        rng = np.random.default_rng(42)
        for _ in range(30):
            ds = random_dataset(rng, d=int(rng.integers(1, 4)))
            system = build_gram(ds, linear_dictionary(ds))
            weights = rng.uniform(0.02, 0.3, size=ds.d)
            kappa = float(rng.choice([1.0, 2.0]))
            f = fit(system, weights, kappa=kappa, constraint=constraint, tol=1e-10)
            assert f.converged
            beta_grid, val_grid = grid_minimize(system, weights, kappa, constraint)
            val_fit = objective(system, f.beta, weights=weights, kappa=kappa)
            scale = max(abs(val_grid), 1.0)
            assert val_fit <= val_grid + 1e-9 * scale  # never worse than the lattice
            assert abs(val_fit - val_grid) <= 1e-6 * scale
            np.testing.assert_allclose(f.beta, beta_grid, rtol=0, atol=1e-3)


class TestCertificates:
    def test_trace_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ds = random_dataset(rng)
            system = build_gram(ds, linear_dictionary(ds))
            weights = rng.uniform(0.01, 0.2, size=ds.d)
            f = fit(system, weights)
            assert np.all(np.diff(f.objective_trace) <= 1e-12)

    def test_converged_means_kkt_within_tol(self, correlated_problem):
        # the residual that stops the solver is the one it reports: plain
        # and nonnegative fits, and every row of a descending path
        rng = np.random.default_rng(6)
        problems = []
        for tol in (1e-6, 1e-10):
            ds = random_dataset(rng, n=30, d=4)
            system = build_gram(ds, linear_dictionary(ds))
            weights = rng.uniform(0.01, 0.2, size=ds.d)
            problems.append((system, weights, tol, [4.0, 1.0, 0.25, 0.05]))
        problems.append((*correlated_problem, 1e-10, CORRELATED_GRID))
        for system, weights, tol, grid in problems:
            fits = []
            for constraint in CONSTRAINTS:
                fits.append(fit(system, weights, constraint=constraint, tol=tol))
                fits += fit_path(system, weights, grid, constraint=constraint, tol=tol)
            for f in fits:
                assert f.converged
                assert f.kkt_max_violation <= tol
                viol = kkt_violations(
                    system, weights, f.beta, f.kappa, f.constraint, f.weight_scale
                )
                assert np.delete(viol, f.pinned).max(initial=0.0) == f.kkt_max_violation

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        constraint=st.sampled_from(CONSTRAINTS),
        kappa=st.sampled_from([1.0, 2.0]),
    )
    def test_certificate_at_zero(self, seed, m, constraint, kappa):
        # a random SPD system where some columns are pinned, by a zero
        # half-range or a zero H_jj, and the live ones meet the KKT
        # conditions at zero, some only up to tol: the fit certifies zero
        # as the loop would, bit for bit, on its own and on a path
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m + 3, m))
        H, hn = a.T @ a / (m + 3), rng.standard_normal(m)
        half = np.ones(m)
        half[rng.random(m) < 0.2] = 0.0
        flat = rng.random(m) < 0.2
        H[flat], H[:, flat] = 0.0, 0.0
        dead = (half == 0.0) | flat
        system = replace(gram_system(H, hn), half_range=half)
        tol = 1e-8
        pull = hn if constraint == "nonnegative" else np.abs(hn)
        weights = np.maximum(2.0 * pull - tol * rng.uniform(0.0, 0.9, m), 0.0) / kappa
        f = fit(system, weights, kappa=kappa, constraint=constraint, tol=tol)
        viol = kkt_violations(system, weights, np.zeros(m), kappa, constraint)
        assert f.converged and f.sweeps == 0
        np.testing.assert_array_equal(f.beta, np.zeros(m))
        assert f.objective_trace.tolist() == [0.0] and not np.signbit(f.objective_trace[0])
        assert f.kkt_max_violation == viol[~dead].max(initial=0.0)
        np.testing.assert_array_equal(f.pinned, np.flatnonzero(dead))
        assert f.pinned_violation == viol[dead].max(initial=0.0)
        (first,) = fit_path(system, weights, [1.0], kappa=kappa, constraint=constraint, tol=tol)
        for name in ("converged", "sweeps", "kkt_max_violation", "pinned_violation"):
            assert getattr(first, name) == getattr(f, name)
        np.testing.assert_array_equal(first.pinned, f.pinned)
        if dead.all():
            return
        # one live column that violates at zero, by 1.6 tol up to 1: the
        # fit must move
        j = int(rng.choice(np.flatnonzero(~dead)))
        system.vector[j] = 1.0
        weights[j] = (2.0 - tol * 10.0 ** rng.uniform(0.2, 8.0)) / kappa
        moved = fit(system, weights, kappa=kappa, constraint=constraint, tol=tol)
        assert moved.converged and moved.sweeps >= 1 and moved.beta.any()
        assert len(moved.objective_trace) == moved.sweeps + 1

    def test_perturbation_breaks_kkt(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=30, d=3)
        system = build_gram(ds, linear_dictionary(ds))
        weights = np.array([0.05, 0.05, 0.05])
        f = fit(system, weights, tol=1e-10)
        bumped = f.beta.copy()
        bumped[0] += 0.1
        assert kkt_violations(system, weights, bumped).max() > 1e-3

    def test_zero_weights_violation_is_gradient_norm(self, micro_dataset):
        # at beta = 0 with no penalty the KKT residual is |2 hn| exactly
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        weights = np.array([0.0])
        viol = kkt_violations(system, weights, np.zeros(1))
        np.testing.assert_allclose(viol, np.abs(2.0 * system.vector), rtol=1e-15)

    def test_dead_column_is_pinned(self, micro_dataset):
        import warnings

        from hazlasso import DictionaryMatrix

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dic = DictionaryMatrix(
                values=np.column_stack([micro_dataset.covariates[:, 0], [0.0, 0.0]]),
                labels=["live", "dead"],
            )
        system = build_gram(micro_dataset, dic)
        f = fit(system, np.array([0.1, 0.0]))
        assert f.converged
        np.testing.assert_array_equal(f.pinned, [1])
        assert f.beta[1] == 0.0
        assert f.pinned_violation >= 0.0

    def test_roundoff_floor_does_not_stop_entries(self):
        # raw-scale columns (H ~ 1e6) and more columns than records: at
        # tol = 1e-12 roundoff can keep a solved block just above tol, and
        # the violating zero coordinates must still be brought in
        rng = np.random.default_rng(13)
        for _ in range(10):
            ds = random_dataset(rng, n=35, d=40)
            labels = [f"x{j}" for j in range(40)]
            dic = DictionaryMatrix(values=1e3 * ds.covariates, labels=labels)
            system = build_gram(ds, dic)
            weights = compute_weights(system)
            for scale in (1e-2, 1e-3):
                f = fit(system, weights, tol=1e-12, weight_scale=scale)
                assert f.kkt_max_violation <= 1e-10

    def test_validation(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        weights = np.array([0.1])
        with pytest.raises(ValueError, match="kappa"):
            fit(system, weights, kappa=0.0)
        with pytest.raises(ValueError, match="tol"):
            fit(system, weights, tol=0.0)
        with pytest.raises(ValueError, match="constraint"):
            fit(system, weights, constraint="boxed")
        with pytest.raises(ValueError, match="weight_scale"):
            fit(system, weights, weight_scale=-1.0)

    def test_malformed_start_and_weights_are_refused_by_name(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=40, d=50)
        system = build_gram(ds, linear_dictionary(ds))
        weights = compute_weights(system)
        for start in (np.zeros(3), np.zeros((50, 1)), np.full(50, np.nan), np.full(50, np.inf)):
            with pytest.raises(ValueError, match="start must be 50 finite values"):
                fit(system, weights, start=start)
        short = np.ones(10)
        message = "weights must be finite, 50 of them, got shape \\(10,\\)"
        with pytest.raises(ValueError, match=message):
            fit(system, short)
        with pytest.raises(ValueError, match="weights must be finite, 50 of them"):
            fit_path(system, short, [1.0, 0.5])
        assert fit(system, weights, start=np.zeros(50)).converged

    def test_nan_is_never_convergence(self, micro_dataset):
        # max(0.0, nan) is 0.0 in Python, so a NaN residual once passed the
        # stopping test; every non-finite input is now refused by name, and
        # a NaN that still reaches the residual (here through hn) ends the
        # fit unconverged
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        weights = np.array([0.1])
        for bad in (np.nan, np.inf):
            for name in ("kappa", "tol", "weight_scale"):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    fit(system, weights, **{name: bad})
            with pytest.raises(ValueError, match="weights must be finite"):
                fit(system, np.array([bad]))
            with pytest.raises(ValueError, match=f"got \\[1.0, {bad}, 0.5\\]"):
                fit_path(system, weights, [1.0, bad, 0.5])
        f = fit(replace(system, vector=np.array([np.nan])), weights)
        assert not f.converged
        assert np.isnan(f.kkt_max_violation)


class TestFitPath:
    def test_grid_validation(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        weights = np.array([0.1])
        with pytest.raises(ValueError, match="positive"):
            fit_path(system, weights, [])
        with pytest.raises(ValueError, match="positive"):
            fit_path(system, weights, [1.0, 0.0])
        with pytest.raises(ValueError, match="descending"):
            fit_path(system, weights, [1.0, 2.0])

    def test_path_endpoints(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=40, d=3)
        system = build_gram(ds, linear_dictionary(ds))
        weights = rng.uniform(0.05, 0.2, size=3)
        fits = fit_path(system, weights, [1e4, 1.0, 1e-8], tol=1e-10)
        assert [f.weight_scale for f in fits] == [1e4, 1.0, 1e-8]
        np.testing.assert_array_equal(fits[0].beta, 0.0)  # huge scale kills everything
        cold = fit(system, weights, tol=1e-10)
        np.testing.assert_allclose(fits[1].beta, cold.beta, rtol=0, atol=1e-8)
        unpen = np.linalg.solve(system.matrix, system.vector)
        np.testing.assert_allclose(fits[2].beta, unpen, rtol=0, atol=1e-6)

    def test_warm_starts_match_cold_fits(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, n=30, d=4)
        system = build_gram(ds, linear_dictionary(ds))
        weights = rng.uniform(0.05, 0.2, size=4)
        grid = [4.0, 2.0, 1.0, 0.5]
        warm = fit_path(system, weights, grid, tol=1e-10)
        for scale, f in zip(grid, warm):
            cold = fit(system, weights, weight_scale=scale, tol=1e-10)
            np.testing.assert_allclose(f.beta, cold.beta, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("c", [1e-6, 1e-12, 1e-100])
    def test_path_does_not_depend_on_the_time_unit(self, c):
        # times in another unit, c: H scales by c, hn and the weights do
        # not, so each beta scales by 1/c, and the pinned set and the steps
        # stay; a dead-column floor that ignored the unit pinned every
        # column from c = 1e-12 down
        config = SimulationConfig(
            n=400, d=5, beta0=np.array([1.0, 1.0, -0.5, 0.0, 0.0]),
            baseline=StepFunction.constant(2.0), covariates=GaussianCovariates(rho=0.3, clip=3.0),
            censoring=UniformCensoring(c_max=2.5), seed=3,
        )
        data = simulate(config).dataset

        def path(times):
            scaled = SurvivalDataset(times, data.status, data.covariates)
            system = build_gram(scaled, linear_dictionary(scaled))
            return fit_path(system, compute_weights(system, 3.0), [2.0, 1.0, 0.5, 0.25, 0.05])

        unit = path(data.times)
        assert unit[-1].active_set.size == 5
        for want, got in zip(unit, path(c * data.times)):
            np.testing.assert_array_equal(got.pinned, want.pinned)
            assert got.sweeps == want.sweeps
            scale = np.abs(want.beta).max(initial=0.0)
            np.testing.assert_allclose(got.beta * c, want.beta, rtol=0, atol=1e-12 * scale)


def unit_block(x):
    """The unit-diagonal Gram block of the columns of x."""
    gram = x.T @ x
    scale = 1.0 / np.sqrt(np.diag(gram))
    return gram * scale[:, None] * scale[None, :]


def assert_factors(factor, unit, order):
    """W W' is the inverse of unit's block on `order`, to 1e-12."""
    want = np.linalg.inv(unit[np.ix_(order, order)])
    np.testing.assert_allclose(factor.w @ factor.w.T, want, rtol=1e-12, atol=1e-12)


def gram_system(H, hn):
    """A Gram system of H and hn, with unit half-ranges and a timeline
    that ends at 1: all the solver reads."""
    m = len(hn)
    timeline = types.SimpleNamespace(breakpoints=np.array([0.0, 1.0]))
    return GramSystem(H, hn, timeline, np.ones(m), np.ones(m))


def block_on(unit, order):
    """An active block of the Gram matrix `unit` on the coordinates `order`
    (index order), with a fresh factor."""
    m = len(unit)
    block = solver._ActiveBlock(gram_system(unit, np.zeros(m)))
    beta = np.zeros(m)
    beta[order] = 1.0
    np.testing.assert_array_equal(block.start(beta), _gram_product(unit, beta))
    block.factor = fresh_factor(unit[np.ix_(block.order, block.order)], m)
    return block


def assert_block(block, unit):
    """The block's rows are those of `unit` at its order, bit for bit, and
    its factor is that of their unit-diagonal block."""
    np.testing.assert_array_equal(block.rows, unit[block.order])
    assert block.factor.k == block.k
    assert_factors(block.factor, unit, block.order)


@st.composite
def factor_updates(draw):
    """A unit-diagonal SPD matrix on m coordinates (a random Gram block, one
    whose last column repeats its first, or AR(1) at rho = +-0.9), a start
    block without that twin, and a sequence of entries and exits."""
    m = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["gram", "twin", "ar1"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ar1":
        lags = np.arange(m)
        unit = draw(st.sampled_from([0.9, -0.9])) ** np.abs(lags[:, None] - lags[None, :])
    else:
        x = rng.standard_normal((30, m)) + 0.8 * rng.standard_normal((30, 1))
        if kind == "twin":
            x[:, -1] = x[:, 0]  # entering one twin after the other is refused
        unit = unit_block(x)
    order = [int(j) for j in rng.permutation(m - 1)[: draw(st.integers(0, m - 1))]]
    entry = st.tuples(st.just("enter"), st.integers(0, m - 1))
    leave = st.tuples(st.just("leave"), st.sampled_from(["first", "middle", "last", "several"]))
    return unit, order, draw(st.lists(entry | leave, min_size=1, max_size=20)), rng


class TestInverseFactor:
    @pytest.mark.parametrize("gone", [[0], [4], [8], [1, 5], [0, 3, 8], [2, 3, 4, 6]])
    def test_leaving_coordinates_downdate_the_factor(self, gone):
        """Removing coordinates one reflection at a time, each taking the
        last coordinate into its place, leaves a factor of the inverse of
        the remaining block, for one exit or several."""
        rng = np.random.default_rng(3)
        unit = unit_block(rng.standard_normal((30, 9)) + 0.8 * rng.standard_normal((30, 1)))
        block = block_on(unit, np.arange(9))
        block.leave(np.isin(np.arange(9), gone))
        np.testing.assert_array_equal(np.sort(block.order), np.setdiff1d(np.arange(9), gone))
        assert_block(block, unit)

    @settings(max_examples=60, deadline=None)
    @given(case=factor_updates())
    def test_entries_and_exits_keep_the_factor(self, case):
        """After every entry and exit (first, middle, last or several) the
        carried rows are the block's rows of H bit for bit and W W' is the
        inverse of the block; an entry drops the factor exactly when its
        Schur complement 1 - c' U^-1 c is at most _RCOND; and each buffer
        stays within M and within twice the largest block it held: the
        factor's counts only accepted entries, the rows' a refused twin too."""
        unit, order, updates, rng = case
        block = block_on(unit, order)
        largest = largest_factor = block.k
        for kind, arg in updates:
            order = list(block.order)
            if kind == "enter":
                outside = [j for j in range(len(unit)) if j not in order]
                if not outside:
                    continue
                j = outside[arg % len(outside)]
                col = unit[order, j]
                schur = 1.0 - col @ np.linalg.solve(unit[np.ix_(order, order)], col) if order else 1.0
                factor = block.factor
                np.testing.assert_array_equal(block.enter(j), unit[j])
                largest = max(largest, block.k)
                if schur <= _RCOND:
                    # refused: the factor goes; take the twin out again by
                    # its rows alone and restore the factor it left as it was
                    assert block.factor is None
                    block.leave(np.arange(block.k) == block.k - 1)
                    np.testing.assert_array_equal(block.order, order)
                    block.factor = factor
                else:
                    assert block.factor is factor
            elif order:
                k = len(order)
                gone = np.zeros(k, dtype=bool)
                if arg == "several":
                    gone[rng.permutation(k)[: rng.integers(1, k + 1)]] = True
                else:
                    gone[{"first": 0, "middle": k // 2, "last": k - 1}[arg]] = True
                block.leave(gone)
                assert sorted(block.order) == sorted(j for j, out in zip(order, gone) if not out)
            assert_block(block, unit)
            largest_factor = max(largest_factor, block.factor.k)
            assert block.factor.capacity <= min(max(2 * largest_factor, 1), len(unit))
            assert len(block._rows) == len(block._order) <= min(max(2 * largest, 1), len(unit))

    @pytest.mark.parametrize(
        "n, d, last, least, most",
        [(80, 400, 0.01, 40, 99), (400, 40, 1e-4, 32, 40)],
        ids=["block-far-below-M", "block-reaches-M"],
    )
    def test_buffer_grows_with_the_block_not_the_dictionary(self, monkeypatch, n, d, last, least, most):
        # the factor's buffer (with its scratch block) and the rows buffer
        # double with the block, up to M: at 80 x 400 the blocks hold under
        # a hundred columns and neither buffer approaches 400 x 400; at
        # 400 x 40 they reach 40, where doubling without the cap goes past M
        seen = []
        enter = solver._ActiveBlock.enter

        def recorded(block, j):
            row = enter(block, j)
            factor = block.factor.capacity if block.factor is not None else 0
            seen.append((block.k, factor, len(block._rows)))
            return row

        monkeypatch.setattr(solver._ActiveBlock, "enter", recorded)
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, n=n, d=d)
        system = build_gram(ds, linear_dictionary(ds))
        path = fit_path(system, compute_weights(system), np.geomspace(0.1, last, 6))
        largest = max(k for k, _, _ in seen)
        assert most >= largest >= max(len(f.active_set) for f in path) > least
        assert max(max(capacity, rows) for _, capacity, rows in seen) <= min(2 * largest, d)


EPS = np.finfo(float).eps
# |beta - beta*| <= EXACT_BOUND * eps * cond(H) * (|beta*| + (|hn| + |p|) / |H|),
# max norms but the spectral |H|, against the exact minimiser beta* under
# the penalties p; the largest ratio seen over 6400 random path scales was 0.53
EXACT_BOUND = 8.0


@st.composite
def small_lassos(draw):
    """A random SPD Gram matrix on M <= 4 coordinates (correlated columns
    and a ridge of 1e-4 to 1, so cond(H) reaches about 1e5), hn, weights
    and kappa in {1, 2}."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    common = draw(st.floats(0.0, 2.0)) * rng.standard_normal((m + 3, 1))
    a = rng.standard_normal((m + 3, m)) + common
    H = a.T @ a / (m + 3) + draw(st.sampled_from([1e-4, 1e-2, 1.0])) * np.eye(m)
    weights = rng.uniform(0.0, 1.0, m)
    return gram_system(H, rng.standard_normal(m)), weights, draw(st.sampled_from([1.0, 2.0]))


class TestExactReference:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    @settings(max_examples=40, deadline=None)
    @given(case=small_lassos())
    def test_fit_and_path_match_the_exact_minimiser(self, case, constraint):
        """Every scale of a path, and a cold fit at it, lies within the
        stated multiple of eps * cond(H) of the minimiser found by sign
        enumeration in rational arithmetic."""
        system, weights, kappa = case
        H, hn, w = system.matrix, system.vector, weights
        grid = [2.0, 0.5, 0.1, 0.01]
        options = dict(kappa=kappa, constraint=constraint, tol=1e-12)
        path = fit_path(system, weights, grid, **options)
        penalties = [[Fraction(kappa) * Fraction(s) * Fraction(x) for x in w] for s in grid]
        exact = exact_lasso(H, hn, penalties, nonneg=constraint == "nonnegative")
        cond, norm = np.linalg.cond(H), np.linalg.norm(H, 2)
        for f, scale, b in zip(path, grid, exact):
            want = np.array([float(x) for x in b])
            size = np.abs(want).max() + (np.abs(hn).max() + kappa * scale * w.max()) / norm
            bound = EXACT_BOUND * EPS * cond * size
            cold = fit(system, weights, weight_scale=scale, **options)
            assert np.abs(f.beta - want).max() <= bound
            assert np.abs(cold.beta - want).max() <= bound


class TestKernels:
    def test_active_kernel_reports(self):
        assert active_kernel() == "active-set"


def _fit_objective(system, weights, f):
    return objective(system, f.beta, weights=f.weight_scale * weights, kappa=f.kappa)


class TestCorrelatedDesign:
    @pytest.mark.parametrize("constraint", ["unconstrained", "nonnegative"])
    def test_path_matches_cold_fits_and_ista(self, correlated_problem, constraint):
        system, weights = correlated_problem
        path = fit_path(system, weights, CORRELATED_GRID, constraint=constraint, tol=1e-10)
        for f in path:
            assert f.converged
            assert f.kkt_max_violation <= 1e-10
            trace = f.objective_trace
            assert np.all(np.diff(trace) <= 1e-13 * np.abs(trace).max())
            cold = fit(system, weights, constraint=constraint, tol=1e-10, weight_scale=f.weight_scale)
            assert cold.converged
            np.testing.assert_allclose(f.beta, cold.beta, rtol=0, atol=1e-8)
        # the small scales reach a large active set
        assert len(path[-1].active_set) > (20 if constraint == "unconstrained" else 3)
        penalties = np.outer(weights, CORRELATED_GRID)
        reference = ista(system, penalties, constraint)
        np.testing.assert_allclose(np.array([f.beta for f in path]).T, reference, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("constraint", ["unconstrained", "nonnegative"])
    @pytest.mark.parametrize("n", [150, 60])
    def test_path_scales_are_chained_cold_fits(self, n, constraint, monkeypatch):
        # at n = 60 columns both enter and leave between scales, at the
        # first seed from 909 where they leave on this constraint's path
        for seed in range(909, 949):
            system, weights = correlated(n, seed)
            path = fit_path(system, weights, CORRELATED_GRID, constraint=constraint, tol=1e-10)
            sets = [set(f.active_set) for f in path]
            if n == 150 or any(earlier - later for earlier, later in zip(sets, sets[1:])):
                break
        factored = []

        def counted(unit, limit):
            factored.append(len(unit))
            return fresh_factor(unit, limit)

        monkeypatch.setattr(solver, "_fresh_factor", counted)
        path = fit_path(system, weights, CORRELATED_GRID, constraint=constraint, tol=1e-10)
        in_path = len(factored)
        assert_chained_cold_fits(system, weights, path, constraint=constraint, tol=1e-10)
        # the path reuses each scale's final block, the cold fits factor it
        assert in_path < len(factored) - in_path
        sets = [set(f.active_set) for f in path]
        assert any(later - earlier for earlier, later in zip(sets, sets[1:]))
        if n == 60:
            assert any(earlier - later for earlier, later in zip(sets, sets[1:]))

    def test_step_budget_exhaustion_is_reported(self, correlated_problem, monkeypatch):
        # at 0.1 one step converges (two coordinates enter together); at
        # 0.03 one step still leaves violators
        system, weights = correlated_problem
        monkeypatch.setattr(solver, "MAX_STEPS", 1)
        f = fit(system, weights, weight_scale=0.03)
        assert not f.converged
        assert f.sweeps == 1 and len(f.objective_trace) == 2
        viol = kkt_violations(system, weights, f.beta, f.kappa, f.constraint, f.weight_scale)
        assert f.kkt_max_violation == viol.max()
        assert f.kkt_max_violation > 1e-8

    @pytest.mark.parametrize("constraint", ["unconstrained", "nonnegative"])
    def test_one_step_enters_every_violator(self, correlated_problem, constraint, monkeypatch):
        # from zero the first step brings in every violator and factors
        # their block once, so it is larger than one column
        system, weights = correlated_problem
        factored = []

        def counted(unit, limit):
            factored.append(len(unit))
            return fresh_factor(unit, limit)

        monkeypatch.setattr(solver, "_fresh_factor", counted)
        f = fit(system, weights, constraint=constraint, tol=1e-10, weight_scale=0.01)
        assert factored[0] > 1
        assert f.converged and f.kkt_max_violation <= 1e-10
        trace = f.objective_trace
        assert np.all(np.diff(trace) <= 1e-13 * np.abs(trace).max())
        path = fit_path(system, weights, CORRELATED_GRID, constraint=constraint, tol=1e-10)
        assert path[-1].weight_scale == 0.01
        np.testing.assert_allclose(f.beta, path[-1].beta, rtol=0, atol=1e-8)
        reference = ista(system, 0.01 * weights[:, None], constraint)[:, 0]
        np.testing.assert_allclose(f.beta, reference, rtol=0, atol=1e-7)


SCALES = [2.0, 1.0, 0.3, 0.05]


@st.composite
def rank_deficient(draw):
    """A random dataset whose dictionary repeats one column exactly and
    carries one all-constant column (zero weight, pinned)."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(8, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=n, d=d)
    twin = draw(st.integers(0, d - 1))
    level = draw(st.sampled_from([0.0, 1.0, -250.0]))
    start = rng.normal(size=d + 2)  # twin and copy both nonzero: a singular block
    return ds, twin, level, start


class TestRankDeficient:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=rank_deficient(), constraint=st.sampled_from(["unconstrained", "nonnegative"]))
    def test_duplicate_and_constant_columns(self, case, constraint):
        ds, twin, level, start = case
        X = ds.covariates
        d = X.shape[1]
        values = np.column_stack([X, X[:, twin], np.full(ds.n, level)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the constant column warns
            dic = DictionaryMatrix(values=values, labels=[f"x{j}" for j in range(d)] + ["twin", "const"])
            reduced = DictionaryMatrix(values=np.delete(values, d, axis=1), labels=dic.labels[:d] + ["const"])
        system = build_gram(ds, dic)
        weights = compute_weights(system)
        assert weights[d] == weights[twin]
        assert weights[-1] == 0.0  # a constant column has half-range 0 at any level
        # the reduced problem keeps the full problem's weights (they depend on M)
        kept = [j for j in range(d + 2) if j != d]
        reduced_weights = weights[kept]
        objectives = []
        for system, weights in ((system, weights), (build_gram(ds, reduced), reduced_weights)):
            single = [fit(system, weights, constraint=constraint, weight_scale=s) for s in SCALES]
            warm = [
                fit(system, weights, constraint=constraint, weight_scale=s, start=start[: system.M])
                for s in SCALES
            ]
            path = fit_path(system, weights, SCALES, constraint=constraint)
            assert_chained_cold_fits(system, weights, path, constraint=constraint)
            for f in single + warm + path:
                assert f.converged
                assert f.kkt_max_violation <= 1e-8
                assert list(f.pinned) == [system.M - 1] and f.beta[-1] == 0.0
            objectives.append([_fit_objective(system, weights, f) for f in single + warm + path])
        np.testing.assert_allclose(objectives[0], objectives[1], rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("constraint", ["unconstrained", "nonnegative"])
    def test_column_that_is_a_sum_of_others(self, constraint, monkeypatch):
        # h3 = h1 + h2: a start with all three nonzero makes the active block
        # singular, and unless w3 = w1 + w2 its sign-fixed quadratic falls
        # without bound along the null direction
        singular_steps = []

        def counted(unit, r):
            singular_steps.append(len(r))
            return singular_direction(unit, r)

        monkeypatch.setattr(solver, "_singular_direction", counted)
        rng = np.random.default_rng(12)
        # seed 160 draws a problem whose path from zero enters all three
        # columns, a singular block, in both constraints
        cases = [np.random.default_rng(160)] + [rng] * 20
        for case_rng in cases:
            ds = random_dataset(case_rng, n=30, d=2)
            X = ds.covariates
            values = np.column_stack([X, X.sum(axis=1)])
            system = build_gram(ds, DictionaryMatrix(values=values, labels=["a", "b", "a+b"]))
            weights = case_rng.uniform(0.01, 0.1, size=3)
            start = np.abs(case_rng.normal(size=3))  # all three active: a singular block
            singular_steps.clear()
            fits = fit_path(system, weights, SCALES, constraint=constraint, tol=1e-12)
            if case_rng is cases[0]:
                assert singular_steps, "the path no longer meets a singular block"
            assert_chained_cold_fits(system, weights, fits, constraint=constraint, tol=1e-12)
            fits += [
                fit(system, weights, constraint=constraint, tol=1e-12, weight_scale=s, start=start)
                for s in SCALES
            ]
            for f in fits:
                assert f.converged and f.kkt_max_violation <= 1e-12
                reference = ista(system, (f.weight_scale * weights)[:, None], constraint)[:, 0]
                ref_value = objective(system, reference, weights=f.weight_scale * weights)
                value = _fit_objective(system, weights, f)
                assert value <= ref_value + 1e-10 * max(abs(ref_value), 1.0)


class TestPenaltyStrength:
    def test_doubling_kappa_never_grows_the_fit(self):
        # kappa = 2 at the same weights shrinks at least as hard on average
        rng = np.random.default_rng(11)
        sizes = {1.0: [], 2.0: []}
        for _ in range(20):
            ds = random_dataset(rng, n=40, d=4)
            system = build_gram(ds, linear_dictionary(ds))
            weights = rng.uniform(0.02, 0.1, size=4)
            for kappa in (1.0, 2.0):
                f = fit(system, weights, kappa=kappa)
                sizes[kappa].append(np.abs(f.beta).sum())
        assert np.mean(sizes[2.0]) <= np.mean(sizes[1.0])

    def test_fit_result_fields(self, micro_dataset):
        system = build_gram(micro_dataset, linear_dictionary(micro_dataset))
        f = fit(system, np.array([0.1]))
        assert isinstance(f, LassoFit)
        assert f.kappa == 1.0 and f.constraint == "unconstrained"
        np.testing.assert_array_equal(f.active_set, [0])
        assert f.sweeps >= 1 and len(f.objective_trace) == f.sweeps + 1
