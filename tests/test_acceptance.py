"""End-to-end acceptance gate.

Ten criteria, one test each, every threshold stated inline. The terminal
summary (see conftest) prints one PASS/FAIL line per criterion. The Monte
Carlo criteria (6-8) run thousands of replications and dominate the
runtime of the whole suite; everything is seeded and deterministic.
"""

import math

import numpy as np
import pytest
from scipy import stats

from hazlasso import (
    StepFunction,
    build_gram,
    build_timeline,
    check_orthogonality,
    compute_weights,
    empirical_norm_sq,
    empirical_norm_sq_fn,
    fit,
    linear_dictionary,
    run_mc,
    run_oracle_mc,
)
from hazlasso.bernstein import PAPER_NUMERIC
from hazlasso.simulate import (
    AdministrativeCensoring,
    GaussianCovariates,
    SimulationConfig,
    default_config,
    noise_terms,
    simulate,
)

from conftest import flat_weights, random_dataset
from test_solver import grid_minimize

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def oracle_report():
    """One 500-replication oracle run shared by criteria 7 and 8.

    The slow check always runs on the raw linear dictionary (kappa=1);
    identity_gram makes the fast check (kappa=2) exact via whitening.
    """
    return run_oracle_mc(default_config(), x=5.0, replications=500, identity_gram=True)


def test_criterion_01_micro_instance(micro_dataset):
    dictionary = linear_dictionary(micro_dataset)
    system = build_gram(micro_dataset, dictionary)
    assert abs(system.matrix[0, 0] - 0.125) <= 1e-12
    assert abs(system.vector[0] - (-0.25)) <= 1e-12
    assert abs(system.vhat[0] - 0.125) <= 1e-12


def test_criterion_02_centering_orthogonality():
    rng = np.random.default_rng(20260814)
    for _ in range(100):
        ds = random_dataset(rng, n=int(rng.integers(5, 201)))
        tl = build_timeline(ds)
        v = rng.normal(size=ds.n) * float(rng.uniform(0.5, 50.0))
        k = int(rng.integers(1, 6))
        bp = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(size=k)]))
        phi = StepFunction(bp, rng.normal(size=len(bp) - 1))
        resid = check_orthogonality(tl, v, phi)
        scale = max(1.0, ds.n * np.abs(v).max() * np.abs(phi.values).max())
        assert abs(resid) <= 1e-10 * scale


def test_criterion_03_gram_consistency():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ds = random_dataset(rng)
        dictionary = linear_dictionary(ds)
        system = build_gram(ds, dictionary)
        H = system.matrix
        beta = rng.normal(size=ds.d)
        quad = empirical_norm_sq(system, beta)
        direct = empirical_norm_sq_fn(system.timeline, dictionary.values @ beta)
        assert abs(quad - direct) <= 1e-10 * max(abs(quad), 1e-12)
        assert np.abs(H - H.T).max() <= 1e-12
        norm = np.linalg.norm(H)
        assert np.linalg.eigvalsh(H).min() >= -1e-10 * max(norm, 1.0)


def test_criterion_04_solver_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(30):
        ds = random_dataset(rng, d=int(rng.integers(1, 4)))
        system = build_gram(ds, linear_dictionary(ds))
        weights = flat_weights(rng.uniform(0.02, 0.3, size=ds.d), ds.n)
        result = fit(system, weights, tol=1e-10)
        assert result.converged
        assert result.kkt_max_violation <= 1e-8
        assert np.all(np.diff(result.objective_trace) <= 1e-12)
        beta_grid, val_grid = grid_minimize(system, weights, 1.0, "unconstrained")
        val_fit = float(
            result.beta @ system.matrix @ result.beta
            - 2.0 * result.beta @ system.vector
            + weights.w @ np.abs(result.beta)
        )
        np.testing.assert_allclose(result.beta, beta_grid, rtol=0, atol=1e-3)
        assert abs(val_fit - val_grid) <= 1e-6 * max(abs(val_grid), 1.0)


def test_criterion_05_noise_decomposition():
    cfg = default_config()
    for rep in range(50):
        truth = simulate(cfg, seed=[505, rep])
        dictionary = linear_dictionary(truth.dataset)
        system = build_gram(truth.dataset, dictionary)
        tl = system.timeline
        signal = tl.cross_moment(tl.centered(dictionary.values), tl.centered(truth.h0))[:, 0]
        noise = noise_terms(truth, dictionary.values, tl)[0]
        scale = np.abs(system.vector).max()
        np.testing.assert_allclose(signal + noise, system.vector, rtol=0, atol=1e-8 * scale)


def test_criterion_06_bernstein_bound_frequencies():
    # published ceiling c3 <= 28.55 gives the tail bounds; checked against
    # the tighter of the exact value and its 3-decimal statement
    stated = {4.0: 0.524, 5.0: 0.192, 6.0: 0.071}
    report = run_mc(
        default_config(), column=0, x_grid=[4.0, 5.0, 6.0], replications=10_000
    )
    assert report["excluded_degenerate"] == 0
    for row in report["rows"]:
        bound = min(PAPER_NUMERIC.tail_probability(row["x"]), stated[row["x"]])
        assert row["wilson_high"] <= bound, (row["x"], row["wilson_high"], bound)


def test_criterion_07_slow_oracle_frequency(oracle_report):
    assert oracle_report["replications"] == 500
    assert oracle_report["slow"]["frequency"] >= 0.80, oracle_report["slow"]["frequency"]


def test_criterion_08_fast_oracle_identity_gram(oracle_report):
    assert oracle_report["mu3_label"] == "exact"
    assert all(row["gram_offset"] <= 1e-8 for row in oracle_report["rows"])
    assert oracle_report["fast"]["frequency"] >= 0.80, oracle_report["fast"]["frequency"]


def test_criterion_09_constants():
    assert PAPER_NUMERIC.c1 == 2.0 * math.sqrt(2.0)
    assert abs(PAPER_NUMERIC.c2 - 9.31) <= 0.01 and PAPER_NUMERIC.c2 <= 9.31
    assert PAPER_NUMERIC.c3 <= 28.55
    # the weights are the bound under these constants, at level x + log M
    truth = simulate(default_config())
    dic = linear_dictionary(truth.dataset)
    weights = compute_weights(build_gram(truth.dataset, dic), x=2.0)
    level, n = 2.0 + math.log(dic.M), truth.dataset.n
    ell, r = weights.loglog, weights.half_range
    want = PAPER_NUMERIC.c1 * np.sqrt((level + ell) / n * weights.vhat)
    want += PAPER_NUMERIC.c2 * (level + 1.0 + ell) / n * r
    np.testing.assert_allclose(weights.w, want, rtol=1e-14)
    assert np.all(r > 0) and np.any(ell > 0)


def test_criterion_10_simulator_distribution():
    # lambda0 = 1 and beta0 = 0: T ~ Exp(1), observed as min(T, 1)
    cfg = SimulationConfig(
        n=10_000,
        d=1,
        beta0=[0.0],
        baseline=StepFunction.constant(1.0),
        covariates=GaussianCovariates(rho=0.0, clip=3.0),
        censoring=AdministrativeCensoring(),
        seed=1010,
    )
    truth = simulate(cfg)
    z = truth.dataset.times
    events = truth.dataset.status

    def truncated_exp_cdf(t):
        return (1.0 - np.exp(-t)) / (1.0 - math.exp(-1.0))

    ks = stats.kstest(z[events], truncated_exp_cdf)
    assert ks.pvalue > 0.01, ks
    want = 1.0 - math.exp(-1.0)
    se = z.std(ddof=1) / math.sqrt(len(z))
    assert abs(z.mean() - want) <= 3.0 * se
