"""Oracle-inequality checks, the cone search, and the MC driver.

Searched mu3 values are one-sided: every test treats them as certified
lower bounds and checks the direction, never the unreachable supremum.
"""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hazlasso import (
    ConeSearchResult,
    ConfigError,
    DataValidationError,
    DictionaryMatrix,
    StepFunction,
    build_gram,
    build_timeline,
    compute_weights,
    default_config,
    fast_oracle_check,
    fit,
    guarantee_level,
    identity_gram_check,
    linear_dictionary,
    mu3_bracket,
    mu3_search,
    run_oracle_mc,
    simulate_batch,
    slow_oracle_check,
)
from hazlasso.cli import SCHEMA_VERSION, main
from hazlasso.gram import empirical_norm_sq_fn
from hazlasso.simulate import GaussianCovariates, SimulationConfig, UniformCensoring, simulate
from hazlasso.survival import SurvivalDataset

from conftest import flat_weights


def oracle_config(**overrides):
    base = dict(
        n=60,
        d=4,
        beta0=[0.5, -0.3, 0.0, 0.0],
        baseline=StepFunction.constant(2.0),
        covariates=GaussianCovariates(rho=0.3, clip=2.0),
        censoring=UniformCensoring(c_max=2.5),
        seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def synthetic_system(matrix, template):
    """GramSystem with a prescribed matrix; only (matrix, M) feed the search."""
    matrix = np.asarray(matrix, dtype=float)
    M = matrix.shape[0]
    return dataclasses.replace(
        template,
        matrix=matrix,
        vector=np.zeros(M),
        labels=[f"c{j}" for j in range(M)],
    )


@pytest.fixture
def micro_system(micro_dataset):
    return build_gram(micro_dataset, linear_dictionary(micro_dataset))


class TestGuaranteeLevel:
    def test_values(self):
        np.testing.assert_allclose(guarantee_level(5.0), 1.0 - 29.0 * math.exp(-5.0), rtol=1e-15)
        assert guarantee_level(0.1) == 0.0  # vacuous levels clip at zero


class TestChecks:
    def test_kappa_contracts(self):
        truth = simulate(oracle_config())
        dictionary = linear_dictionary(truth.dataset)
        system = build_gram(truth.dataset, dictionary)
        weights = flat_weights([0.1] * 4, 60)
        f1 = fit(system, weights, kappa=1.0)
        with pytest.raises(ValueError, match="kappa=2"):
            fast_oracle_check(truth, dictionary, f1, 1.0, system, weights)
        f2 = dataclasses.replace(f1, kappa=2.0)
        with pytest.raises(ValueError, match="kappa=1"):
            slow_oracle_check(truth, dictionary, f2, system, weights)
        with pytest.raises(ValueError, match="mu3"):
            fast_oracle_check(truth, dictionary, f2, 0.0, system, weights)

    def test_refuses_real_data(self, micro_dataset):
        dictionary = linear_dictionary(micro_dataset)
        system = build_gram(micro_dataset, dictionary)
        weights = flat_weights([0.1], 2)
        f = fit(system, weights)
        with pytest.raises(DataValidationError, match="simulated"):
            slow_oracle_check(micro_dataset, dictionary, f, system, weights)

    def test_slow_check_on_zero_signal(self):
        # no signal: the reference term vanishes and the fit stays at zero,
        # so both sides are exactly zero
        truth = simulate(oracle_config(beta0=[0.0] * 4))
        dictionary = linear_dictionary(truth.dataset)
        system = build_gram(truth.dataset, dictionary)
        weights = compute_weights(system, 5.0)
        f = fit(system, weights, kappa=1.0)
        lhs, rhs, holds = slow_oracle_check(truth, dictionary, f, system, weights)
        assert holds and lhs == 0.0 and rhs == 0.0

    def test_slow_check_shape(self):
        truth = simulate(oracle_config())
        dictionary = linear_dictionary(truth.dataset)
        system = build_gram(truth.dataset, dictionary)
        weights = compute_weights(system, 5.0)
        f = fit(system, weights, kappa=1.0)
        lhs, rhs, holds = slow_oracle_check(truth, dictionary, f, system, weights)
        assert lhs >= 0.0
        # h0 is exactly linear here, so the rhs is twice the reference penalty
        np.testing.assert_allclose(
            rhs, 2.0 * np.abs(truth.beta0) @ weights.w, rtol=0, atol=1e-12
        )
        assert isinstance(holds, bool)

    def test_record_order_invariance(self):
        truth = simulate(oracle_config())
        perm = np.random.default_rng(0).permutation(truth.dataset.n)
        shuffled = copy.copy(truth)
        ds = truth.dataset
        shuffled.dataset = SurvivalDataset(
            times=ds.times[perm], status=ds.status[perm],
            covariates=ds.covariates[perm], labels=ds.labels,
        )
        shuffled.h0 = truth.h0[perm]
        out = []
        for t in (truth, shuffled):
            dictionary = linear_dictionary(t.dataset)
            system = build_gram(t.dataset, dictionary)
            weights = compute_weights(system, 5.0)
            f = fit(system, weights, kappa=1.0, tol=1e-10)
            out.append(slow_oracle_check(t, dictionary, f, system, weights))
        np.testing.assert_allclose(out[0][:2], out[1][:2], rtol=1e-8)

    def test_pythagoras_consistency(self):
        # |h_fit - h0|^2 expands bilinearly; checks the norm and inner
        # product paths against each other
        truth = simulate(oracle_config())
        dictionary = linear_dictionary(truth.dataset)
        tl = build_timeline(truth.dataset)
        rng = np.random.default_rng(3)
        beta = rng.normal(size=4)
        u = dictionary.values @ beta
        lhs = empirical_norm_sq_fn(tl, u - truth.h0)
        expanded = (
            empirical_norm_sq_fn(tl, u)
            - 2.0 * tl.cross_moment(tl.centered(u), tl.centered(truth.h0))[0, 0]
            + empirical_norm_sq_fn(tl, truth.h0)
        )
        np.testing.assert_allclose(lhs, expanded, rtol=1e-10)


class TestMu3Search:
    def test_identity_gram_is_exactly_one(self, micro_system):
        system = synthetic_system(np.eye(3), micro_system)
        weights = flat_weights([0.2, 0.2, 0.2], 2)
        found = mu3_search(system, weights, np.array([1.0, 0.0, 0.0]), budget=64)
        assert isinstance(found, ConeSearchResult)
        assert found.mu3_lower == 1.0  # e_1 witnesses it; nothing beats it
        assert found.candidates == 65

    def test_single_column_closed_form(self, micro_system):
        # M = 1: mu3 = 1/sqrt(H) for every cone vector
        weights = flat_weights([0.2], 2)
        found = mu3_search(micro_system, weights, np.array([1.0]), budget=8)
        np.testing.assert_allclose(found.mu3_lower, 1.0 / math.sqrt(0.125), rtol=1e-15)

    def test_rank_deficient_support_is_infinite(self, micro_system):
        system = synthetic_system(np.diag([1.0, 0.0]), micro_system)
        weights = flat_weights([0.2, 0.2], 2)
        found = mu3_search(system, weights, np.array([0.0, 1.0]), budget=8)
        assert found.mu3_lower == math.inf

    def test_budget_monotone_same_seed(self, micro_system):
        rng = np.random.default_rng(14)
        A = rng.normal(size=(6, 4))
        system = synthetic_system(A.T @ A / 6.0, micro_system)
        weights = flat_weights(rng.uniform(0.05, 0.3, size=4), 2)
        ref = np.array([1.0, -2.0, 0.0, 0.0])
        values = [
            mu3_search(system, weights, ref, budget=b, seed=3).mu3_lower
            for b in (32, 64, 256)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_plain_stream_matches_its_definition(self, micro_system):
        # the support axes, then `budget` draws: a standard normal vector
        # whose weighted off-support mass is capped at 3 theta |b_J|_{1,w}
        # for a uniform theta, drawn from the substream keyed by [seed]
        rng = np.random.default_rng(18)
        A = rng.normal(size=(10, 6))
        H = A.T @ A / 10.0 + 0.05 * np.eye(6)
        system = synthetic_system(H, micro_system)
        w = rng.uniform(0.05, 0.3, size=6)
        ref = np.array([0.0, 1.0, 0.0, -0.5, 0.0, 0.0])
        support = np.flatnonzero(ref)
        off = np.flatnonzero(ref == 0.0)
        budget, seed = 100, 9
        found = mu3_search(system, flat_weights(w, 2), ref, budget=budget, seed=seed)
        assert found.candidates == support.size + budget
        best = max(cone_ratio(H, support, np.eye(6)[j]) for j in support)
        draws = np.random.default_rng([seed])
        for _ in range(budget):
            b = draws.standard_normal(6)
            theta = draws.uniform()
            cap = 3.0 * theta * float(w[support] @ np.abs(b[support]))
            load = float(w[off] @ np.abs(b[off]))
            if load > cap:
                b[off] *= cap / load
            best = max(best, cone_ratio(H, support, b))
        np.testing.assert_allclose(found.mu3_lower, best, rtol=1e-12)

    def test_validation(self, micro_system):
        weights = flat_weights([0.2], 2)
        with pytest.raises(ValueError, match="support"):
            mu3_search(micro_system, weights, np.zeros(1))
        with pytest.raises(ValueError, match="budget"):
            mu3_search(micro_system, weights, np.ones(1), budget=0)


def cone_ratio(H, support, b):
    return math.sqrt(float(b[support] @ b[support]) / float(b @ H @ b))


def closed_form_maximiser(H, support):
    """b* = H^-1 E_J v for the top eigenvector v of [H^-1]_JJ, by a dense inverse."""
    inv = np.linalg.inv(H)
    _, vecs = np.linalg.eigh(inv[np.ix_(support, support)])
    return inv[:, support] @ vecs[:, -1]


def in_cone(b, w, support):
    outside = np.ones(len(b), dtype=bool)
    outside[support] = False
    return w[outside] @ np.abs(b[outside]) <= 3.0 * (w[support] @ np.abs(b[support]))


@st.composite
def bracket_cases(draw):
    """Random SPD H (equicorrelated up to rho, ridge 0.05), weights with
    some zero entries, and a support of 1..M columns; roughly a quarter of
    the cases put b* outside the cone."""
    M = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = draw(st.floats(0.0, 0.95))
    A = rng.standard_normal((M + draw(st.integers(0, 6)), M))
    H = (1.0 - rho) * (A.T @ A) / len(A) + rho * np.ones((M, M)) + 0.05 * np.eye(M)
    w = rng.uniform(0.05, 1.0, size=M) * (rng.uniform(size=M) > 0.15)
    ref = np.zeros(M)
    support = rng.choice(M, size=draw(st.integers(1, M)), replace=False)
    ref[support] = rng.choice([-1.0, 1.0], size=support.size) * rng.uniform(0.5, 2.0, support.size)
    w[support] *= draw(st.floats(0.05, 1.0))  # light support weights narrow the cone
    return H, w, ref, draw(st.integers(0, 1000))


class TestMu3Bracket:
    # Closed-form values and ratios at cone points are two floating-point
    # evaluations of the same quantity when a point is the maximiser, so
    # comparisons between them allow a few ulps of relative slack.
    ROUNDING = 1e-12

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=bracket_cases())
    def test_bracket_holds_against_cone_points(self, case, micro_system):
        H, w, ref, seed = case
        system = synthetic_system(H, micro_system)
        weights = flat_weights(w, 2)
        support = np.flatnonzero(ref)
        found = mu3_bracket(system, weights, ref, budget=64, seed=seed)
        assert found.mu3_lower <= found.mu3_upper
        assert math.isfinite(found.mu3_upper)  # the ridge keeps H regular
        rng = np.random.default_rng(seed)
        outside = np.ones(len(w), dtype=bool)
        outside[support] = False
        for _ in range(200):
            b = rng.standard_normal(len(w))
            cap = 3.0 * rng.uniform() * (w[support] @ np.abs(b[support]))
            load = w[outside] @ np.abs(b[outside])
            if load > cap:
                b[outside & (w > 0)] *= cap / load
            assert cone_ratio(H, support, b) <= found.mu3_upper * (1.0 + self.ROUNDING)
        b_star = closed_form_maximiser(H, support)
        if found.method == "closed-form":
            assert found.label == "exact" and found.mu3_lower == found.mu3_upper
            assert in_cone(b_star, w, support)
            np.testing.assert_allclose(
                found.mu3_lower, cone_ratio(H, support, b_star), rtol=self.ROUNDING
            )
        else:
            assert found.mu3_lower < found.mu3_upper
        np.testing.assert_allclose(
            found.mu3_upper, cone_ratio(H, support, b_star), rtol=self.ROUNDING
        )
        searched = mu3_search(system, weights, ref, budget=64, seed=seed)
        assert found.mu3_lower >= searched.mu3_lower * (1.0 - self.ROUNDING)

    def test_maximiser_outside_the_cone_is_bracketed(self, micro_system):
        # columns 0 and 1 correlate at rho; b* = H^-1 e_0 is (1, -rho, 0, ...)
        # up to scale, whose weighted off-support mass rho * 1 exceeds
        # 3 * 0.1. The cone optimum is (1, -0.3, 0, ...), which projecting
        # b* onto the cone reaches exactly.
        rho = 0.9
        H = np.eye(13)
        H[0, 1] = H[1, 0] = rho
        system = synthetic_system(H, micro_system)
        weights = flat_weights([0.1] + [1.0] * 12, 2)
        found = mu3_bracket(system, weights, np.eye(13)[0], budget=64, seed=4)
        assert found.method != "closed-form"
        assert found.label == "indicative"
        assert math.isfinite(found.mu3_upper) and found.mu3_upper > found.mu3_lower
        np.testing.assert_allclose(found.mu3_upper, 1.0 / math.sqrt(1.0 - rho**2), rtol=1e-12)
        np.testing.assert_allclose(
            found.mu3_lower, 1.0 / math.sqrt(1.0 - 2.0 * rho * 0.3 + 0.09), rtol=1e-12
        )

    def test_null_direction_in_the_cone_is_infinite(self, micro_system):
        # u = (1, -1, 0, ...) spans the null space; its off-support mass 0.2
        # is inside the cone's 3 * 1. With M = 13 the search alone would
        # have to hit u by chance.
        H = np.eye(13)
        H[:2, :2] = 1.0
        system = synthetic_system(H, micro_system)
        found = mu3_bracket(system, flat_weights([1.0, 0.2] + [1.0] * 11, 2), np.eye(13)[0])
        assert found.mu3_lower == found.mu3_upper == math.inf
        assert found.method == "null-direction" and found.label == "exact"

    def test_null_direction_outside_the_cone_opens_the_bracket(self, micro_system):
        # the same null space, but the off-support weight 1 puts u outside
        # the cone |b_1| <= 0.3 |b_0|, where mu3 = 1 / 0.7
        system = synthetic_system([[1.0, 1.0], [1.0, 1.0]], micro_system)
        found = mu3_bracket(system, flat_weights([0.1, 1.0], 2), np.array([1.0, 0.0]))
        assert found.mu3_upper == math.inf
        assert 0.0 < found.mu3_lower <= 1.0 / 0.7 + 1e-12
        assert found.label != "exact"

    def test_cli_rows_carry_the_upper_bound(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle-check", "--config", "default", "--reps", "3", "--seed", "5",
                     "--threads", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA_VERSION
        for row in report["rows"]:
            assert row["mu3_upper"] >= row["mu3"] > 0.0
            assert row["mu3_label"] in ("exact", "indicative")
            assert (row["mu3_label"] == "exact") == (row["mu3_upper"] == row["mu3"])


class TestIdentityGramCheck:
    def test_whitened_run_is_exact(self):
        truth = simulate(oracle_config())
        system = build_gram(truth.dataset, linear_dictionary(truth.dataset))
        out = identity_gram_check(truth, x=5.0, system=system)
        assert out["mu3_label"] == "exact"
        assert out["gram_offset"] <= 1e-10
        assert out["mu3"] == 1.0
        assert out["fast_converged"] is True
        assert out["fast_holds"] and out["fast_lhs"] <= out["fast_rhs"] + 1e-12

    @pytest.mark.parametrize("n, d, x, least_kept", [(200, 50, 5.0, 0), (2000, 10, 0.5, 1)],
                             ids=["default", "kept-coefficients"])
    def test_closed_form_matches_the_solver_on_the_rebuilt_gram(self, n, d, x, least_kept):
        # at 2000 x 10 and x = 0.5 every whitened fit keeps coefficients, so
        # the soft-thresholding itself is compared, not only zero fits
        beta0 = np.zeros(d)
        beta0[:3] = [1.0, 1.0, -0.5]
        config = dataclasses.replace(default_config(), n=n, d=d, beta0=beta0)
        truth = simulate_batch(config, [[3, rep] for rep in range(8)])
        system = build_gram(truth.dataset, linear_dictionary(truth.dataset))
        out = identity_gram_check(truth, x=x, system=system)
        lhs, rhs, holds, kept = whitened_by_solver(truth, x, system)
        np.testing.assert_allclose(out["fast_lhs"], lhs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(out["fast_rhs"], rhs, rtol=1e-12, atol=0)
        assert out["fast_holds"] == holds
        assert out["mu3"] == [1.0] * 8 and out["fast_converged"] == [True] * 8
        assert min(kept) >= least_kept

    def test_singular_design_is_refused(self):
        truth = simulate(oracle_config())
        ds = truth.dataset
        dup = ds.covariates.copy()
        dup[:, 1] = dup[:, 0]
        truth.dataset = SurvivalDataset(times=ds.times, status=ds.status, covariates=dup)
        truth.h0 = dup @ truth.beta0
        system = build_gram(truth.dataset, linear_dictionary(truth.dataset))
        with pytest.raises(ConfigError, match="singular"):
            identity_gram_check(truth, x=5.0, system=system)


def whitened_by_solver(truth, x, system):
    """The whitened fast check the long way: rotate the covariates by R =
    H^{-1/2}, rebuild the Gram and the weights of the rotated dictionary,
    fit each replication at kappa=2 and take mu3 = 1/sqrt(lambda_min) of
    the rebuilt Gram. Returns the check's (lhs, rhs, holds) and the
    number of coefficients each fit keeps."""
    lam, vecs = np.linalg.eigh(system.matrix)
    root = (vecs * np.sqrt(lam)[:, None, :]) @ np.swapaxes(vecs, -1, -2)
    inv_root = (vecs / np.sqrt(lam)[:, None, :]) @ np.swapaxes(vecs, -1, -2)
    dataset = truth.dataset
    labels = [f"w{j + 1}" for j in range(system.M)]
    whitened = DictionaryMatrix(dataset.covariates @ inv_root, labels=labels)
    system_w = build_gram(dataset, whitened, system.timeline)
    weights_w = compute_weights(system_w, x)
    fits = [fit(system_w[r], weights_w[r], kappa=2.0) for r in range(len(lam))]
    assert all(f.converged for f in fits)
    mu3 = 1.0 / np.sqrt(np.linalg.eigvalsh(system_w.matrix)[:, 0])
    beta_ref = (root @ truth.beta0[:, None])[..., 0]
    sides = fast_oracle_check(truth, whitened, fits, mu3, system_w, weights_w, beta_ref)
    return (*sides, [np.count_nonzero(f.beta) for f in fits])


class TestRunOracleMC:
    def test_searched_mode_structure(self):
        report = run_oracle_mc(oracle_config(), x=5.0, replications=12, seed=21, mu3_budget=32)
        assert isinstance(report, dict)
        assert report["replications"] == 12
        assert 0.0 <= report["slow"]["frequency"] <= 1.0
        assert 0.0 <= report["fast"]["frequency"] <= 1.0
        slow = report["slow"]
        assert slow["wilson_low"] <= slow["frequency"] <= slow["wilson_high"]
        assert report["mu3_label"] in ("indicative", "exact")
        np.testing.assert_allclose(report["guarantee"], 1.0 - 29.0 * math.exp(-5.0))
        assert len(report["rows"]) == 12
        for check in ("slow", "fast"):
            stuck = sum(1 for row in report["rows"] if not row[f"{check}_converged"])
            assert report[check]["nonconverged"] == stuck
        json.dumps(report)

    def test_identity_gram_mode(self):
        report = run_oracle_mc(
            oracle_config(), x=5.0, replications=8, seed=22, identity_gram=True
        )
        assert report["identity_gram"]
        assert report["mu3_label"] == "exact"
        assert all(row["gram_offset"] <= 1e-9 for row in report["rows"])

    def test_deterministic_in_seed(self):
        a = run_oracle_mc(oracle_config(), replications=6, seed=23, mu3_budget=16)
        b = run_oracle_mc(oracle_config(), replications=6, seed=23, mu3_budget=16)
        assert a["rows"] == b["rows"]

    def test_validation(self):
        with pytest.raises(ConfigError, match="replication"):
            run_oracle_mc(oracle_config(), replications=0)
        with pytest.raises(ConfigError, match="positive"):
            run_oracle_mc(oracle_config(), x=-1.0, replications=2)
